"""Run a block of code with every EA_norm product in one form.

``labelbridge.gcn.compact_pays`` picks the dense or the compact form from
the shapes. Tests that must cover both forms at small shapes replace the
rule for the duration of a ``with forced_form(...)`` block.
"""

import contextlib
from unittest import mock

from labelbridge import gcn


@contextlib.contextmanager
def forced_form(compact: bool):
    """Every product takes the given form, whatever the shapes."""
    with mock.patch.object(gcn, "compact_pays", lambda *shape: compact):
        yield
