"""Exception types shared across the toolkit.

Exit-code mapping used by the CLI lives on each class so library errors
translate to stable process exit codes: 2 input/parse, 3 shape/compat,
4 numerical failure.
"""


class ToolkitError(Exception):
    exit_code = 1


class InputError(ToolkitError):
    """Unparseable or invalid input data, files, or option values."""

    exit_code = 2


class ShapeError(ToolkitError):
    """Dimension or compatibility mismatch between components."""

    exit_code = 3


class NumericalError(ToolkitError):
    """Non-finite values where finite ones are required (e.g. NaN loss)."""

    exit_code = 4


class StaleCacheError(ToolkitError):
    """``Network.backward_batch`` got a cache from before ``note_update()``."""
