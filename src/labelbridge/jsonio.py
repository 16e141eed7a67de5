"""Deterministic JSON and float formatting for all emitted files.

Floats are printed with 12 significant digits so that outputs are
byte-identical across runs and easy to diff; checkpoint headers use "%r",
which parses back to the same float64. Non-finite floats are rejected.
"""

import contextlib
import math
import os

import numpy as np

from .errors import NumericalError


def format_float(x, fmt: str = "%.12g") -> str:
    return fmt % output_floats(x)


def output_floats(values):
    """``values`` as a float, or nested lists of floats, ready for "%.12g".

    Raises NumericalError on a non-finite value, checking the whole array at
    once, and turns -0.0 into 0.0 by adding 0.0: "%.12g" prints "-0" for
    -0.0 alone, and output files never show it.
    """
    arr = np.asarray(values, dtype=np.float64)
    finite = np.isfinite(arr)
    if not finite.all():
        raise NumericalError(f"non-finite value {float(arr[~finite][0])!r} in output")
    return (arr + 0.0).tolist()


def dumps_json(obj, float_fmt: str = "%.12g") -> str:
    """Serialize dicts/lists/strings/numbers, floats printed with ``float_fmt``.

    Insertion order of dict keys is preserved, so a fixed construction
    order yields byte-identical documents.
    """
    out: list[str] = []
    _write(obj, out, float_fmt)
    return "".join(out)


def dump_json(obj, path) -> None:
    with atomic_write(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_json(obj))
        fh.write("\n")


@contextlib.contextmanager
def atomic_write(path, mode: str = "w", **kwargs):
    """Write through a sibling temp file that replaces ``path`` on success.

    On an exception the temp file is removed and ``path`` keeps its old
    bytes, so a write that fails part-way never leaves ``path`` truncated.
    """
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def _write(obj, out: list[str], float_fmt: str) -> None:
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append(_escape(obj))
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, float) and math.isfinite(obj):
        out.append(float_fmt % (obj + 0.0))   # + 0.0 as in output_floats
    elif isinstance(obj, (float, np.floating)):
        out.append(format_float(obj, float_fmt))
    elif isinstance(obj, np.ndarray):
        _write(obj.tolist(), out, float_fmt)
    elif isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.append(",")
            if not isinstance(k, str):
                raise TypeError(f"JSON object keys must be strings, got {k!r}")
            out.append(_escape(k))
            out.append(":")
            _write(v, out, float_fmt)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(",")
            _write(v, out, float_fmt)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")


_ESCAPES = {'"': '\\"', "\\": "\\\\", "\n": "\\n", "\r": "\\r", "\t": "\\t"}


def _escape(s: str) -> str:
    parts = ['"']
    for ch in s:
        if ch in _ESCAPES:
            parts.append(_ESCAPES[ch])
        elif ord(ch) < 0x20:
            parts.append("\\u%04x" % ord(ch))
        else:
            parts.append(ch)
    parts.append('"')
    return "".join(parts)
