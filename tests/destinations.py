"""Destination arrays for the backward passes' ``out`` dicts, laid out as a
training run lays out its gradients, and the check that a pass wrote into
them."""

import numpy as np


def destinations(like: dict) -> dict:
    """One view per array of ``like``, at its shape, laid end to end in one
    flat array after a one-element pad, so no view starts on a 16-byte
    boundary. Every element starts as NaN, so one left unwritten shows."""
    flat = np.full(1 + sum(arr.size for arr in like.values()), np.nan)
    out, offset = {}, 1
    for name, arr in like.items():
        out[name] = flat[offset:offset + arr.size].reshape(arr.shape)
        offset += arr.size
    return out


def assert_written_into(got: dict, out: dict, want: dict) -> None:
    """Each gradient of ``want`` came back as its destination array itself,
    with ``want``'s bits."""
    assert list(got) == list(want)
    for name, arr in want.items():
        assert got[name] is out[name], name
        assert got[name].tobytes() == arr.tobytes(), name
