"""Destination arrays for the backward passes' ``out`` dicts, laid out as a
training run lays out its gradients, and the check that two sets of
gradients hold the same bits."""

import numpy as np

from labelbridge.fusion import fusion_backward_batch


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


def separate(like: dict) -> dict:
    """One NaN array per array of ``like``, each its own aligned allocation."""
    return {name: np.full(arr.shape, np.nan) for name, arr in like.items()}


def fusion_gradients(cache, upstream, feats_grad=True) -> tuple:
    """``fusion_backward_batch`` into fresh destinations; returns
    (grads dict, dFeats, dLO)."""
    grads = destinations(cache.params.parameters())
    return (grads, *fusion_backward_batch(cache, upstream, grads, feats_grad=feats_grad))


def network_gradients(network, cache, d_logits) -> dict:
    """``network.backward_batch`` into fresh destinations, keyed like
    ``network.parameters()``."""
    out = destinations(network.parameters())
    network.backward_batch(cache, d_logits, out)
    return out


def assert_same_bits(got: dict, want: dict) -> None:
    """``got`` holds ``want``'s names in its order, each with its bits, and
    no NaN, so every slot was written."""
    assert list(got) == list(want)
    for name, arr in want.items():
        assert not np.isnan(got[name]).any(), name
        assert got[name].tobytes() == arr.tobytes(), name
