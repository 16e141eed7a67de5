"""Low-rank bilinear bridging of image features with label embeddings.

One bridging projects the image feature and one label embedding to a
shared D3 space, Hadamard-multiplies their low-rank expansions into a
G*g-wide vector, sums it in G consecutive groups of g, and maps the
G-vector to a scalar logit. The same parameters serve all C bridgings.
That group sum is linear, so it folds into the output weights (the MLB
factorisation, Kim et al., arXiv 1610.04325): with w~ = repeat(fc3_w, g)
the B x C logits are M1 U diag(w~) V' M2' + b, with no B x C x G*g
tensor. group_sum serves only the gradient of fc3_w.

That product is contracted from whichever end costs fewer multiply-adds,
with W = G*g:
- label side, VB = M2 V (C x W), logits = (UA * w~) @ VB' + b: C*W*(D3 + B);
- image side, Q = (UA * w~) @ V' (B x D3), logits = Q @ M2' + b: B*D3*(W + C).
The backward pass follows the forward's order and costs twice as much on
either side, so one rule picks both; a tie keeps the label side. The image
side never forms a C x W array, which pays when labels outnumber the batch.

The group-summed form is algebraically the bilinear form m1' S_k m2 with
S_k the sum of outer products u_t v_t' over group k's columns; the test
suite checks that equivalence by brute force.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError


class FusionParameters:
    """Shared projection and low-rank weights for all bridgings."""

    def __init__(self, d1: int, d2_prime: int, d3: int, groups: int, group_size: int,
                 tensor):
        """Take each tensor from ``tensor(name, shape, bound)`` in the order
        below (see GcnStack). Variance-preserving uniform init (bound
        sqrt(3/fan_in), std 1/sqrt(fan_in)) with zero biases (bound None);
        keeps the Hadamard path's scale healthy so label differentiation
        survives to the logits."""
        if min(d1, d2_prime, d3, groups, group_size) < 1:
            raise ShapeError("all fusion dimensions must be >= 1")
        width = groups * group_size
        self.fc1_w = tensor("fusion.fc1_w", (d1, d3), np.sqrt(3.0 / d1))
        self.fc1_b = tensor("fusion.fc1_b", (d3,), None)
        self.fc2_w = tensor("fusion.fc2_w", (d2_prime, d3), np.sqrt(3.0 / d2_prime))
        self.fc2_b = tensor("fusion.fc2_b", (d3,), None)
        self.u_tilde = tensor("fusion.u_tilde", (d3, width), np.sqrt(3.0 / d3))
        self.v_tilde = tensor("fusion.v_tilde", (d3, width), np.sqrt(3.0 / d3))
        self.fc3_w = tensor("fusion.fc3_w", (groups,), np.sqrt(3.0 / groups))
        self.fc3_b = tensor("fusion.fc3_b", (1,), None)
        self.groups = groups
        self.group_size = group_size

    @property
    def d1(self) -> int:
        return self.fc1_w.shape[0]

    @property
    def d2_prime(self) -> int:
        return self.fc2_w.shape[0]

    @property
    def d3(self) -> int:
        return self.fc1_w.shape[1]

    def parameters(self) -> dict[str, np.ndarray]:
        return {
            "fusion.fc1_w": self.fc1_w, "fusion.fc1_b": self.fc1_b,
            "fusion.fc2_w": self.fc2_w, "fusion.fc2_b": self.fc2_b,
            "fusion.u_tilde": self.u_tilde, "fusion.v_tilde": self.v_tilde,
            "fusion.fc3_w": self.fc3_w, "fusion.fc3_b": self.fc3_b,
        }

    def set_parameters(self, arrays: dict[str, np.ndarray]) -> None:
        """Hold each tensor of ``arrays``, keyed like parameters(), instead."""
        for name in self.parameters():
            setattr(self, name.removeprefix("fusion."), arrays[name])


def group_sum(vec: np.ndarray, groups: int, group_size: int,
              out: np.ndarray | None = None) -> np.ndarray:
    """Sum a G*g vector in G consecutive groups of g elements, into ``out``
    when given. The vector's last axis must be G*g wide; it is not checked."""
    return vec.reshape(vec.shape[:-1] + (groups, group_size)).sum(axis=-1, out=out)


@dataclass
class FusionCache:
    params: FusionParameters
    feats: np.ndarray     # B x D1
    lo: np.ndarray        # C x D2'
    m1: np.ndarray        # B x D3
    m2: np.ndarray        # C x D3
    ua: np.ndarray        # B x (G*g)
    w_tilde: np.ndarray   # G*g: repeat(fc3_w, g)
    vb: np.ndarray | None  # C x (G*g), label side: logits = (ua * w~) @ vb' + b
    q: np.ndarray | None   # B x D3, image side: logits = q @ m2' + b


def image_side_first(b: int, c: int, d3: int, width: int) -> bool:
    """Whether contracting from the image side costs fewer multiply-adds
    than from the label side; a tie keeps the label side."""
    return c * width * (d3 + b) > b * d3 * (width + c)


def fusion_forward_batch(params: FusionParameters, feats: np.ndarray, lo: np.ndarray):
    """Bridge each of B image features with all C label embeddings.

    Takes B x D1 features and C x D2' embeddings as ``Network`` checked and
    built them, unchecked; returns (logits B x C, cache).
    """
    m1 = feats @ params.fc1_w + params.fc1_b
    m2 = lo @ params.fc2_w + params.fc2_b
    ua = m1 @ params.u_tilde
    w_tilde = np.repeat(params.fc3_w, params.group_size)
    uw = ua * w_tilde
    vb = q = None
    if image_side_first(len(m1), len(m2), params.d3, ua.shape[1]):
        q = uw @ params.v_tilde.T
        logits = q @ m2.T
    else:
        vb = m2 @ params.v_tilde
        logits = uw @ vb.T
    logits += params.fc3_b[0]
    cache = FusionCache(params=params, feats=feats, lo=lo, m1=m1, m2=m2, ua=ua,
                        w_tilde=w_tilde, vb=vb, q=q)
    return logits, cache


def fusion_backward_batch(cache: FusionCache, d_o: np.ndarray, out,
                          feats_grad: bool = True):
    """Gradients for all fusion parameters plus the two inputs.

    Each bias and fc3_w gradient is written into its slot of ``out`` (a
    ``model.Gradients``), and each weight's goes to ``out.product`` after
    the pass's last read of that weight; returns (dFeats B x D1, dLO
    C x D2'). Gradients from all bridgings accumulate into the shared
    parameters in fixed order. With ``feats_grad=False`` dFeats is not
    computed and comes back as None. dO is taken unchecked at the
    logits' B x C shape.
    """
    params = cache.params
    w_tilde = cache.w_tilde
    out["fusion.fc3_b"][0] = d_o.sum()
    if cache.q is not None:
        r = d_o @ cache.m2              # B x D3
        o_vb = r @ params.v_tilde       # B x (G*g)
        d_fc3_w = (cache.ua * o_vb).sum(axis=0)
        d_m2 = d_o.T @ cache.q
        out.product("fusion.v_tilde", r, cache.ua * w_tilde)
    else:
        o_vb = d_o @ cache.vb           # B x (G*g)
        o_ua = d_o.T @ cache.ua         # C x (G*g)
        d_fc3_w = (o_ua * cache.vb).sum(axis=0)
        d_vb = o_ua * w_tilde
        d_m2 = d_vb @ params.v_tilde.T
        out.product("fusion.v_tilde", cache.m2, d_vb)
    group_sum(d_fc3_w, params.groups, params.group_size, out=out["fusion.fc3_w"])
    d_ua = o_vb * w_tilde
    d_m1 = d_ua @ params.u_tilde.T
    out.product("fusion.u_tilde", cache.m1, d_ua)
    d_feats = d_m1 @ params.fc1_w.T if feats_grad else None
    out.product("fusion.fc1_w", cache.feats, d_m1)
    d_m1.sum(axis=0, out=out["fusion.fc1_b"])
    d_lo = d_m2 @ params.fc2_w.T
    out.product("fusion.fc2_w", cache.lo, d_m2)
    d_m2.sum(axis=0, out=out["fusion.fc2_b"])
    return d_feats, d_lo
