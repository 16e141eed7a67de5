"""Stacked graph convolution over the normalized correlation matrix.

Each layer computes H' = LeakyReLU(EA_norm @ H @ theta); the stack maps
the C x D2 word-embedding matrix to the C x D2' per-label classifier
embedding matrix. Backward passes are exact reverse-mode gradients,
verified against finite differences in the test suite.

The ML-GCN reweighting makes EA_norm a diagonal d plus the retained edges
B, and those edges often touch only a few rows and columns. So every
product with EA_norm or its transpose takes one of two forms:

* dense: ``EA_norm @ H``, C * C * D multiply-adds;
* compact: ``d[:, None] * H``, then ``B_c @ H[cols]`` added into ``rows``,
  where ``B_c`` is B's dense rows x cols block; the transpose uses
  ``B_c.T`` and adds into ``cols``. That is (C + r * c) * D multiply-adds.

``compact_pays`` picks the form from the shapes alone: compact only when it
saves more than ``_COMPACT_FLOOR`` multiply-adds. At C = 14 no graph can
save that much, so the paper's shapes always take the dense product. The
two forms agree to rounding, not bit for bit.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError


# Neither function below uses np.where, whose select is slow on the mixed
# signs of a layer's pre-activations. On a 2-core Xeon, over 256 x 128
# arrays of fresh random signs, np.where(z > 0, 1.0, alpha) took 239 us per
# call (min of 21 x 256 calls) and the slope lookup below 78 us; over
# 32 x 32 arrays, 10.6 and 5.8 us.


def leaky_relu(z: np.ndarray, alpha: float) -> np.ndarray:
    # for alpha > 0 the larger (alpha <= 1) or smaller (alpha > 1) of z and
    # alpha*z is bit for bit what np.where(z > 0, z, alpha*z) selects, signed
    # zeros, infinities and NaNs included
    return (np.maximum if alpha <= 1 else np.minimum)(z, alpha * z)


def leaky_relu_grad(z: np.ndarray, alpha: float) -> np.ndarray:
    # the slope looked up in [alpha, 1] by z > 0, in one take call: bit for
    # bit np.where(z > 0, 1.0, alpha); the subgradient at exactly 0 is alpha
    return np.array([alpha, 1.0]).take(z > 0)


class GcnStack:
    """Ordered layer weights theta_i with a dims chain [D2, d1, ..., D2'],
    and one LeakyReLU slope that every layer uses."""

    def __init__(self, dims: list[int], tensor, alpha: float = 0.2,
                 final_linear: bool = False):
        """Take each theta_i from ``tensor(name, shape, bound)``, which
        draws it U[-bound, bound] or loads it at that shape.

        bound = sqrt(6 / ((1 + alpha^2) * d_in)) is the LeakyReLU-gain
        variant of Kaiming-uniform; plain 1/sqrt(d_in) bounds shrink
        activations by ~2.5x per layer and stall training at small scale.
        """
        if len(dims) < 2:
            raise ShapeError("GCN stack needs at least one layer")
        self.thetas = [
            tensor(f"gcn.theta{i}", (d_in, d_out),
                   np.sqrt(6.0 / ((1.0 + alpha * alpha) * d_in)))
            for i, (d_in, d_out) in enumerate(zip(dims, dims[1:]))]
        self.alpha = alpha
        self.final_linear = final_linear

    @property
    def dims(self) -> list[int]:
        return [self.thetas[0].shape[0]] + [t.shape[1] for t in self.thetas]

    def parameters(self) -> dict[str, np.ndarray]:
        return {f"gcn.theta{i}": t for i, t in enumerate(self.thetas)}

    def set_parameters(self, arrays: dict[str, np.ndarray]) -> None:
        """Hold each tensor of ``arrays``, keyed like parameters(), instead."""
        self.thetas = [arrays[name] for name in self.parameters()]


# A compact product must save more multiply-adds than this over the dense
# one; below it, the gather, the scatter and the extra calls cost more than
# they save. At C = 14 the most any graph saves, 14 * 14 * 1024 for a
# 1024-wide H, is about 2e5.
_COMPACT_FLOOR = 1 << 20


def compact_pays(c: int, rows: int, cols: int, width: int) -> bool:
    """Whether a product of C x C EA_norm with a C x width matrix saves
    more than the floor in compact form, given a rows x cols block."""
    return (c * c - c - rows * cols) * width > _COMPACT_FLOOR


class Propagation:
    """EA_norm, split once into its diagonal and the dense block of its
    off-diagonal entries; each product takes the form ``compact_pays``
    picks for its width."""

    def __init__(self, ea_norm: np.ndarray):
        ea_norm = np.asarray(ea_norm, dtype=np.float64)
        if ea_norm.ndim != 2 or ea_norm.shape[0] != ea_norm.shape[1]:
            raise ShapeError(f"propagation matrix is {ea_norm.shape}, expected square")
        self.matrix = ea_norm
        off = ea_norm.copy()
        np.fill_diagonal(off, 0.0)
        self.diag = np.diag(ea_norm)[:, None].copy()
        self.rows = np.flatnonzero(off.any(axis=1))
        self.cols = np.flatnonzero(off.any(axis=0))
        self.block = off[np.ix_(self.rows, self.cols)]

    def compact(self, width: int) -> bool:
        return compact_pays(len(self.matrix), len(self.rows), len(self.cols), width)

    def apply(self, h: np.ndarray) -> np.ndarray:
        """EA_norm @ h."""
        if not self.compact(h.shape[1]):
            return self.matrix @ h
        out = self.diag * h
        out[self.rows] += self.block @ h[self.cols]
        return out

    def apply_transpose(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """EA_norm.T @ x, written into ``out`` when given."""
        if not self.compact(x.shape[1]):
            return np.matmul(self.matrix.T, x, out=out)
        out = np.multiply(self.diag, x, out=out)
        out[self.cols] += self.block.T @ x[self.rows]
        return out


@dataclass
class GcnCache:
    stack: GcnStack
    propagation: Propagation
    hs: list[np.ndarray] = field(default_factory=list)   # H^0 .. H^L
    ps: list[np.ndarray] = field(default_factory=list)   # EA_norm @ H^i per layer
    zs: list[np.ndarray] = field(default_factory=list)   # pre-activations per layer
    activated: list[bool] = field(default_factory=list)


def gcn_forward(stack: GcnStack, w: np.ndarray, propagation: Propagation,
                first: np.ndarray | None = None):
    """Propagate W through the stack; returns (LO, cache).

    ``propagation`` is EA_norm, split once. Shapes are unchecked: ``Network``
    passes the C x D2 float64 W and C x C EA_norm ``build_network`` checked.
    ``first``, when given, is layer 0's EA_norm @ W from an earlier pass
    over the same W and EA_norm, and is used instead of recomputing it.
    """
    cache = GcnCache(stack=stack, propagation=propagation)
    h = w
    cache.hs.append(h)
    last = len(stack.thetas) - 1
    for i, theta in enumerate(stack.thetas):
        ph = first if i == 0 and first is not None else propagation.apply(h)
        z = ph @ theta
        activate = not (stack.final_linear and i == last)
        h = leaky_relu(z, stack.alpha) if activate else z
        cache.ps.append(ph)
        cache.zs.append(z)
        cache.activated.append(activate)
        cache.hs.append(h)
    return h, cache


def gcn_backward(cache: GcnCache, dh: np.ndarray, out, input_grad: bool = True) -> None:
    """Exact gradients of the forward map, handed to ``out`` (a
    ``model.Gradients``).

    Each theta_i's gradient goes to ``out.product`` as (EA_norm @ H^i,
    dZ^i), reusing the forward pass's EA_norm @ H^i, after the pass's one
    read of theta_i, dZ^i @ theta_i'. With ``input_grad`` dW is written
    into ``out["embeddings.W"]``; with ``input_grad=False`` it is neither
    computed nor written, and theta_0 is not read. dLO, ``dh``, is taken
    unchecked at LO's shape.
    """
    stack = cache.stack
    for i in range(len(stack.thetas) - 1, -1, -1):
        if cache.activated[i]:
            dz = dh * leaky_relu_grad(cache.zs[i], stack.alpha)
        else:
            dz = dh
        if i > 0 or input_grad:
            dh = cache.propagation.apply_transpose(
                dz @ stack.thetas[i].T, out=out["embeddings.W"] if i == 0 else None)
        out.product(f"gcn.theta{i}", cache.ps[i], dz)


def dims_for_depth(base_dims: list[int], depth: int) -> list[int]:
    """Dims chain for a given layer count, repeating the hidden width.

    [300, 1024, 768] at depth 3 becomes [300, 1024, 1024, 768].
    """
    if depth < 1:
        raise ShapeError(f"depth must be >= 1, got {depth}")
    if len(base_dims) < 3:
        raise ShapeError(f"base dims need [in, hidden, out], got {base_dims}")
    hidden = base_dims[1]
    return [base_dims[0]] + [hidden] * (depth - 1) + [base_dims[-1]]
