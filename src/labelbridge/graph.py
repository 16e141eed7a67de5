"""Label co-occurrence statistics and the correlation-graph pipeline.

From an N x C 0/1 label matrix we count pairwise label occurrences,
T_pair, whose diagonal is the single-label counts T, then derive:

* ``P``: conditional probabilities, P[i, j] = P(label i | label j),
* ``A``: binarized adjacency, keeping only P[i, j] > epsilon,
* ``EA``: reweighted adjacency with diagonal 1 - delta and total mass
  delta spread uniformly over each node's retained neighbors,
* ``EA_norm``: row-stochastic normalization of EA, the propagation
  matrix consumed by the GCN.

The reweighting denominator runs over the ROW's retained off-diagonal
entries by default, which makes every connected row sum to exactly 1;
a column variant is available for comparison.
"""

import numpy as np

from .errors import InputError

REWEIGHT_AXES = ("row", "col")


def count_cooccurrence(labels: np.ndarray, num_labels: int) -> np.ndarray:
    """The C x C int64 pair counts T_ij over the rows of an N x C 0/1 label
    matrix; the diagonal is the single counts T_j."""
    mat = np.asarray(labels)
    if len(mat) == 0:
        raise InputError("cannot count co-occurrence over an empty sample list")
    if mat.shape[1] != num_labels:
        raise InputError(f"label vectors have length {mat.shape[1]}, expected {num_labels}")
    # numpy multiplies int64 matrices without BLAS. A float64 GEMM gives the
    # same integers: each count is at most n, and float64 sums of 0/1
    # products are exact while n < 2**53.
    as_float = mat.astype(np.float64)
    return (as_float.T @ as_float).astype(np.int64)


def conditional_matrix(pair: np.ndarray) -> np.ndarray:
    """P[i, j] = T_ij / T_j, with zero columns where T_j = 0."""
    t = np.diag(pair).astype(np.float64)
    p = np.zeros_like(pair, dtype=np.float64)
    nonzero = t > 0
    p[:, nonzero] = pair[:, nonzero] / t[nonzero]
    return p


def binarize(p: np.ndarray, epsilon: float) -> np.ndarray:
    """Threshold P strictly: keep entry only when P[i, j] > epsilon.

    Diagonal entries with any occurrences (P[i, i] = 1) are kept for every
    epsilon; the reweighting step overrides the diagonal anyway.
    """
    if not 0.0 <= epsilon <= 1.0:
        raise InputError(f"epsilon must be in [0, 1], got {epsilon}")
    a = (p > epsilon).astype(np.int64)
    diag = np.diag(p) > 0
    a[np.diag_indices_from(a)] = diag.astype(np.int64)
    return a


def reweight(a: np.ndarray, delta: float, axis: str = "row") -> np.ndarray:
    """Distribute mass delta over each node's retained neighbors.

    EA[i, i] = 1 - delta; off-diagonal EA[i, j] = delta * A[i, j] / k where
    k is the number of retained off-diagonal entries in row i (axis="row",
    default) or column j (axis="col"); rows/columns with no retained
    neighbors get all-zero off-diagonals.
    """
    if not 0.0 <= delta < 1.0:
        raise InputError(f"delta must be in [0, 1), got {delta}")
    if axis not in REWEIGHT_AXES:
        raise InputError(f"reweight axis must be one of {REWEIGHT_AXES}, got {axis!r}")
    a = np.asarray(a, dtype=np.float64)
    off = a.copy()
    np.fill_diagonal(off, 0.0)
    if axis == "row":
        denom = off.sum(axis=1, keepdims=True)
    else:
        denom = off.sum(axis=0, keepdims=True)
    ea = np.divide(delta * off, denom, out=np.zeros_like(off), where=denom > 0)
    np.fill_diagonal(ea, 1.0 - delta)
    return ea


def normalize(ea: np.ndarray) -> np.ndarray:
    """Row-stochastic normalization; all-zero rows stay zero."""
    ea = np.asarray(ea, dtype=np.float64)
    if np.any(ea < 0):
        raise InputError("normalize expects a nonnegative matrix")
    sums = ea.sum(axis=1, keepdims=True)
    return np.divide(ea, sums, out=np.zeros_like(ea), where=sums > 0)


def graph_from_conditional(p: np.ndarray, epsilon: float, delta: float,
                           reweight_axis: str = "row") -> dict:
    """Binarize, reweight and normalize P into ``{"P", "A", "EA", "EA_norm"}``;
    checkpoints rebuild EA_norm here."""
    a = binarize(p, epsilon)
    ea = reweight(a, delta, axis=reweight_axis)
    return {"P": p, "A": a, "EA": ea, "EA_norm": normalize(ea)}


def build_correlation_graph(pair: np.ndarray, epsilon: float, delta: float,
                            reweight_axis: str = "row") -> dict:
    """The graph document's fields in file order: T, T_pair, P, A, EA,
    EA_norm, epsilon and delta."""
    graph = graph_from_conditional(conditional_matrix(pair), epsilon, delta,
                                   reweight_axis=reweight_axis)
    return {"T": np.diag(pair), "T_pair": pair, **graph,
            "epsilon": float(epsilon), "delta": float(delta)}
