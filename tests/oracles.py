"""Reference implementations that the tests compare the library against.

``average_ranks`` and ``roc_curve`` are the one-element-at-a-time tie loops
that ``labelbridge.metrics`` replaced with sorted-run numpy code, and
``auc_score`` the rank-sum AUC of one column from those ranks; the library
ranks every column with one sort and must match them exactly.
``top_k_table`` is the one-row-at-a-time sort that it replaced with one
sort along the label axis. ``roc_points`` and ``trapezoid_area`` turn a ROC
curve into an area for the AUC cross-checks.

``roc_csv`` is roc.csv's text written one row at a time, every number
formatted on its row, the form ``labelbridge.cli`` replaced with one
template per curve and one string per distinct rate; the library must
write the same text.

``bridge_one``, ``bridge_all`` and ``fusion_backward`` run the batched fusion
passes on one sample, for the per-sample accumulation checks.
``gcn_backward`` is the backward pass that recomputes EA_norm @ H^i and
always returns dW; the library's reuse-and-skip form must match it bit for
bit.

``multilabel_loss``, ``multilabel_loss_batch``, ``sigmoid`` and
``leaky_relu_grad`` are the forms the library replaced: each softplus term
and the sigmoid take their own exp, the sigmoid selects by boolean
indexing, the batch loss is ``np.mean`` and the LeakyReLU slope is built
from bool arithmetic. The library's one-exp loss and sigmoid and its slope
lookup must match them bit for bit, NaN by position.

``initial_parameters`` draws a network's parameters one by one in the
documented order, with each bound written out; ``build_network`` must draw
the same bits.

``momentum_sgd`` is one whole-tensor step of SGD with momentum, and
``scheduled_lr`` the rate of a group at an epoch; ``Sgd``'s blocked, fused
and per-group updates must end on the same bits.

``write_features`` converts the whole feature matrix to Python floats at
once, the form ``labelbridge.data`` replaced with one row at a time; the
library must write the same bytes.

``parse_pipe_labels`` and ``parse_columnar_labels`` resolve every token and
every cell on every row, the loops that ``labelbridge.data`` replaced with
one lookup per distinct field or cell; the library must return the same ids
and matrix, or raise the same message.
"""

import csv

import numpy as np

from destinations import fusion_gradients
from labelbridge import cli, metrics
from labelbridge.data import _checked_rows
from labelbridge.errors import InputError, ShapeError
from labelbridge.fusion import fusion_forward_batch
from labelbridge.jsonio import output_floats


def sigmoid(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def softplus(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def multilabel_loss(logits, labels):
    """(mean sigmoid cross-entropy over the last axis, its gradient)."""
    o = np.asarray(logits, dtype=np.float64)
    l = np.asarray(labels, dtype=np.float64)
    c = o.shape[-1]
    loss = (l * softplus(-o) + (1.0 - l) * softplus(o)).sum(axis=-1) / c
    grad = (sigmoid(o) - l) / c
    return float(loss) if loss.ndim == 0 else loss, grad


def multilabel_loss_batch(logits, labels):
    per_sample, grad = multilabel_loss(logits, labels)
    b = logits.shape[0]
    return float(np.mean(per_sample)), grad / b


def leaky_relu_grad(z: np.ndarray, alpha: float) -> np.ndarray:
    positive = z > 0
    slope = np.multiply(~positive, alpha)
    slope += positive
    return slope


def average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties averaged."""
    order = np.argsort(values, kind="mergesort")
    ranks = np.empty(len(values), dtype=np.float64)
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i: j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def auc_score(scores, labels):
    """Mann-Whitney AUC of one column from its tie-averaged ranks, or None
    when only one class is present."""
    scores = np.asarray(scores, dtype=np.float64)
    pos = np.asarray(labels) == 1
    n_pos = int(pos.sum())
    n_neg = len(pos) - n_pos
    if n_pos == 0 or n_neg == 0:
        return None
    rank_sum = average_ranks(scores)[pos].sum()
    return float((rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def roc_curve(scores, labels):
    """[threshold, fpr, tpr] rows at every distinct score, descending."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = labels == 1
    n_pos = int(pos.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise InputError("ROC curve needs both classes present")
    order = np.argsort(-scores, kind="mergesort")
    points = [[float("inf"), 0.0, 0.0]]
    tp = fp = 0
    i = 0
    while i < len(order):
        j = i
        value = scores[order[i]]
        while j + 1 < len(order) and scores[order[j + 1]] == value:
            j += 1
        block = order[i: j + 1]
        tp += int(pos[block].sum())
        fp += len(block) - int(pos[block].sum())
        points.append([float(value), fp / n_neg, tp / n_pos])
        i = j + 1
    return points


def roc_csv(curves: dict) -> str:
    """roc.csv for {label: roc_curve rows}, one row at a time."""
    lines = ["label,threshold,fpr,tpr\n"]
    for label, curve in curves.items():
        field = cli._csv_field(label)
        lines.append(f"{field},inf,0,0\n")
        for thr, fpr, tpr in output_floats(np.asarray(curve)[1:]):
            lines.append("%s,%.12g,%.12g,%.12g\n" % (field, thr, fpr, tpr))
    return "".join(lines)


def top_k_table(logits, k):
    """Per sample, the indices of the k highest sigmoid scores and those
    scores, as lists; ties break toward the lower label index."""
    scores = metrics.sigmoid(np.atleast_2d(np.asarray(logits, dtype=np.float64)))
    indices, top = [], []
    for row in scores:
        order = np.argsort(-row, kind="mergesort")[:k]
        indices.append(order.tolist())
        top.append([float(row[j]) for j in order])
    return indices, top


def roc_points(scores, labels):
    """(fpr, tpr) pairs of the library's ROC curve."""
    return [(fpr, tpr) for _, fpr, tpr in metrics.roc_curve(scores, labels).tolist()]


def trapezoid_area(points) -> float:
    area = 0.0
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        area += (x1 - x0) * (y0 + y1) / 2.0
    return area


def bridge_all(params, feat, lo):
    """Logit vector for one image feature against all C label embeddings."""
    feat = np.asarray(feat, dtype=np.float64)
    if feat.ndim != 1:
        raise ShapeError(f"bridge_all expects a feature vector, got shape {feat.shape}")
    logits, cache = fusion_forward_batch(params, feat[None, :], lo)
    return logits[0], cache


def bridge_one(params, feat, lo_j):
    """Scalar logit for one image feature and one label embedding."""
    lo_j = np.asarray(lo_j, dtype=np.float64)
    if lo_j.ndim != 1:
        raise ShapeError(f"bridge_one expects one embedding row, got shape {lo_j.shape}")
    logits, cache = bridge_all(params, feat, lo_j[None, :])
    return logits[0], cache


def fusion_backward(cache, upstream):
    """Backward for a bridge_all cache; upstream has one entry per label.

    Returns (grads dict, dFeat D1, dLO C x D2').
    """
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.ndim != 1:
        raise ShapeError(f"expected a per-label gradient vector, got {upstream.shape}")
    grads, d_feats, d_lo = fusion_gradients(cache, upstream[None, :])
    return grads, d_feats[0], d_lo


def gcn_backward(cache, upstream):
    """(theta_grads, dW) for a GCN cache, recomputing EA_norm @ H^i per layer."""
    dh = np.asarray(upstream, dtype=np.float64)
    thetas = cache.stack.thetas
    theta_grads = [None] * len(thetas)
    ea_t = cache.propagation.matrix.T
    for i in range(len(thetas) - 1, -1, -1):
        if cache.activated[i]:
            dz = dh * leaky_relu_grad(cache.zs[i], cache.stack.alpha)
        else:
            dz = dh
        propagated = cache.propagation.matrix @ cache.hs[i]
        theta_grads[i] = propagated.T @ dz
        dh = ea_t @ (dz @ thetas[i].T)
    return theta_grads, dh


def initial_parameters(config, raw_dim):
    """The parameters build_network draws for a config, keyed and ordered
    like Network.parameters() without fine-tuned embeddings.

    One generator from the first child of the config seed draws each weight
    U[-b, b] in the order GCN thetas, fusion fc1_w, fc2_w, u_tilde, v_tilde,
    fc3_w, then toy backbone w1, w2; every bias is zeros and draws nothing.
    """
    init_seq, _ = np.random.SeedSequence(config.seed).spawn(2)
    rng = np.random.Generator(np.random.PCG64(init_seq))
    alpha = config.leaky_alpha
    params = {}
    dims = config.gcn_dims
    for i in range(len(dims) - 1):
        bound = np.sqrt(6.0 / ((1.0 + alpha * alpha) * dims[i]))
        params[f"gcn.theta{i}"] = rng.uniform(-bound, bound, size=(dims[i], dims[i + 1]))
    d1, d2p, d3, groups = config.d1, dims[-1], config.d3, config.groups
    width = groups * config.group_size
    fusion = {}
    for name, fan_in, shape in [("fc1_w", d1, (d1, d3)), ("fc2_w", d2p, (d2p, d3)),
                                ("u_tilde", d3, (d3, width)), ("v_tilde", d3, (d3, width)),
                                ("fc3_w", groups, (groups,))]:
        bound = np.sqrt(3.0 / fan_in)
        fusion[name] = rng.uniform(-bound, bound, size=shape)
    params.update({
        "fusion.fc1_w": fusion["fc1_w"], "fusion.fc1_b": np.zeros(d3),
        "fusion.fc2_w": fusion["fc2_w"], "fusion.fc2_b": np.zeros(d3),
        "fusion.u_tilde": fusion["u_tilde"], "fusion.v_tilde": fusion["v_tilde"],
        "fusion.fc3_w": fusion["fc3_w"], "fusion.fc3_b": np.zeros(1),
    })
    if config.provider == "toy_mlp":
        hidden = config.toy_hidden
        hidden_gain = 2.0 / (1.0 + alpha * alpha)
        bound = np.sqrt(3.0 * hidden_gain / raw_dim)
        params["backbone.w1"] = rng.uniform(-bound, bound, size=(raw_dim, hidden))
        params["backbone.b1"] = np.zeros(hidden)
        bound = np.sqrt(3.0 / hidden)
        params["backbone.w2"] = rng.uniform(-bound, bound, size=(hidden, d1))
        params["backbone.b2"] = np.zeros(d1)
    return params


def scheduled_lr(config, group: str, epoch: int) -> float:
    base = config.lr_lce if group == "lce" else config.lr_main
    return base * config.decay_factor ** (epoch // config.decay_every)


def momentum_sgd(param, grad, buf, lr: float, config) -> None:
    """buf = m*buf + (g + wd*p); p -= lr*buf, on whole tensors, in place."""
    buf[...] = config.momentum * buf + (grad + config.weight_decay * param)
    param -= lr * buf


def write_features(ids, features, stream) -> None:
    stream.write(f"#dim={features.shape[1]}\n")
    for sample_id, row in zip(ids, features.tolist()):
        stream.write(sample_id + " " + " ".join(map(repr, row)) + "\n")


def parse_pipe_labels(stream, vocab, *, has_header=False, no_finding_token="No Finding"):
    """(ids, N x C int64 matrix), resolving every token of every row."""
    sentinel = no_finding_token.strip().lower()
    sentinel_in_vocab = vocab.index_of(no_finding_token) is not None
    reader = csv.reader(stream)
    if has_header:
        next(reader, None)
    ids, rows = [], []
    for row_no, sample_id, row in _checked_rows(reader, 2 if has_header else 1, 2):
        ids.append(sample_id)
        vec = [0] * vocab.size
        field = row[1].strip()
        if not field:
            raise InputError(f"row {row_no}: empty label field for {sample_id!r}")
        for token in field.split("|"):
            token = token.strip()
            if token.lower() == sentinel and not sentinel_in_vocab:
                continue
            j = vocab.index_of(token)
            if j is None:
                raise InputError(f"row {row_no}: unknown label token {token!r}")
            vec[j] = 1
        rows.append(vec)
    return ids, np.array(rows, dtype=np.int64).reshape(len(rows), vocab.size)


def parse_columnar_labels(stream, vocab, uncertain_value):
    """(ids, N x C int64 matrix), resolving every cell of every row;
    ``-1`` cells become ``uncertain_value``."""
    reader = csv.reader(stream)
    try:
        header = next(reader)
    except StopIteration:
        raise InputError("columnar label file is empty") from None
    if not header:
        raise InputError("columnar label file has an empty header row")
    header_norm = [h.strip().lower() for h in header]
    col_of = {}
    for j, label in enumerate(vocab.labels):
        # column 0 is the sample id, whatever its name
        cols = [k for k in range(1, len(header)) if header_norm[k] == label.lower()]
        if not cols:
            raise InputError(f"label column {label!r} missing from header")
        if len(cols) > 1:
            raise InputError(f"label column {label!r} appears {len(cols)} times in header")
        col_of[j] = cols[0]
    ids, rows = [], []
    for row_no, sample_id, row in _checked_rows(reader, 2, len(header)):
        ids.append(sample_id)
        vec = [0] * vocab.size
        for j in range(vocab.size):
            cell = row[col_of[j]].strip()
            if cell == "1":
                vec[j] = 1
            elif cell == "-1":
                vec[j] = uncertain_value
            elif cell not in ("0", ""):
                raise InputError(f"row {row_no}, column {vocab.labels[j]!r}: "
                                 f"bad cell value {cell!r}")
        rows.append(vec)
    return ids, np.array(rows, dtype=np.int64).reshape(len(rows), vocab.size)
