"""Multi-label loss, SGD with momentum and per-module learning rates,
network assembly, the training run, and binary checkpointing.

The loss is the per-label mean of sigmoid cross-entropies, computed in
softplus form so it stays finite for logits up to 1e4 in magnitude, from
one exp per logit that also gives the gradient's sigmoid. The
GCN (and the word-embedding matrix when fine-tuned) trains at its own
learning rate; fusion and backbone weights share the main rate. Both
rates decay by a fixed factor on a fixed epoch schedule. An ``Sgd`` keeps its
parameters and their momentum buffers in one flat array each. Each weight
of at least one cache-sized block is updated inside the backward pass, as
its gradient arrives: the gradient is computed one row block at a time and
each block updates at once (LOMO's fused update, Lv et al., arXiv
2306.09782), so it is never whole. Every smaller tensor has a slot in a
flat gradient array, and after the backward pass ``sgd_step`` runs over
those slots as one array per rate group, in cache-sized blocks. Both are
bit for bit a whole-tensor update of each parameter.

``build_network`` alone turns a config, the conditional co-occurrence
matrix P, the label embeddings W and the parameters into a ``Network``:
each module takes its tensors, at the config's shapes, from a source that
draws them from the config seed or reads and checks them from a
``Checkpoint``. A ``Run`` holds a training run's whole state; ``train``
makes one, calls its ``epoch()`` once per epoch and returns its
``result()``, a ``TrainResult``: the best epoch's ``Checkpoint`` plus the
live network and history. ``save_checkpoint`` writes a checkpoint and
``load_checkpoint`` reads it back. The file is a one-line JSON header
naming tensors and shapes, floats printed exactly, then each tensor's raw
little-endian float64 payload in header order: the label embeddings,
``graph.P`` and the model parameters, each once. EA_norm is rebuilt from P
and the echoed epsilon, delta and reweight axis as in training, so reloads
reproduce forward outputs bit-identically. The reader skips the
``graph.A``, ``graph.EA``, ``graph.EA_norm`` and ``opt.*`` tensors of
older checkpoints, and header keys it does not read.
"""

import json
import math
import os
import types
import typing
from dataclasses import dataclass, field, fields

import numpy as np

from .backbone import SyntheticSpec, ToyMlp
from .data import DEFAULT_NO_FINDING, Dataset, LabelVocabulary, UncertainPolicy
from .errors import InputError, NumericalError, ShapeError
from .fusion import FusionParameters
from .gcn import GcnStack
from .graph import REWEIGHT_AXES, graph_from_conditional
from .jsonio import atomic_write, dumps_json
from .metrics import mean_val_auc, sigmoid_of
from .model import Gradients, Network

CHECKPOINT_FORMAT = "labelbridge-checkpoint"
CHECKPOINT_VERSION = 1


def multilabel_loss(logits, labels):
    """Mean sigmoid cross-entropy over labels; returns (loss, dLoss/dO).

    loss = -(1/C) sum_j [ L_j log s(O_j) + (1 - L_j) log(1 - s(O_j)) ]
    with gradient (s(O_j) - L_j) / C.

    One e = exp(-|O|) serves the whole step: each softplus term is
    softplus(±O) = max(±O, 0) + log1p(e), and s(O) is ``sigmoid_of(O, e)``.
    """
    o = np.asarray(logits, dtype=np.float64)
    l = np.asarray(labels, dtype=np.float64)
    if o.shape != l.shape:
        raise ShapeError(f"logits {o.shape} and labels {l.shape} differ")
    c = o.shape[-1]
    e = np.exp(-np.abs(o))
    log1p_e = np.log1p(e)
    # L * softplus(-O) + (1 - L) * softplus(O), built in place: as one
    # expression it took 11.7 against 11.1 us at 32 x 14 and 61 against 51 us
    # at 32 x 256 (median of 3,000 interleaved calls, 2-core Xeon)
    terms = np.maximum(-o, 0.0)
    terms += log1p_e
    terms *= l
    negative = np.maximum(o, 0.0)
    negative += log1p_e
    negative *= 1.0 - l
    terms += negative
    loss = terms.sum(axis=-1) / c
    grad = sigmoid_of(o, e)
    grad -= l
    grad /= c
    return float(loss) if loss.ndim == 0 else loss, grad


def multilabel_loss_batch(logits: np.ndarray, labels: np.ndarray):
    """Batch mean of multilabel_loss over B x C logits; gradient is scaled
    by 1/B."""
    if np.ndim(logits) != 2:
        raise ShapeError(f"batch logits must be B x C, got shape {np.shape(logits)}")
    per_sample, grad = multilabel_loss(logits, labels)
    b = logits.shape[0]
    grad /= b
    # B per-sample losses summed, then divided by B: the bits of np.mean
    return float(per_sample.sum() / b), grad


def _json_matches(value, annotation) -> bool:
    """Whether a JSON value fits a field annotation; ints pass as floats,
    bools never pass as numbers, and tuples are fixed-length JSON arrays."""
    origin, args = typing.get_origin(annotation), typing.get_args(annotation)
    if origin in (typing.Union, types.UnionType):
        return any(_json_matches(value, a) for a in args)
    if origin is list:
        return isinstance(value, list) and all(_json_matches(v, args[0]) for v in value)
    if origin is tuple:
        return (isinstance(value, list) and len(value) == len(args)
                and all(_json_matches(v, a) for v, a in zip(value, args)))
    if annotation in (int, float) and isinstance(value, bool):
        return False
    if annotation is float:
        return isinstance(value, (int, float))
    if annotation is type(None):
        return value is None
    return isinstance(value, annotation)


def typed_kwargs(raw: dict, cls, where: str) -> dict:
    """Map a JSON object's keys to ``cls`` field names through ``cls._KEY_MAP``,
    checking each value against the field's annotation; raises InputError
    naming a bad key, or both keys when two of them name one field."""
    annotations = {f.name: f.type for f in fields(cls)}
    kwargs = {}
    key_of = {}
    for key, value in raw.items():
        name = cls._KEY_MAP.get(key, key)
        if name not in annotations:
            raise InputError(f"unknown {where} key {key!r}")
        if name in key_of:
            raise InputError(f"{where} keys {key_of[name]!r} and {key!r} "
                             f"both set {name!r}")
        key_of[name] = key
        annotation = annotations[name]
        if not _json_matches(value, annotation):
            expected = (annotation.__name__ if isinstance(annotation, type)
                        else str(annotation))
            raise InputError(f"{where} key {key!r} must be {expected}, got {value!r}")
        kwargs[name] = value
    return kwargs


def json_dict(obj) -> dict:
    """A config dataclass as a JSON object in field order, the inverse of
    ``typed_kwargs``: each field under its ``_KEY_MAP`` key, else its name."""
    key = {name: k for k, name in obj._KEY_MAP.items()}
    return {key.get(f.name, f.name): getattr(obj, f.name) for f in fields(obj)}


def _flag(default, help: str, flags: tuple = (), choices: tuple = ()):
    """A config field with a CLI flag: its help text, its flag names where
    they differ from the field name, and the only values it may take."""
    metadata = {"help": help, "flags": flags, "choices": choices}
    if isinstance(default, list):
        return field(default_factory=lambda: list(default), metadata=metadata)
    return field(default=default, metadata=metadata)


@dataclass
class TrainConfig:
    """Every knob of the pipeline, with its documented default.

    This is the one table of knobs: the CLI generates a flag, its help and
    its "(default: ...)" text from each field carrying ``_flag`` metadata.
    """

    epsilon: float = _flag(0.3, "binarization threshold")
    delta: float = _flag(0.2, "neighbor mass in reweighting")
    groups: int = _flag(64, "GroupSum groups G", flags=("num-groups",))
    group_size: int = _flag(6, "elements per group g")
    d3: int = _flag(384, "shared projection dim")
    gcn_dims: list[int] = _flag([300, 1024, 768], "comma dims chain")
    d1: int = _flag(768, "image feature dim")
    epochs: int = _flag(30, "training epochs")
    batch_size: int = _flag(32, "minibatch size")
    seed: int = _flag(0, "run seed")
    lr_lce: float = _flag(0.01, "GCN learning rate")
    lr_main: float = _flag(0.001, "fusion/backbone learning rate")
    momentum: float = _flag(0.9, "SGD momentum")
    weight_decay: float = _flag(5e-5, "weight decay")
    decay_every: int = _flag(10, "epochs between LR decays")
    decay_factor: float = _flag(0.1, "LR decay factor")
    uncertain_policy: str = _flag(UncertainPolicy.AS_POSITIVE.value, "mapping for -1 cells",
                                  choices=tuple(p.value for p in UncertainPolicy))
    provider: str = _flag("precomputed", "feature provider",
                          choices=("precomputed", "synthetic", "toy_mlp"))
    dataset_format: str = _flag("pipe", "label file format", choices=("pipe", "columnar"))
    pipe_has_header: bool = _flag(False, "pipe label file has a header row",
                                  flags=("pipe-header",))
    no_finding_token: str = _flag(DEFAULT_NO_FINDING, "all-zero sentinel")
    ratios: list[float] = _flag([0.7, 0.1, 0.2], "train,val,test ratios")
    reweight_axis: str = _flag("row", "reweighting denominator axis",
                               choices=REWEIGHT_AXES)
    graph_include_val: bool = _flag(False, "include validation split in graph statistics")
    gcn_final_linear: bool = _flag(False, "disable the last GCN activation")
    fine_tune_embeddings: bool = _flag(False, "train the word-embedding matrix")
    leaky_alpha: float = _flag(0.2, "LeakyReLU slope")
    toy_hidden: int = _flag(64, "toy MLP hidden width")
    labels: list[str] | None = None
    labels_path: str | None = _flag(None, "label CSV path")
    features_path: str | None = _flag(None, "feature file path")
    embeddings_path: str | None = _flag(None, "word-vector file; omit for synthetic embeddings",
                                        flags=("embeddings-path", "embeddings"))
    oov_fallback: bool = _flag(False, "synthesize vectors for out-of-vocabulary words")
    synth: dict | None = None

    _KEY_MAP = {"G": "groups", "g": "group_size"}

    @classmethod
    def from_dict(cls, raw: dict) -> "TrainConfig":
        config = cls(**typed_kwargs(raw, cls, "config"))
        config.validate()
        return config

    def to_dict(self) -> dict:
        return json_dict(self)

    def validate(self) -> None:
        if not 0.0 <= self.epsilon <= 1.0:
            raise InputError(f"epsilon must be in [0, 1], got {self.epsilon}")
        if not 0.0 <= self.delta < 1.0:
            raise InputError(f"delta must be in [0, 1), got {self.delta}")
        for name in ("groups", "group_size", "d3", "d1", "epochs", "batch_size",
                     "decay_every", "toy_hidden"):
            if int(getattr(self, name)) < 1:
                raise InputError(f"{name} must be >= 1, got {getattr(self, name)}")
        if len(self.gcn_dims) < 2 or any(int(d) < 1 for d in self.gcn_dims):
            raise InputError(f"gcn_dims must chain >= 2 positive dims, got {self.gcn_dims}")
        for name in ("lr_lce", "lr_main"):
            if getattr(self, name) <= 0:
                raise InputError(f"{name} must be > 0")
        if not 0.0 <= self.momentum < 1.0:
            raise InputError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.weight_decay < 0:
            raise InputError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if not 0.0 < self.decay_factor <= 1.0:
            raise InputError(f"decay_factor must be in (0, 1], got {self.decay_factor}")
        if self.leaky_alpha <= 0:
            raise InputError(f"leaky_alpha must be > 0, got {self.leaky_alpha}")
        if self.seed < 0:
            raise InputError(f"seed must be >= 0, got {self.seed}")
        if not self.no_finding_token.strip() or "|" in self.no_finding_token:
            raise InputError("no_finding_token must be non-blank without '|', "
                             f"got {self.no_finding_token!r}")
        for f in fields(self):
            value = getattr(self, f.name)
            choices = f.metadata.get("choices")
            if choices and value not in choices:
                raise InputError(f"{f.name} must be one of {choices}, got {value!r}")
            # every comparison with NaN is false, so the range checks let it by
            if f.type in (float, list[float]) and not np.isfinite(value).all():
                raise InputError(f"{f.name} must be finite, got {value!r}")
        if len(self.ratios) != 3 or any(r <= 0 for r in self.ratios):
            raise InputError(f"ratios must be 3 positive numbers, got {self.ratios}")
        if abs(sum(self.ratios) - 1.0) > 1e-9:
            raise InputError(f"ratios must sum to 1, got {self.ratios}")
        if self.synth is not None:
            typed_kwargs(self.synth, SyntheticSpec, "synth")


# sgd_step updates each array in slices of this many elements, so each
# slice's param, grad, buffer and temporaries (about 1 MB of float64)
# stay in a 2 MB per-core L2 cache through every pass of the update; a
# weight of at least this many elements is fused by ``Sgd``. A step
# at paper shapes (1.98M parameters) on a 2-core Xeon with 2 MB L2 per core
# took 10.2/8.6/8.9/10.0 ms with blocks of 2^13/2^15/2^16/2^17, and 17.7 ms
# on whole tensors. Over one flat array per rate group, in 60 interleaved
# calls per size, the minima were 6.85/5.91/5.31/5.40/6.12/7.62 ms for
# 2^13 to 2^18.
_SGD_BLOCK = 1 << 15


def _update(p, g, buf, t, config: TrainConfig, lr: float) -> None:
    """buf = m*buf + (g + wd*p); p -= lr*buf, in place on one block, with
    the config's momentum and weight decay, each intermediate written into
    ``t``, an array of the block's shape."""
    np.multiply(p, config.weight_decay, out=t)
    np.add(g, t, out=t)
    buf *= config.momentum
    buf += t
    np.multiply(buf, lr, out=t)
    p -= t


def _block_rows(cols: int) -> int:
    """Rows per block of a fused weight with ``cols`` columns: a block's
    worth, and at least two, as numpy takes a one-row product through
    gemv, whose sums differ from gemm's."""
    return max(2, _SGD_BLOCK // cols)


class Sgd(Gradients):
    """SGD with momentum over the tensors it is built from, as the
    ``Gradients`` of their backward passes: buf = m*buf + (g + wd*p);
    p -= lr*buf, at ``lr`` of the tensor's group for epoch ``epoch``.

    It copies the tensors into one flat float64 array, ``arena``, of which
    ``params`` holds a view per tensor, in the given order; ``momentum``
    has the same layout. Every 2-D tensor but ``embeddings.W`` of at least
    ``_SGD_BLOCK`` elements is fused: it has no gradient slot, and
    ``product`` applies its gradient a.T @ b as its update at once, for
    ``_block_rows`` rows at a time (a one-row tail joins the block before
    it). A row block of a.T @ b runs the whole product's sums over a's
    rows, so each element is bit for bit as in "write the whole gradient,
    then update". The other tensors come first in both arrays, the ``lce``
    group's before ``main``'s, and their gradient slots are views of a
    third array in the same order, so ``segments`` holds each group's
    (group, parameters, gradients, momentum), which ``sgd_step`` updates;
    the fused weights follow in the given order. Every intermediate of
    both updates goes into the one ``scratch`` array."""

    def __init__(self, params: dict[str, np.ndarray], config: TrainConfig):
        fused = [name for name, arr in params.items() if arr.ndim == 2
                 and arr.size >= _SGD_BLOCK and name != "embeddings.W"]
        slots = {name: params[name] for name in sorted(
            (name for name in params if name not in fused),
            key=lambda name: Network.lr_group(name) != "lce")}
        layout = {**slots, **{name: params[name] for name in fused}}
        self.arena, self.momentum = (
            np.zeros(sum(arr.size for arr in params.values())) for _ in range(2))
        grads = np.zeros(sum(arr.size for arr in slots.values()))
        super().__init__(_views(grads, slots))
        views, momentum = _views(self.arena, layout), _views(self.momentum, layout)
        self.params = {name: views[name] for name in params}
        for name, view in self.params.items():
            view[...] = params[name]
        self.fused = {name: (views[name], momentum[name]) for name in fused}
        lce = sum(arr.size for name, arr in slots.items() if Network.lr_group(name) == "lce")
        self.segments = [(group, self.arena[i:j], grads[i:j], self.momentum[i:j])
                         for group, i, j in (("lce", 0, lce), ("main", lce, grads.size))]
        self.config, self.epoch = config, 0
        # a fused block's gradient and the update's intermediates, or one
        # sgd_step slice's intermediates
        block = max(((_block_rows(p.shape[1]) + 1) * p.shape[1]
                     for p, _ in self.fused.values()), default=0)
        self.scratch = np.empty(max(2 * block, _SGD_BLOCK))

    def lr(self, group: str) -> float:
        """The ``lce`` or ``main`` rate at epoch ``epoch``."""
        c = self.config
        base = c.lr_lce if group == "lce" else c.lr_main
        return base * c.decay_factor ** (self.epoch // c.decay_every)

    def product(self, name: str, a: np.ndarray, b: np.ndarray) -> None:
        if name not in self.fused:
            # the base class's one line, inline: calling it took 0.1 us more,
            # and super() 0.25 us, on every weight of an unfused step
            np.matmul(a.T, b, out=self[name])
            return
        param, buf = self.fused[name]
        lr = self.lr(Network.lr_group(name))
        n = len(param)
        starts = list(range(0, n, _block_rows(param.shape[1])))
        if n - starts[-1] == 1 and len(starts) > 1:
            starts.pop()  # the one-row tail joins the block before it
        for i, j in zip(starts, starts[1:] + [n]):
            p = param[i:j]
            g = self.scratch[:p.size].reshape(p.shape)
            t = self.scratch[p.size:2 * p.size].reshape(p.shape)
            np.matmul(a[:, i:j].T, b, out=g)
            _update(p, g, buf[i:j], t, self.config, lr)


def sgd_step(sgd: Sgd) -> None:
    """Update every tensor of ``sgd`` that has a gradient slot from it:
    each of ``sgd.segments`` in ``_SGD_BLOCK``-element slices, each element
    by the same operations in the same order, so bit for bit as a
    whole-array update and as one update per tensor."""
    for group, param, grad, buf in sgd.segments:
        lr = sgd.lr(group)
        for i in range(0, param.size, _SGD_BLOCK):
            p = param[i:i + _SGD_BLOCK]
            _update(p, grad[i:i + _SGD_BLOCK], buf[i:i + _SGD_BLOCK],
                    sgd.scratch[:p.size], sgd.config, lr)


@dataclass
class DataBundle:
    vocab: LabelVocabulary
    train_samples: Dataset
    val_samples: Dataset


@dataclass
class Checkpoint:
    """A trained model as saved: label names, config, best epoch, its
    validation AUC, and ``embeddings.W``, ``graph.P`` and the parameters."""

    labels: list[str]
    config: TrainConfig
    epoch: int
    best_val_auc: float | None
    tensors: dict[str, np.ndarray]

    def tensor(self, name: str, shape: tuple | None = None) -> np.ndarray:
        """The named tensor itself, not a copy; InputError when it is missing,
        ShapeError naming it when ``shape`` is given and differs."""
        if name not in self.tensors:
            raise InputError(f"checkpoint lacks tensor {name!r}")
        arr = self.tensors[name]
        if shape is not None and arr.shape != shape:
            raise ShapeError(f"checkpoint tensor {name!r} has shape {arr.shape}, "
                             f"expected {shape}")
        return arr


@dataclass
class TrainResult(Checkpoint):
    """A run's checkpoint over its live network, and its per-epoch history."""

    network: Network
    history: list[dict]


def draw_tensors(rng: np.random.Generator):
    """A tensor source that draws each weight U[-bound, bound] from ``rng``,
    in call order, and makes each bias (bound None) zeros."""
    def tensor(name: str, shape: tuple, bound) -> np.ndarray:
        if bound is None:
            return np.zeros(shape)
        return rng.uniform(-bound, bound, size=shape)
    return tensor


def build_network(config: TrainConfig, p: np.ndarray, w: np.ndarray, num_labels: int,
                  raw_input_dim: int | None = None,
                  ckpt: Checkpoint | None = None) -> Network:
    """The network a config describes over the graph that P gives under its
    thresholds, with its own copy of W as the GCN's input (a fine-tuned W
    is updated in place; the caller's array stays as given). Each module
    takes every tensor by name, at the shape the config gives, from one
    source: ``ckpt``, or else ``draw_tensors`` over one generator seeded by
    the config (order GCN -> fusion -> backbone). A toy_mlp backbone's input
    dim is ``raw_input_dim`` when drawn and ``backbone.w1``'s when loaded.
    Checks, in order: P and W against the label count and the config, each
    loaded tensor's shape, and ``raw_input_dim``, when given, against the
    network's input dim."""
    c = config
    if p.shape != (num_labels, num_labels):
        raise ShapeError(f"graph.P has shape {p.shape} but there are {num_labels} labels")
    w = np.array(w, dtype=np.float64)
    if w.shape != (num_labels, c.gcn_dims[0]):
        raise ShapeError(f"embeddings.W has shape {w.shape}, expected "
                         f"({num_labels}, {c.gcn_dims[0]}) for gcn_dims {c.gcn_dims}")
    if ckpt is None:
        init_seq, _ = np.random.SeedSequence(c.seed).spawn(2)
        tensor = draw_tensors(np.random.Generator(np.random.PCG64(init_seq)))
        toy_input_dim = raw_input_dim
    else:
        tensor = lambda name, shape, bound: ckpt.tensor(name, shape)
        # w1's first dim, at least 1; a missing, 0-d or empty w1 fails its check
        w1_shape = getattr(ckpt.tensors.get("backbone.w1"), "shape", ())
        toy_input_dim = max(w1_shape[:1] + (1,))
    stack = GcnStack([int(d) for d in c.gcn_dims], tensor, alpha=c.leaky_alpha,
                     final_linear=c.gcn_final_linear)
    fusion = FusionParameters(c.d1, stack.dims[-1], c.d3, c.groups, c.group_size, tensor)
    backbone = (ToyMlp(toy_input_dim, c.toy_hidden, c.d1, tensor, alpha=c.leaky_alpha)
                if c.provider == "toy_mlp" else None)
    ea_norm = graph_from_conditional(p, c.epsilon, c.delta, c.reweight_axis)["EA_norm"]
    network = Network(stack, fusion, w, ea_norm, backbone=backbone,
                      fine_tune_embeddings=c.fine_tune_embeddings)
    if raw_input_dim is not None and raw_input_dim != network.feature_dim:
        raise ShapeError(f"feature dim {raw_input_dim} does not match the "
                         f"network's input dim {network.feature_dim}")
    return network


def _first_non_finite(logits: np.ndarray, params: dict[str, np.ndarray]) -> str:
    """Name the first of the logits, then each parameter in order, that
    holds a non-finite value; called only after a loss or logit check fails."""
    for name, arr in {"logits": logits, **params}.items():
        if not np.isfinite(arr).all():
            return f"first non-finite tensor: {name}"
    return "logits and parameters are finite"


class Run:
    """A training run's whole state: the network and its ``params``, the
    optimizer ``sgd``, the shuffle generator, ``history`` and the best
    epoch so far. Parameter init and the per-epoch shuffles come from
    independent child streams of the config seed, so a run is
    deterministic given it. ``params`` are ``sgd``'s views into its flat
    parameter array ``arena``, in ``Network.parameters()`` order, and the
    network's modules hold them. ``best_params`` holds the best epoch's
    tensors by name, in the arrays the parameters were drawn into (before
    the first epoch, the draw itself), so a run allocates no fourth
    parameter-sized array."""

    def __init__(self, config: TrainConfig, data: DataBundle, p: np.ndarray,
                 w: np.ndarray):
        if not len(data.train_samples):
            raise InputError("the train split is empty")
        self.config, self.data, self.p = config, data, p
        # the loss takes float labels; convert them once, not once per batch
        self.train_labels = np.asarray(data.train_samples.labels, dtype=np.float64)
        self.network = build_network(config, p, w, data.vocab.size,
                                     data.train_samples.features.shape[1])
        # the drawn tensors, kept to hold the best epoch's parameters: a
        # fresh array in their place would not reuse their freed pages
        self.best_params = self.network.parameters()
        self.sgd = Sgd(self.best_params, config)
        self.arena, self.params = self.sgd.arena, self.sgd.params
        self.network.set_parameters(self.params)
        _, shuffle_seq = np.random.SeedSequence(config.seed).spawn(2)
        self.shuffle_rng = np.random.Generator(np.random.PCG64(shuffle_seq))
        self.history: list[dict] = []
        self.best_epoch = self.best_val_auc = None

    def epoch(self) -> None:
        """Train epoch ``len(history)``, append its history row, and keep its
        parameters if it is the best so far: the first strictly best
        validation AUC, or without one the latest epoch."""
        epoch = len(self.history)
        network, params, sgd = self.network, self.params, self.sgd
        x_train, y_train = self.data.train_samples.features, self.train_labels
        n, batch_size = len(x_train), self.config.batch_size
        order = self.shuffle_rng.permutation(n)
        epoch_loss = 0.0
        sgd.epoch = epoch
        # a diverging run overflows in the GEMMs long before the loss check
        # reports it as one NumericalError; keep numpy's warnings out of stderr
        with np.errstate(over="ignore", invalid="ignore"):
            for batch_index, start in enumerate(range(0, n, batch_size)):
                idx = order[start: start + batch_size]
                logits, cache = network.forward_batch(x_train[idx])
                loss, d_logits = multilabel_loss_batch(logits, y_train[idx])
                if not math.isfinite(loss):
                    raise NumericalError(
                        f"non-finite loss at epoch {epoch}, batch {batch_index}; "
                        f"{_first_non_finite(logits, params)} "
                        f"(lr_lce={sgd.lr('lce')}, lr_main={sgd.lr('main')})")
                network.backward_batch(cache, d_logits, sgd)
                sgd_step(sgd)
                network.note_update()
                epoch_loss += loss * len(idx)
            epoch_loss /= n

            # without a validation split, the epoch's last batch, predicted
            # again, shows whether the last step diverged
            val = self.data.val_samples
            logits = network.predict_logits(val.features if len(val) else x_train[idx])
            if not np.isfinite(logits).all():
                raise NumericalError(
                    f"non-finite {'validation' if len(val) else 'last-batch'} logits "
                    f"at epoch {epoch}; {_first_non_finite(logits, params)}")
            val_auc = mean_val_auc(logits, val.labels) if len(val) else None
        self.history.append({"epoch": epoch, "train_loss": epoch_loss,
                             "val_mean_auc": val_auc})
        # no best yet has no AUC either, so the first epoch is always kept
        if self.best_val_auc is None or (val_auc is not None
                                         and val_auc > self.best_val_auc):
            self.best_epoch, self.best_val_auc = epoch, val_auc
            # copied in place: a new copy per best epoch would hold two at once
            for name, view in self.params.items():
                self.best_params[name][...] = view

    def result(self) -> TrainResult:
        """Restore the best epoch's parameters into the live network and
        return its checkpoint, the network and the history. Before any
        epoch there is none, and the parameters are left as they are."""
        if self.best_epoch is None:
            raise RuntimeError("no epoch trained yet, so no best epoch to restore")
        for name, view in self.params.items():
            view[...] = self.best_params[name]
        self.network.note_update()
        # a fine-tuned embeddings.W is also a parameter; it keeps the first slot
        return TrainResult(labels=self.data.vocab.labels, config=self.config,
                           epoch=self.best_epoch, best_val_auc=self.best_val_auc,
                           tensors={"embeddings.W": self.network.w, "graph.P": self.p,
                                    **self.params},
                           network=self.network, history=self.history)


def _views(arena: np.ndarray, like: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """One view into ``arena`` per tensor of ``like``, at its shape, laid
    end to end in its order."""
    views, offset = {}, 0
    for name, arr in like.items():
        views[name] = arena[offset:offset + arr.size].reshape(arr.shape)
        offset += arr.size
    return views


def train(config: TrainConfig, data: DataBundle, p: np.ndarray,
          w: np.ndarray) -> TrainResult:
    """Train ``config.epochs`` epochs over W, the C x D label embeddings;
    the result holds the best-validation state (see ``Run``)."""
    run = Run(config, data, p, w)
    for _ in range(config.epochs):
        run.epoch()
    return run.result()


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    header = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "labels": ckpt.labels,
        "config": ckpt.config.to_dict(),
        "epoch": ckpt.epoch,
        "best_val_auc": ckpt.best_val_auc,
        "tensors": [{"name": k, "shape": list(v.shape)}
                    for k, v in ckpt.tensors.items()],
    }
    with atomic_write(path, "wb") as fh:
        # exact floats: the reader rebuilds EA_norm from the echoed thresholds
        fh.write(dumps_json(header, "%r").encode("utf-8"))
        fh.write(b"\n")
        for arr in ckpt.tensors.values():
            fh.write(np.ascontiguousarray(arr, dtype="<f8"))


_HEADER_TYPES = {"tensors": list[dict], "labels": list[str], "config": dict,
                 "epoch": int, "best_val_auc": float | None}


def _check_header(header: dict, path) -> None:
    for key, annotation in _HEADER_TYPES.items():
        if key not in header or not _json_matches(header[key], annotation):
            raise InputError(f"checkpoint header in {path} lacks a valid {key!r}")
    for entry in header["tensors"]:
        shape = entry.get("shape")
        if not (isinstance(entry.get("name"), str) and _json_matches(shape, list[int])
                and all(s >= 0 for s in shape)):
            raise InputError(f"checkpoint header in {path} has a tensor entry "
                             f"without a valid name and shape")


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fh:
        header_line = fh.readline()
        # one writable buffer; the tensors are views into it, not copies
        payload = bytearray(os.fstat(fh.fileno()).st_size - fh.tell())
        del payload[fh.readinto(payload):]
    try:
        header = json.loads(header_line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        raise InputError(f"corrupt checkpoint header in {path}") from None
    if not isinstance(header, dict):
        raise InputError(f"corrupt checkpoint header in {path}")
    if header.get("format") != CHECKPOINT_FORMAT:
        raise InputError(f"{path} is not a checkpoint file")
    if header.get("version") != CHECKPOINT_VERSION:
        raise InputError(f"checkpoint version {header.get('version')} unsupported "
                         f"(expected {CHECKPOINT_VERSION})")
    _check_header(header, path)
    tensors: dict[str, np.ndarray] = {}
    offset = 0
    for entry in header["tensors"]:
        if entry["name"] in tensors:
            raise InputError(f"checkpoint header in {path} names tensor "
                             f"{entry['name']!r} twice")
        shape = tuple(int(s) for s in entry["shape"])
        size = math.prod(shape)
        nbytes = size * 8
        if offset + nbytes > len(payload):
            raise InputError(f"truncated checkpoint payload in {path}")
        tensors[entry["name"]] = np.frombuffer(
            payload, dtype="<f8", count=size, offset=offset).reshape(shape)
        offset += nbytes
    if offset != len(payload):
        raise InputError(f"checkpoint payload length mismatch in {path}")
    config = TrainConfig.from_dict(header["config"])
    return Checkpoint(labels=header["labels"], config=config, epoch=header["epoch"],
                      best_val_auc=header["best_val_auc"], tensors=tensors)


def network_from_checkpoint(ckpt: Checkpoint,
                            raw_input_dim: int | None = None) -> Network:
    """Rebuild a forward-ready network from checkpoint tensors; see ``build_network``."""
    return build_network(ckpt.config, ckpt.tensor("graph.P"),
                         ckpt.tensor("embeddings.W"), len(ckpt.labels),
                         raw_input_dim, ckpt)
