"""A planted-structure data generator and a small trainable backbone.

Real backbones are out of scope: a Dataset's N x D feature matrix comes from
a file of precomputed vectors or from the synthetic generator below, and
either feeds the model directly or passes through a small trainable MLP for
end-to-end gradient flow.

The synthetic generator plants a known dependency structure: labels are
drawn from per-label base rates, then each dependency edge (i -> j,
strength) forces label j on with the given probability whenever label i
is on. Features are the sum of fixed random unit signature vectors of the
active labels plus Gaussian noise, so the label graph and the classifier
have recoverable ground truth.
"""

from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .errors import InputError
from .gcn import leaky_relu, leaky_relu_grad


@dataclass
class LabeledSample:
    sample_id: str
    labels: np.ndarray  # binary vector of length C


@dataclass
class FeatureRecord:
    sample_id: str
    features: np.ndarray


@dataclass(kw_only=True)
class SyntheticSpec:
    """The generator's settings, and the one table of them: each field with
    ``help`` metadata is a ``synth`` command flag, and each field a key of a
    config's ``synth`` block. Left out there, ``feature_dim`` is ``d1``, the
    seed is the run seed, and ``num_labels`` the ``--labels`` count if any."""

    # JSON key -> field; the key is also the field's flag
    _KEY_MAP = {"edges": "dependency_edges"}

    num_labels: int = field(default=8, metadata={"help": "number of labels"})
    feature_dim: int = field(metadata={"help": "feature dimension (default: d1)"})
    n_samples: int = field(default=1000, metadata={"help": "samples to generate"})
    dependency_edges: list[tuple[int, int, float]] = field(default_factory=list, metadata={
        "help": "dependency edges i:j:strength, comma separated", "flags": tuple(_KEY_MAP)})
    base_rates: list[float] | None = field(
        default=None, metadata={"help": "comma-separated per-label base rates"})
    noise_sigma: float = field(default=0.0, metadata={"help": "feature noise scale"})
    seed: int = 0

    def validate(self) -> None:
        if self.num_labels < 2:
            raise InputError(f"synthetic spec needs >= 2 labels, got {self.num_labels}")
        if self.feature_dim < 1 or self.n_samples < 1:
            raise InputError("synthetic spec needs feature_dim >= 1 and n_samples >= 1")
        if self.seed < 0:
            raise InputError(f"synthetic spec seed must be >= 0, got {self.seed}")
        if not (np.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise InputError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")
        rates = self.rates()
        if len(rates) != self.num_labels:
            raise InputError(f"expected {self.num_labels} base rates, got {len(rates)}")
        for r in rates:
            if not 0.0 <= r <= 1.0:
                raise InputError(f"base rate {r} out of [0, 1]")
        for i, j, strength in self.dependency_edges:
            if not (0 <= i < self.num_labels and 0 <= j < self.num_labels) or i == j:
                raise InputError(f"bad dependency edge ({i} -> {j})")
            if not 0.0 <= strength <= 1.0:
                raise InputError(f"edge strength {strength} out of [0, 1]")

    def rates(self) -> list[float]:
        if self.base_rates is None:
            return [0.3] * self.num_labels
        return [float(r) for r in self.base_rates]


def generate_synthetic_dataset(spec: SyntheticSpec, rows=None):
    """Returns (samples, feature records) drawn deterministically from the spec:
    every sample's, or only those at the indices ``rows``, in that order.

    Per sample: base Bernoulli draws, then one pass over the edges in listed
    order (so chains propagate in that order), then signature sum plus noise.
    A sample outside ``rows`` still takes its draws, so every kept sample
    has the bits it has in the whole dataset, but its features are never
    formed.
    """
    spec.validate()
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    signatures = rng.standard_normal((spec.num_labels, spec.feature_dim))
    signatures /= np.linalg.norm(signatures, axis=1, keepdims=True)
    rates = np.array(spec.rates())
    rows = (list(range(spec.n_samples)) if rows is None
            else np.asarray(rows, dtype=np.int64).tolist())
    if rows and not 0 <= min(rows) <= max(rows) < spec.n_samples:
        raise InputError(f"sample rows must lie in [0, {spec.n_samples})")
    kept = dict.fromkeys(rows)
    for idx in range(spec.n_samples):
        drawn = rng.random(spec.num_labels) < rates
        # the edge loop reads a Python list: far faster than numpy scalars
        on = drawn.tolist()
        for i, j, strength in spec.dependency_edges:
            if on[i] and not on[j] and rng.random() < strength:
                on[j] = drawn[j] = True
        noise = rng.standard_normal(spec.feature_dim)
        if idx not in kept:
            continue
        feat = signatures.T @ drawn.astype(np.float64)
        feat = feat + spec.noise_sigma * noise
        sample_id = f"s{idx:05d}"
        kept[idx] = (LabeledSample(sample_id, drawn.astype(np.int64)),
                     FeatureRecord(sample_id, feat))
    pairs = [kept[idx] for idx in rows]
    return [s for s, _ in pairs], [r for _, r in pairs]


def to_dataset(samples: list[LabeledSample], records: list[FeatureRecord]) -> Dataset:
    """generate_synthetic_dataset's per-sample output as one Dataset."""
    # np.array copies equal-length rows faster than np.stack
    return Dataset([s.sample_id for s in samples],
                   np.array([s.labels for s in samples], dtype=np.int64),
                   np.array([r.features for r in records], dtype=np.float64))


class ToyMlp:
    """One-hidden-layer MLP backbone: input -> LeakyReLU hidden -> linear out."""

    def __init__(self, d_in: int, d_hidden: int, d_out: int, tensor, alpha: float = 0.2):
        """Take each tensor from ``tensor(name, shape, bound)`` in the order below:
        gain-corrected uniform weights (see GcnStack), zero biases."""
        hidden_gain = 2.0 / (1.0 + alpha * alpha)
        self.w1 = tensor("backbone.w1", (d_in, d_hidden), np.sqrt(3.0 * hidden_gain / d_in))
        self.b1 = tensor("backbone.b1", (d_hidden,), None)
        self.w2 = tensor("backbone.w2", (d_hidden, d_out), np.sqrt(3.0 / d_hidden))
        self.b2 = tensor("backbone.b2", (d_out,), None)
        self.alpha = alpha

    @property
    def d_in(self) -> int:
        return self.w1.shape[0]

    @property
    def d_out(self) -> int:
        return self.w2.shape[1]

    def parameters(self) -> dict[str, np.ndarray]:
        return {"backbone.w1": self.w1, "backbone.b1": self.b1,
                "backbone.w2": self.w2, "backbone.b2": self.b2}

    def set_parameters(self, arrays: dict[str, np.ndarray]) -> None:
        """Hold each tensor of ``arrays``, keyed like parameters(), instead."""
        for name in self.parameters():
            setattr(self, name.removeprefix("backbone."), arrays[name])

    def forward_batch(self, x: np.ndarray):
        """(outputs, cache) for B x d_in float64 inputs, checked by ``Network``."""
        z = x @ self.w1 + self.b1
        h = leaky_relu(z, self.alpha)
        y = h @ self.w2 + self.b2
        return y, {"x": x, "z": z, "h": h}

    def backward_batch(self, cache: dict, dy: np.ndarray, out) -> None:
        """Hand each parameter gradient to ``out`` (a ``model.Gradients``):
        each bias into its slot, each weight through ``out.product`` once
        dY @ w2' is taken, so no weight is read after. The MLP is the
        network's first layer, so no input gradient is computed. dY is
        taken unchecked at the outputs' B x d_out shape."""
        dh = dy @ self.w2.T
        dz = dh * leaky_relu_grad(cache["z"], self.alpha)
        out.product("backbone.w1", cache["x"], dz)
        dz.sum(axis=0, out=out["backbone.b1"])
        out.product("backbone.w2", cache["h"], dy)
        dy.sum(axis=0, out=out["backbone.b2"])
