"""The full network: optional MLP backbone -> GCN label embeddings ->
bilinear fusion logits, with a single named-parameter view for the
optimizer and checkpointing.

Parameter groups follow the two learning-rate regimes: GCN weights (and
the word-embedding matrix when fine-tuned) form the "lce" group; fusion
and backbone weights form the "main" group.

Every backward pass writes its parameter gradients into a ``Gradients``:
each bias, ``fusion.fc3_w`` and ``embeddings.W`` into its slot, and each
other weight's gradient, a product ``a.T @ b``, through
``Gradients.product``, after the pass's last read of that weight.

Only ``Network`` checks what enters a pass: the features' and the logit
gradient's shapes, and that a cache is from after the last ``note_update()``.
"""

import numpy as np

from .backbone import ToyMlp
from .errors import ShapeError, StaleCacheError
from .fusion import FusionParameters, fusion_backward_batch, fusion_forward_batch
from .gcn import GcnStack, Propagation, gcn_backward, gcn_forward


class Gradients(dict):
    """Where a backward pass puts each parameter gradient: every name maps
    to its slot, an array of the parameter's shape. A weight's gradient
    ``a.T @ b`` comes through ``product``, which writes it into the slot;
    a training run's subclass applies a large weight's gradient as its SGD
    update instead, so that weight needs no slot."""

    def product(self, name: str, a: np.ndarray, b: np.ndarray) -> None:
        """Take weight ``name``'s gradient ``a.T @ b``. Each backward pass
        calls this after its last read of the weight, which may then
        change."""
        np.matmul(a.T, b, out=self[name])


class Network:
    def __init__(self, stack: GcnStack, fusion: FusionParameters, w: np.ndarray,
                 ea_norm: np.ndarray, backbone: ToyMlp | None = None,
                 fine_tune_embeddings: bool = False):
        w = np.asarray(w, dtype=np.float64)
        ea_norm = np.asarray(ea_norm, dtype=np.float64)
        if w.shape[0] != ea_norm.shape[0]:
            raise ShapeError(f"W has {w.shape[0]} rows but the graph has "
                             f"{ea_norm.shape[0]} nodes")
        if stack.dims[-1] != fusion.d2_prime:
            raise ShapeError(f"GCN output dim {stack.dims[-1]} does not match "
                             f"fusion label-embedding dim {fusion.d2_prime}")
        if backbone is not None and backbone.d_out != fusion.d1:
            raise ShapeError(f"backbone output dim {backbone.d_out} does not match "
                             f"fusion feature dim {fusion.d1}")
        self.stack = stack
        self.fusion = fusion
        self.w = w
        self.propagation = Propagation(ea_norm)
        self.backbone = backbone
        self.fine_tune_embeddings = fine_tune_embeddings
        # layer 0's EA_norm @ W, kept from the last forward pass while W is
        # frozen and dropped by any pass that trains W
        self._first: np.ndarray | None = None
        self.version = 0

    @property
    def feature_dim(self) -> int:
        return self.backbone.d_in if self.backbone is not None else self.fusion.d1

    def parameters(self) -> dict[str, np.ndarray]:
        """Trainable tensors in fixed order; this order is the contract for
        optimizer state and checkpoint payloads."""
        params: dict[str, np.ndarray] = {}
        if self.fine_tune_embeddings:
            params["embeddings.W"] = self.w
        params.update(self.stack.parameters())
        params.update(self.fusion.parameters())
        if self.backbone is not None:
            params.update(self.backbone.parameters())
        return params

    def set_parameters(self, arrays: dict[str, np.ndarray]) -> None:
        """Hold each tensor of ``arrays``, keyed like parameters(), instead:
        a training run's views into its flat parameter array."""
        if self.fine_tune_embeddings:
            self.w = arrays["embeddings.W"]
        self.stack.set_parameters(arrays)
        self.fusion.set_parameters(arrays)
        if self.backbone is not None:
            self.backbone.set_parameters(arrays)

    @staticmethod
    def lr_group(name: str) -> str:
        return "lce" if name.startswith(("gcn.", "embeddings.")) else "main"

    def note_update(self) -> None:
        self.version += 1

    def forward_batch(self, x_raw: np.ndarray):
        """Logits for B x feature_dim raw inputs; returns (B x C logits, cache)."""
        x_raw = np.asarray(x_raw, dtype=np.float64)
        if x_raw.ndim != 2 or x_raw.shape[1] != self.feature_dim:
            raise ShapeError(f"features are {x_raw.shape}, expected (B, {self.feature_dim})")
        if self.backbone is not None:
            feats, bb_cache = self.backbone.forward_batch(x_raw)
        else:
            feats, bb_cache = x_raw, None
        frozen = not self.fine_tune_embeddings
        lo, gcn_cache = gcn_forward(self.stack, self.w, self.propagation,
                                    first=self._first if frozen else None)
        self._first = gcn_cache.ps[0] if frozen else None
        logits, fusion_cache = fusion_forward_batch(self.fusion, feats, lo)
        return logits, {"backbone": bb_cache, "gcn": gcn_cache, "fusion": fusion_cache,
                        "version": self.version}

    def backward_batch(self, cache: dict, d_logits: np.ndarray, out: Gradients) -> None:
        """Hand the gradient of every trainable parameter to ``out``: into
        its slot, or, for a weight, through ``out.product``. Each layer's
        pass reads a weight only before handing over its gradient, so a
        run's ``out`` may update each weight as its gradient arrives. Nothing
        reaches ``out`` unless the cache is fresh and ``d_logits`` its B x C."""
        if cache["version"] != self.version:
            raise StaleCacheError("parameters changed since this cache's forward pass")
        expected = (len(cache["fusion"].feats), len(cache["fusion"].lo))
        if d_logits.shape != expected:
            raise ShapeError(f"logit gradient is {d_logits.shape}, expected {expected}")
        d_feats, d_lo = fusion_backward_batch(cache["fusion"], d_logits, out,
                                              feats_grad=self.backbone is not None)
        gcn_backward(cache["gcn"], d_lo, out, input_grad=self.fine_tune_embeddings)
        if self.backbone is not None:
            self.backbone.backward_batch(cache["backbone"], d_feats, out)

    def predict_logits(self, x_raw: np.ndarray) -> np.ndarray:
        """Forward-only logits for all rows in one pass."""
        return self.forward_batch(x_raw)[0]
