"""Workload definitions and the seeded input generator.

Every input the program reads is made here, from the workload seed, before
the measured process starts. The planted structure is the one the program's
own synthetic generator uses: labels are Bernoulli draws from per-label base
rates, then dependency edges i -> j switch label j on with a given
probability whenever label i is on; features are the sum of fixed random
unit signatures of the active labels plus Gaussian noise. Base rates, edges,
signatures, labels and noise all come from the seed, so two seeds give
inputs of one shape and different values.
"""

import json
import os
from dataclasses import dataclass, field, replace

import numpy as np

CHEST14 = ["Atelectasis", "Cardiomegaly", "Effusion", "Infiltration", "Mass",
           "Nodule", "Pneumonia", "Pneumothorax", "Consolidation", "Edema",
           "Emphysema", "Fibrosis", "Pleural_Thickening", "Hernia"]


@dataclass(frozen=True)
class Workload:
    name: str
    labels: list[str]
    n_samples: int
    feature_dim: int
    provider: str            # "precomputed", "synthetic" or "toy_mlp"
    config: dict             # TrainConfig keys besides paths, labels and seed
    rate_range: tuple[float, float]
    n_edges: int
    noise_sigma: float
    top_k: int
    auc_floor: float
    word_vectors: bool = False
    smoke: dict = field(default_factory=dict)

    @property
    def epochs(self) -> int:
        return int(self.config["epochs"])


WORKLOADS = {
    # The paper's ChestX-Ray14 shapes: 768-d precomputed features, GCN
    # 300 -> 1024 -> 768 over word vectors, d3 384, G 64, g 6, batch 32;
    # 1.98M parameters, so sgd_step and the GEMMs dominate a step.
    "paper-c14": Workload(
        name="paper-c14", labels=CHEST14, n_samples=2000, feature_dim=768,
        provider="precomputed",
        config={"d1": 768, "gcn_dims": [300, 1024, 768], "d3": 384, "G": 64,
                "g": 6, "batch_size": 32, "epochs": 2, "lr_main": 0.05,
                "lr_lce": 0.01},
        rate_range=(0.05, 0.3), n_edges=6, noise_sigma=0.3, top_k=3,
        auc_floor=0.7, word_vectors=True,
        smoke={"n_samples": 120, "epochs": 2}),
    # 256 labels on small dims: the B x C x G*g Hadamard tensor of the
    # GroupSum fusion and the per-label AUC loops dominate. Features come
    # from the program's own synthetic provider, so there is no feature file.
    "labels-c256": Workload(
        name="labels-c256", labels=[f"C{j:03d}" for j in range(256)],
        n_samples=900, feature_dim=256, provider="synthetic",
        config={"d1": 256, "gcn_dims": [64, 128, 128], "d3": 64, "G": 64,
                "g": 6, "batch_size": 8, "epochs": 2, "lr_main": 0.15,
                "lr_lce": 0.01},
        rate_range=(0.04, 0.12), n_edges=64, noise_sigma=0.1, top_k=5,
        auc_floor=0.53,
        smoke={"n_samples": 120, "epochs": 1}),
    # Many narrow samples through a tiny toy MLP backbone, GCN and fusion:
    # text parsing, per-step Python overhead and per-row report writing
    # dominate.
    "ingest-tiny": Workload(
        name="ingest-tiny", labels=[f"T{j:02d}" for j in range(14)],
        n_samples=10000, feature_dim=128, provider="toy_mlp",
        config={"d1": 32, "toy_hidden": 32, "gcn_dims": [16, 32, 16], "d3": 16,
                "G": 4, "g": 4, "batch_size": 32, "epochs": 4, "lr_main": 0.05,
                "lr_lce": 0.05},
        rate_range=(0.05, 0.3), n_edges=6, noise_sigma=0.5, top_k=3,
        auc_floor=0.7,
        smoke={"n_samples": 150, "epochs": 1}),
}


def smoke_version(workload: Workload) -> Workload:
    """The same workload at toy size, for the benchmark's own tests."""
    config = dict(workload.config, epochs=workload.smoke["epochs"])
    return replace(workload, n_samples=workload.smoke["n_samples"], config=config,
                   auc_floor=0.0)


@dataclass
class Inputs:
    """The generated config file; its contents name every other input file."""
    config_path: str
    config: dict


def generate(workload: Workload, seed: int, out_dir: str) -> Inputs:
    """Write the workload's input files for one seed into out_dir."""
    os.makedirs(out_dir, exist_ok=True)
    name_key = sum(workload.name.encode())
    rng = np.random.Generator(np.random.PCG64([seed, name_key]))
    c = len(workload.labels)
    lo, hi = workload.rate_range
    rates = rng.uniform(lo, hi, size=c)
    edges = []
    while len(edges) < workload.n_edges:
        i, j = (int(v) for v in rng.choice(c, size=2, replace=False))
        if all((a, b) != (i, j) for a, b, _ in edges):
            edges.append((i, j, round(float(rng.uniform(0.5, 0.9)), 3)))

    config = dict(workload.config, labels=workload.labels, seed=seed,
                  provider=workload.provider)
    if workload.provider == "synthetic":
        config["synth"] = {
            "num_labels": c, "feature_dim": workload.feature_dim,
            "n_samples": workload.n_samples, "edges": [list(e) for e in edges],
            "base_rates": [round(float(r), 4) for r in rates],
            "noise_sigma": workload.noise_sigma,
            "seed": int(rng.integers(2**31))}
    else:
        y = rng.random((workload.n_samples, c)) < rates
        for i, j, strength in edges:
            y[:, j] |= y[:, i] & (rng.random(workload.n_samples) < strength)
        signatures = rng.standard_normal((c, workload.feature_dim))
        signatures /= np.linalg.norm(signatures, axis=1, keepdims=True)
        x = y @ signatures + workload.noise_sigma * rng.standard_normal(
            (workload.n_samples, workload.feature_dim))
        ids = [f"img{k:06d}" for k in range(workload.n_samples)]
        config["labels_path"] = os.path.join(out_dir, "labels.csv")
        with open(config["labels_path"], "w", encoding="utf-8") as fh:
            for sid, row in zip(ids, y):
                names = [workload.labels[j] for j in np.flatnonzero(row)]
                fh.write(f"{sid},{'|'.join(names) or 'No Finding'}\n")
        config["features_path"] = os.path.join(out_dir, "features.txt")
        _write_matrix(config["features_path"], f"#dim={workload.feature_dim}\n", ids, x)
    if workload.word_vectors:
        words = sorted({w for label in workload.labels
                        for w in label.replace("_", " ").lower().split()})
        words += [f"filler{k:03d}" for k in range(200)]
        dim = int(workload.config["gcn_dims"][0])
        vectors = rng.uniform(-1.0, 1.0, size=(len(words), dim))
        config["embeddings_path"] = os.path.join(out_dir, "vectors.txt")
        _write_matrix(config["embeddings_path"], "", words, vectors)

    config_path = os.path.join(out_dir, "config.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=1)
    return Inputs(config_path=config_path, config=config)


def _write_matrix(path: str, header: str, ids: list[str], values: np.ndarray) -> None:
    """Rows of `id v1 ... vD`, values to 7 significant digits."""
    fmt = " ".join(["%.7g"] * values.shape[1])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header)
        for sid, row in zip(ids, values):
            fh.write(sid + " " + fmt % tuple(row) + "\n")
