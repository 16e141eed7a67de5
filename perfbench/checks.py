"""Output checks that rest on computations made apart from the program.

The test split, the truths and the features are read back by the benchmark's
own code from the generated inputs (for the synthetic provider, whose data
the program generates itself from the config's `synth` block, the program's
generator is the input source). The test logits are recomputed through
`load_checkpoint` -> `network_from_checkpoint` -> `predict_logits`; every
metric is then recomputed from them here: rank-sum AUC with
`scipy.stats.rankdata`, micro P/R/F1 from `logit > 0`, ROC curves from the
distinct scores, top-k order from sigmoid scores.

Each check returns a list of problems; an empty list means the outputs pass.
"""

import csv
import json
import math
import os

import numpy as np
from scipy.special import expit
from scipy.stats import rankdata

from labelbridge.backbone import SyntheticSpec, generate_synthetic_dataset
from labelbridge.training import load_checkpoint, network_from_checkpoint

TOL = 1e-9
TRAIN_OUTPUTS = ["checkpoint.bin", "metrics.csv", "config.json"]
EVAL_OUTPUTS = ["metrics.json", "roc.csv", "topk.csv"]


def split_ids(ids: list[str], ratios: list[float], seed: int) -> list[str]:
    """Test-split ids: largest-remainder sizes, then a PCG64(seed) permutation."""
    n = len(ids)
    exact = [n * r for r in ratios]
    sizes = [math.floor(e) for e in exact]
    short = n - sum(sizes)
    for k in sorted(range(3), key=lambda i: (-(exact[i] - sizes[i]), i))[:short]:
        sizes[k] += 1
    order = np.random.Generator(np.random.PCG64(seed)).permutation(n)
    return [ids[i] for i in order[sizes[0] + sizes[1]:]]


def read_inputs(config: dict):
    """(ids, truths N x C, raw features N x D) in input order."""
    labels = config["labels"]
    if config["provider"] == "synthetic":
        synth = config["synth"]
        spec = SyntheticSpec(
            num_labels=synth["num_labels"], feature_dim=synth["feature_dim"],
            n_samples=synth["n_samples"],
            dependency_edges=[tuple(e) for e in synth["edges"]],
            base_rates=synth["base_rates"], noise_sigma=synth["noise_sigma"],
            seed=synth["seed"])
        samples, records = generate_synthetic_dataset(spec)
        ids = [s.sample_id for s in samples]
        return (ids, np.stack([s.labels for s in samples]),
                np.stack([r.features for r in records]))
    index = {name: j for j, name in enumerate(labels)}
    ids, rows = [], []
    with open(config["labels_path"], "r", encoding="utf-8", newline="") as fh:
        for sid, field in csv.reader(fh):
            row = np.zeros(len(labels), dtype=np.int64)
            for token in field.split("|"):
                if token != "No Finding":
                    row[index[token]] = 1
            ids.append(sid)
            rows.append(row)
    feats = {}
    with open(config["features_path"], "r", encoding="utf-8") as fh:
        fh.readline()
        for line in fh:
            sid, _, rest = line.partition(" ")
            feats[sid] = np.array(rest.split(), dtype=np.float64)
    return ids, np.stack(rows), np.stack([feats[sid] for sid in ids])


def rank_auc(scores: np.ndarray, truth: np.ndarray):
    pos = truth == 1
    n_pos = int(pos.sum())
    n_neg = len(truth) - n_pos
    if n_pos == 0 or n_neg == 0:
        return None
    ranks = rankdata(scores)
    return (ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def check_train(out_dir: str, epochs: int) -> list[str]:
    problems = []
    with open(os.path.join(out_dir, "metrics.csv"), "r", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if [int(r["epoch"]) for r in rows] != list(range(epochs)):
        return [f"metrics.csv epochs are not 0..{epochs - 1}"]
    if not all(math.isfinite(float(r["train_loss"])) for r in rows):
        problems.append("metrics.csv has a non-finite loss")
    aucs = [float(r["val_mean_auc"]) for r in rows]
    ckpt = load_checkpoint(os.path.join(out_dir, "checkpoint.bin"))
    best = aucs.index(max(aucs))
    if ckpt.epoch != best:
        problems.append(f"checkpoint holds epoch {ckpt.epoch}, but epoch {best} "
                        f"has the highest val_mean_auc")
    return problems


def check_eval(train_dir: str, eval_dir: str, config: dict, top_k: int,
               auc_floor: float) -> tuple[list[str], float | None]:
    """Problems with the eval outputs, and the verified test mean AUC."""
    labels = config["labels"]
    ids, truths, feats = read_inputs(config)
    test_ids = split_ids(ids, config.get("ratios", [0.7, 0.1, 0.2]), config["seed"])
    row_of = {sid: k for k, sid in enumerate(ids)}
    rows = [row_of[sid] for sid in test_ids]
    y, x = truths[rows], feats[rows]
    ckpt = load_checkpoint(os.path.join(train_dir, "checkpoint.bin"))
    logits = network_from_checkpoint(ckpt).predict_logits(x)

    with open(os.path.join(eval_dir, "metrics.json"), "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    problems = []
    if doc["n_test_samples"] != len(test_ids):
        problems.append(f"n_test_samples {doc['n_test_samples']} != {len(test_ids)}")
    aucs = [rank_auc(logits[:, j], y[:, j]) for j in range(len(labels))]
    for label, auc in zip(labels, aucs):
        got = doc["per_label_auc"].get(label)
        if (got is None) != (auc is None) or (auc is not None and abs(got - auc) > TOL):
            problems.append(f"per_label_auc[{label}] is {got}, recomputed {auc}")
    defined = [a for a in aucs if a is not None]
    mean = float(np.mean(defined))
    if doc["mean_auc"] is None or abs(doc["mean_auc"] - mean) > TOL:
        problems.append(f"mean_auc is {doc['mean_auc']}, recomputed {mean}")
    if doc["undefined_labels"] != [l for l, a in zip(labels, aucs) if a is None]:
        problems.append("undefined_labels differ from the single-class labels")
    pred = logits > 0
    n_correct, n_pred, n_gold = (int((pred & (y == 1)).sum()), int(pred.sum()),
                                 int((y == 1).sum()))
    op = n_correct / n_pred if n_pred else 0.0
    or_ = n_correct / n_gold if n_gold else 0.0
    of1 = 2 * op * or_ / (op + or_) if op + or_ else 0.0
    if doc["confusion_totals"] != {"n_correct": n_correct, "n_pred": n_pred,
                                   "n_gold": n_gold}:
        problems.append(f"confusion_totals {doc['confusion_totals']} differ")
    for key, want in (("op", op), ("or", or_), ("of1", of1)):
        if abs(doc[key] - want) > TOL:
            problems.append(f"{key} is {doc[key]}, recomputed {want}")
    problems += _check_roc(os.path.join(eval_dir, "roc.csv"), labels, logits, aucs)
    problems += _check_topk(os.path.join(eval_dir, "topk.csv"), labels, logits,
                            test_ids, top_k)
    if mean < auc_floor:
        problems.append(f"test mean AUC {mean:.4f} is below the floor {auc_floor}")
    return problems, (None if problems else doc["mean_auc"])


def _check_roc(path, labels, logits, aucs) -> list[str]:
    curves: dict[str, list[tuple[float, float, float]]] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            curves.setdefault(row["label"], []).append(
                (float(row["threshold"]), float(row["fpr"]), float(row["tpr"])))
    problems = []
    expected = [l for l, a in zip(labels, aucs) if a is not None]
    if list(curves) != expected:
        return ["roc.csv labels differ from the labels with a defined AUC"]
    for j, (label, auc) in enumerate(zip(labels, aucs)):
        if auc is None:
            continue
        pts = curves[label]
        thresholds = np.unique(logits[:, j])[::-1]
        if len(pts) != len(thresholds) + 1:
            problems.append(f"roc.csv {label}: {len(pts)} rows, expected "
                            f"{len(thresholds) + 1}")
            continue
        thr, fpr, tpr = (np.array(v) for v in zip(*pts))
        if not (np.isinf(thr[0]) and fpr[0] == 0 and tpr[0] == 0
                and fpr[-1] == 1 and tpr[-1] == 1):
            problems.append(f"roc.csv {label}: curve does not run from (0,0) to (1,1)")
        if np.any(np.diff(fpr) < 0) or np.any(np.diff(tpr) < 0):
            problems.append(f"roc.csv {label}: curve decreases")
        if np.any(np.abs(thr[1:] - thresholds) > TOL * np.maximum(1, np.abs(thresholds))):
            problems.append(f"roc.csv {label}: thresholds are not the distinct scores")
        area = float(np.sum(np.diff(fpr) * (tpr[1:] + tpr[:-1]) / 2.0))
        if abs(area - auc) > TOL:
            problems.append(f"roc.csv {label}: trapezoid area {area} != AUC {auc}")
    return problems


def _check_topk(path, labels, logits, test_ids, k) -> list[str]:
    scores = expit(logits)
    with open(path, "r", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != k * len(test_ids):
        return [f"topk.csv has {len(rows)} rows, expected {k * len(test_ids)}"]
    index = {name: j for j, name in enumerate(labels)}
    for s, sid in enumerate(test_ids):
        block = rows[s * k: (s + 1) * k]
        if [r["sample_id"] for r in block] != [sid] * k or \
                [int(r["rank"]) for r in block] != list(range(1, k + 1)):
            return [f"topk.csv rows for sample {sid} are missing or out of order"]
        listed = [scores[s, index[r["label"]]] for r in block]
        top = np.sort(scores[s])[::-1][:k]
        if len({r["label"] for r in block}) != k or np.any(np.abs(np.array(listed) - top) > TOL) \
                or any(abs(float(r["score"]) - v) > TOL for r, v in zip(block, listed)):
            return [f"topk.csv sample {sid}: labels are not in descending sigmoid score"]
    return []
