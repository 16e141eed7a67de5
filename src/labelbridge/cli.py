"""Command-line entry point: synth, build-graph, train, eval, sweep, report.

Every command but eval and report reads an optional ``--config`` JSON file
whose keys match TrainConfig, and whose ``synth`` block's keys match
SyntheticSpec. Each table's fields define their flags and help, and a
command takes only the flags it reads (train and sweep take them all).
Explicit flags override file values under either key spelling, and the
effective config is echoed into every output (as a ``config_echo`` field
or a sibling ``.config.json`` file; synth echoes the resolved spec). No
output contains timestamps, so identical inputs give byte-identical files.

Exit codes: 0 ok, 2 input/parse error, 3 shape/compatibility error,
4 numerical failure.
"""

import argparse
import contextlib
import json
import os
import sys
import typing
import warnings
from dataclasses import MISSING, fields, replace

import numpy as np

from . import __version__
from .backbone import SyntheticSpec, generate_synthetic_dataset, to_dataset
from .data import (Dataset, LabelVocabulary, UncertainPolicy, load_features,
                   parse_columnar_labels, parse_pipe_labels, split_dataset,
                   write_features, write_pipe_labels)
from .embeddings import embed_labels, load_word_vectors, synthetic_embeddings
from .errors import InputError, NumericalError, ShapeError, ToolkitError
from .gcn import dims_for_depth
from .graph import build_correlation_graph, conditional_matrix, count_cooccurrence
from .jsonio import atomic_write, dump_json, format_float, output_floats
from .metrics import build_report, mean_val_auc, top_k_table
from .training import (DataBundle, TrainConfig, json_dict, load_checkpoint,
                       network_from_checkpoint, save_checkpoint, train, typed_kwargs)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        try:
            return args.func(args)
        except FileNotFoundError as exc:
            print(f"error: file not found: {exc.filename or exc}", file=sys.stderr)
            return 2
        except OSError as exc:
            print(f"error: {exc.filename}: {exc.strerror}" if exc.filename
                  else f"error: {exc}", file=sys.stderr)
            return 2
        except json.JSONDecodeError as exc:
            print(f"error: bad JSON input: {exc}", file=sys.stderr)
            return 2
        except ToolkitError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return exc.exit_code


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    """A warning as one stderr line, worded like the CLI's own warnings,
    without the source location and line that Python's default adds."""
    print(f"warning: {message}", file=sys.stderr)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="labelbridge",
        description="Multi-label classification with label co-occurrence graphs, "
                    "GCN label embeddings, and GroupSum bilinear fusion.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a planted-structure synthetic dataset")
    _add_config_flags(p, "seed", "d1", "no_finding_token")
    p.add_argument("--out-dir", required=True)
    _add_flags(p, SyntheticSpec)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("build-graph", help="compute co-occurrence statistics and "
                                           "the correlation graph from a label file")
    _add_config_flags(p, "labels_path", "dataset_format", "pipe_has_header",
                      "no_finding_token", "uncertain_policy", "epsilon", "delta",
                      "reweight_axis")
    p.add_argument("--out", required=True, help="output graph JSON path")
    p.set_defaults(func=cmd_build_graph)

    p = sub.add_parser("train", help="train a model end to end")
    _add_config_flags(p)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on the test split")
    _add_eval_flags(sub_parser=p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("report", help="eval plus co-occurrence matrix and top-k tables")
    _add_eval_flags(sub_parser=p)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("sweep", help="train once per hyperparameter value and "
                                     "tabulate test mean AUC")
    _add_config_flags(p)
    p.add_argument("--axis", required=True,
                   choices=["epsilon", "delta", "groupsum", "gcn_depth"])
    p.add_argument("--values", required=True,
                   help="comma-separated values; groupsum uses GxN pairs like 64x6")
    p.add_argument("--out", required=True, help="output sweep CSV path")
    p.set_defaults(func=cmd_sweep)
    return parser


def _add_config_flags(p: argparse.ArgumentParser, *names: str) -> None:
    """--config, the vocabulary flags and the flags of the named TrainConfig
    fields; with no name, every field's flag and --synthetic-embeddings."""
    p.add_argument("--config", help="JSON config file; flags override its values")
    _add_flags(p, TrainConfig, names)
    p.add_argument("--labels", help="comma-separated label vocabulary")
    p.add_argument("--vocab-file", help="file with one label name per line")
    if not names:
        p.add_argument("--synthetic-embeddings", action="store_true", default=False,
                       help="force synthetic label embeddings even if the config "
                            "names a word-vector file")


def _add_flags(p: argparse.ArgumentParser, cls, names=()) -> None:
    """One flag per field of ``cls`` that carries help metadata."""
    for f in _flag_fields(cls, names):
        kwargs = {"dest": f.name, "help": f.metadata["help"] + _default_text(f)}
        if f.type is bool:
            kwargs["action"] = argparse.BooleanOptionalAction
        elif f.type in (int, float):
            kwargs["type"] = f.type
        if f.metadata.get("choices"):
            kwargs["choices"] = f.metadata["choices"]
        p.add_argument(*_flags(f), **kwargs)


def _flag_fields(cls, names=()):
    """The fields of ``cls`` that have a command-line flag; only those in
    ``names``, if any are given."""
    return [f for f in fields(cls)
            if "help" in f.metadata and (not names or f.name in names)]


def _flags(f) -> list[str]:
    return ["--" + name for name in f.metadata.get("flags") or [f.name.replace("_", "-")]]


def _default_text(f) -> str:
    """' (default: X)' for a field's help; empty for no default, None or []."""
    if f.default is MISSING and f.default_factory is MISSING:
        return ""
    default = f.default_factory() if f.default is MISSING else f.default
    return "" if default is None or default == [] else f" (default: {_render(default)})"


def _render(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, list):
        return ",".join(_render(v) for v in value)
    if isinstance(value, float):
        mantissa, _, exponent = repr(value).partition("e")
        return f"{mantissa}e{int(exponent)}" if exponent else mantissa
    return str(value)


def _add_eval_flags(sub_parser: argparse.ArgumentParser) -> None:
    sub_parser.add_argument("--checkpoint", required=True)
    sub_parser.add_argument("--out-dir", required=True)
    sub_parser.add_argument("--labels-path", help="override the checkpoint's label file")
    sub_parser.add_argument("--features-path", help="override the checkpoint's features")
    sub_parser.add_argument("--labels", help="expected vocabulary; must match checkpoint")
    sub_parser.add_argument("--top-k", type=int, default=None,
                            help="emit a top-k prediction table (default: report only)")


def build_config(args) -> TrainConfig:
    """Effective config = defaults <- config file <- explicit flags."""
    raw: dict = {}
    if args.config:
        with _open_input(args.config) as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise InputError("config file must contain a JSON object")
    _set_flags(raw, args, TrainConfig)
    if getattr(args, "synthetic_embeddings", False):
        raw["embeddings_path"] = None
    labels = _vocab_from_args(args)
    if labels is not None:
        raw["labels"] = labels
    return TrainConfig.from_dict(raw)


def _vocab_from_args(args):
    if getattr(args, "labels", None):
        return [t.strip() for t in args.labels.split(",") if t.strip()]
    if getattr(args, "vocab_file", None):
        with _open_input(args.vocab_file) as fh:
            return [line.strip() for line in fh if line.strip()]
    return None


@contextlib.contextmanager
def _open_input(path, **kwargs):
    """Open a UTF-8 text input, skipping a leading byte-order mark; a byte
    that is not UTF-8 is an InputError naming the path."""
    with open(path, "r", encoding="utf-8-sig", **kwargs) as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise InputError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _set_flags(raw: dict, args, cls) -> None:
    """Write each flag of ``cls`` that was given (a command may lack it) into
    the JSON object ``raw``, over the key the object used for that field (its
    name or its ``_KEY_MAP`` key), so the flag wins either way."""
    json_key = {name: key for key, name in cls._KEY_MAP.items()}
    for f in _flag_fields(cls):
        item_type, value = _item_type(f.type), getattr(args, f.name, None)
        if value is not None:
            raw[f.name if f.name in raw else json_key.get(f.name, f.name)] = (
                value if item_type is None else _parse_list(value, item_type, f))


def _item_type(annotation):
    """X for a ``list[X]`` or ``list[X] | None`` annotation, else None."""
    for option in (annotation, *typing.get_args(annotation)):
        if typing.get_origin(option) is list:
            return typing.get_args(option)[0]
    return None


def _parse_list(text: str, item_type, f) -> list:
    """A list flag's comma-separated items; a ``tuple[...]`` item is a JSON
    array of its colon-separated pieces, such as ``i:j:strength``."""
    def parse(item: str):
        if typing.get_origin(item_type) is tuple:   # a wrong piece count fails zip
            return [kind(piece) for kind, piece in
                    zip(typing.get_args(item_type), item.split(":"), strict=True)]
        return item_type(item)
    try:
        return [parse(t) for t in text.split(",") if t.strip()]
    except ValueError:
        raise InputError(f"bad {_flags(f)[0]} value {text!r}; "
                         f"expected {f.metadata['help']}") from None


def _synthesize(config: TrainConfig) -> tuple[SyntheticSpec, LabelVocabulary, Dataset]:
    """The config's synth block as a spec over the defaults the config gives
    (the --labels count, d1 and the seed), with its vocabulary and dataset."""
    derived = {"feature_dim": config.d1, "seed": config.seed}
    if config.labels:
        derived["num_labels"] = len(config.labels)
    spec = SyntheticSpec(**derived | typed_kwargs(config.synth or {}, SyntheticSpec,
                                                  "synth"))
    spec.validate()
    if config.labels and len(config.labels) != spec.num_labels:
        raise InputError(f"{len(config.labels)} label names given for "
                         f"{spec.num_labels} synthetic labels")
    vocab = LabelVocabulary(config.labels or
                            [f"L{j:02d}" for j in range(spec.num_labels)])
    return spec, vocab, to_dataset(*generate_synthetic_dataset(spec))


def assemble_dataset(config: TrainConfig, *parts: str
                     ) -> tuple[LabelVocabulary, list[Dataset]]:
    """The vocabulary and one Dataset per named split ("train", "val" or
    "test") of the config's data. The split is made from the label rows; a
    feature file is then read once, converting only the parts' rows, and
    each part is a slice of that one matrix."""
    use_synth = config.provider == "synthetic" or (
        config.provider == "toy_mlp" and config.features_path is None
        and config.synth is not None)
    if use_synth:
        _, vocab, dataset = _synthesize(config)
        return vocab, [dataset.take(r) for r in _split_rows(config, len(dataset), parts)]
    if config.labels is None:
        raise InputError("a label vocabulary is required (labels / --labels / "
                         "--vocab-file)")
    vocab = LabelVocabulary(config.labels)
    if config.labels_path is None:
        raise InputError("labels_path is required for file-based providers")
    ids, labels = _parse_label_file(config, vocab)
    if config.features_path is None:
        raise InputError("features_path is required for file-based providers")
    rows = _split_rows(config, len(ids), parts)
    with _open_input(config.features_path) as fh:
        features = load_features(fh, ids, np.concatenate(rows))
    pieces = np.split(features, np.cumsum([len(r) for r in rows[:-1]]))
    return vocab, [Dataset([ids[i] for i in r], labels[r], x) for r, x in zip(rows, pieces)]


def _split_rows(config: TrainConfig, n: int, parts) -> list[np.ndarray]:
    """The row indices of each named split of n label rows."""
    split = dict(zip(("train", "val", "test"),
                     split_dataset(n, config.ratios, config.seed)))
    return [split[part] for part in parts]


def _parse_label_file(config: TrainConfig, vocab: LabelVocabulary):
    with _open_input(config.labels_path, newline="") as fh:
        if config.dataset_format == "pipe":
            return parse_pipe_labels(fh, vocab, has_header=config.pipe_has_header,
                                     no_finding_token=config.no_finding_token)
        return parse_columnar_labels(fh, vocab,
                                     UncertainPolicy(config.uncertain_policy))


def _label_embeddings(config: TrainConfig, vocab: LabelVocabulary) -> np.ndarray:
    """The C x D label embeddings; build_network checks D against gcn_dims."""
    if config.embeddings_path:
        with _open_input(config.embeddings_path) as fh:
            vectors = load_word_vectors(fh)
        fallback = config.seed if config.oov_fallback else None
        return embed_labels(vocab, vectors, oov_fallback_seed=fallback)
    return synthetic_embeddings(vocab, int(config.gcn_dims[0]), config.seed)


def _prepare_training(config: TrainConfig, vocab: LabelVocabulary, train_samples: Dataset,
                      val_samples: Dataset):
    """The training bundle and the conditional co-occurrence matrix P of the
    train split (with the validation split too under graph_include_val). An
    empty train split exits 2."""
    _check_split(train_samples, "train")
    graph_labels = (np.concatenate([train_samples.labels, val_samples.labels])
                    if config.graph_include_val else train_samples.labels)
    p = conditional_matrix(count_cooccurrence(graph_labels, vocab.size))
    return DataBundle(vocab=vocab, train_samples=train_samples,
                      val_samples=val_samples), p


def cmd_synth(args) -> int:
    config = build_config(args)
    synth = dict(config.synth or {})
    _set_flags(synth, args, SyntheticSpec)
    config = replace(config, synth=synth)
    spec, vocab, dataset = _synthesize(config)
    for name in [*vocab.labels, config.no_finding_token]:
        if any(ch in name for ch in '|,"\n\r'):
            raise InputError(f"cannot write {name!r} to a pipe label file: it holds "
                             "'|', ',', '\"' or a line break")

    os.makedirs(args.out_dir, exist_ok=True)
    labels_path = os.path.join(args.out_dir, "labels.csv")
    with atomic_write(labels_path, "w", encoding="utf-8", newline="") as fh:
        write_pipe_labels(dataset.ids, dataset.labels, vocab, fh,
                          no_finding_token=config.no_finding_token)
    features_path = os.path.join(args.out_dir, "features.txt")
    with atomic_write(features_path, "w", encoding="utf-8") as fh:
        write_features(dataset.ids, dataset.features, fh)
    echo = {"labels": vocab.labels, **json_dict(spec), "base_rates": spec.rates(),
            "config_echo": replace(config, synth=json_dict(spec)).to_dict()}
    dump_json(echo, os.path.join(args.out_dir, "synth_spec.json"))
    print(f"wrote {labels_path}, {features_path}")
    return 0


def cmd_build_graph(args) -> int:
    config = build_config(args)
    if config.labels is None:
        raise InputError("build-graph needs a vocabulary (--labels or --vocab-file)")
    vocab = LabelVocabulary(config.labels)
    if config.labels_path is None:
        raise InputError("build-graph needs --labels-path")
    _, labels = _parse_label_file(config, vocab)
    graph = build_correlation_graph(count_cooccurrence(labels, vocab.size), config.epsilon,
                                    config.delta, reweight_axis=config.reweight_axis)
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    dump_json({"labels": vocab.labels, **graph, "config_echo": config.to_dict()}, args.out)
    print(f"wrote {args.out}")
    return 0


def cmd_train(args) -> int:
    config = build_config(args)
    os.makedirs(args.out_dir, exist_ok=True)   # fail on a bad path before training
    vocab, parts = assemble_dataset(config, "train", "val")
    bundle, p = _prepare_training(config, vocab, *parts)
    result = train(config, bundle, p, _label_embeddings(config, bundle.vocab))
    ckpt_path = os.path.join(args.out_dir, "checkpoint.bin")
    save_checkpoint(ckpt_path, result)
    _write_history_csv(os.path.join(args.out_dir, "metrics.csv"), result.history)
    dump_json(config.to_dict(), os.path.join(args.out_dir, "config.json"))
    best = "" if result.best_val_auc is None else format_float(result.best_val_auc)
    print(f"wrote {ckpt_path} (best epoch {result.epoch}, val mean AUC {best})")
    return 0


def _write_history_csv(path, history) -> None:
    with atomic_write(path, "w", encoding="utf-8") as fh:
        fh.write("epoch,train_loss,val_mean_auc\n")
        for row in history:
            auc = "" if row["val_mean_auc"] is None else format_float(row["val_mean_auc"])
            fh.write(f"{row['epoch']},{format_float(row['train_loss'])},{auc}\n")


def _load_eval_context(args):
    ckpt = load_checkpoint(args.checkpoint)
    config = ckpt.config
    if args.labels_path:
        config = replace(config, labels_path=args.labels_path)
    if args.features_path:
        config = replace(config, features_path=args.features_path)
    wanted = _vocab_from_args(args)
    if wanted is not None and wanted != ckpt.labels:
        raise ShapeError(f"requested vocabulary {wanted} does not match "
                         f"checkpoint labels {ckpt.labels}")
    config = replace(config, labels=ckpt.labels)
    vocab, (test,) = assemble_dataset(config, "test")
    if vocab.labels != ckpt.labels:
        raise ShapeError("dataset vocabulary does not match checkpoint labels")
    network = network_from_checkpoint(ckpt, test.features.shape[1])
    _check_split(test, "test")
    return ckpt, config, vocab, test, _predict(network, test)


def _predict(network, split: Dataset) -> np.ndarray:
    # a diverged model overflows here; the AUC check reports it as one
    # NumericalError, so keep numpy's warnings out of stderr as train does
    with np.errstate(over="ignore", invalid="ignore"):
        return network.predict_logits(split.features)


def _check_split(split: Dataset, name: str) -> None:
    if not len(split):
        raise InputError(f"the {name} split is empty")


def _write_eval_files(out_dir, config, vocab, test, logits, top_k):
    tables = None if top_k is None else top_k_table(logits, top_k)
    report, roc = build_report(logits, test.labels, vocab.labels)
    os.makedirs(out_dir, exist_ok=True)
    metrics_path = os.path.join(out_dir, "metrics.json")
    dump_json({**report, "n_test_samples": len(test), "config_echo": config.to_dict()},
              metrics_path)
    roc_path = os.path.join(out_dir, "roc.csv")
    with atomic_write(roc_path, "w", encoding="utf-8") as fh:
        fh.write("label,threshold,fpr,tpr\n")
        for label, curve in roc.items():
            fh.writelines(_roc_rows(label, curve))
    written = [metrics_path, roc_path]
    if tables is not None:
        topk_path = os.path.join(out_dir, "topk.csv")
        indices, scores = tables
        with atomic_write(topk_path, "w", encoding="utf-8") as fh:
            fh.write("sample_id,rank,label,score\n")
            fh.writelines(["%s,%d,%s,%.12g\n" % (sample_id, rank, vocab.labels[j], score)
                           for sample_id, row_j, row in zip(test.ids, indices.tolist(),
                                                            output_floats(scores))
                           for rank, (j, score) in enumerate(zip(row_j, row), 1)])
        written.append(topk_path)
    return report, written


def _roc_rows(label, curve: np.ndarray) -> list[str]:
    """roc.csv rows of one label's curve; the sentinel first row reads "inf"."""
    return [f"{label},inf,0,0\n"] + ["%s,%.12g,%.12g,%.12g\n" % (label, thr, fpr, tpr)
                                     for thr, fpr, tpr in output_floats(curve[1:])]


def cmd_eval(args) -> int:
    _, config, vocab, test, logits = _load_eval_context(args)
    report, written = _write_eval_files(args.out_dir, config, vocab, test, logits,
                                        args.top_k)
    _print_summary(report, written)
    return 0


def _print_summary(report, written) -> None:
    mean = "" if report["mean_auc"] is None else format_float(report["mean_auc"])
    print(f"mean AUC {mean}; wrote {', '.join(written)}")


def cmd_report(args) -> int:
    ckpt, config, vocab, test, logits = _load_eval_context(args)
    top_k = args.top_k if args.top_k is not None else min(8, vocab.size)
    report, written = _write_eval_files(args.out_dir, config, vocab, test, logits, top_k)
    cooc_path = os.path.join(args.out_dir, "cooccurrence.csv")
    p = ckpt.tensor("graph.P")
    with atomic_write(cooc_path, "w", encoding="utf-8") as fh:
        fh.write("label," + ",".join(vocab.labels) + "\n")
        for label, row in zip(vocab.labels, output_floats(p)):
            fh.write(label + "," + ",".join("%.12g" % v for v in row) + "\n")
    written.append(cooc_path)
    _print_summary(report, written)
    return 0


def cmd_sweep(args) -> int:
    config = build_config(args)
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)   # before any point trains
    points = _parse_sweep_values(args.axis, args.values, config)
    # no sweep axis changes a data setting, so every point shares one split
    vocab, (train_samples, val_samples, test) = assemble_dataset(config, "train", "val",
                                                                 "test")
    bundle, p = _prepare_training(config, vocab, train_samples, val_samples)
    _check_split(test, "test")
    # no sweep axis changes the seed, the word-vector file or gcn_dims[0], so
    # one load serves every point
    embeddings = _label_embeddings(config, bundle.vocab)
    rows = []
    for label, point_config in points:
        if args.axis == "epsilon" and float(label) == 0.0:
            # threshold 0 keeps every noisy edge; known non-convergent
            # configuration, flagged rather than trained
            rows.append((label, None, "non_convergent"))
            continue
        try:
            result = train(point_config, bundle, p, embeddings)
            rows.append((label, mean_val_auc(_predict(result.network, test), test.labels),
                         "ok"))
        except NumericalError:
            rows.append((label, None, "diverged"))
    with atomic_write(args.out, "w", encoding="utf-8") as fh:
        fh.write("value,mean_auc,status\n")
        for label, auc, status in rows:
            auc_s = "" if auc is None else format_float(auc)
            fh.write(f"{label},{auc_s},{status}\n")
    dump_json(config.to_dict(), args.out + ".config.json")
    print(f"wrote {args.out}")
    return 0


def _parse_sweep_values(axis: str, text: str, config: TrainConfig):
    """Validate sweep values up front; returns (label, per-point config) pairs."""
    tokens = [t.strip() for t in text.split(",") if t.strip()]
    if not tokens:
        raise InputError("sweep needs at least one value")
    points = []
    for token in tokens:
        try:
            if axis in ("epsilon", "delta"):
                point = replace(config, **{axis: float(token)})
            elif axis == "groupsum":
                groups, size = token.split("x")
                point = replace(config, groups=int(groups), group_size=int(size))
            else:  # gcn_depth
                depth = int(token)
                if depth not in (2, 3, 4):
                    raise InputError(f"gcn depth must be 2, 3, or 4, got {depth}")
                point = replace(config, gcn_dims=dims_for_depth(
                    [int(d) for d in config.gcn_dims], depth))
        except ValueError:
            syntax = "; expected GxN like 64x6" if axis == "groupsum" else ""
            raise InputError(f"bad {axis} value {token!r}{syntax}") from None
        point.validate()
        # 0.5 and 0.50, or 2x2 and 02x2, name one point: train it once
        if any(point == earlier for _, earlier in points):
            print(f"warning: duplicate sweep value {token!r} skipped", file=sys.stderr)
            continue
        points.append((token, point))
    if axis == "groupsum":
        widths = {p.groups * p.group_size for _, p in points}
        if len(widths) > 1:
            raise InputError(f"groupsum sweep values must share one G*g product, "
                             f"got {sorted(widths)}")
    return points


if __name__ == "__main__":
    sys.exit(main())
