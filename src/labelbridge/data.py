"""Label-file parsing, deterministic splits, and feature-file loading.

Two label formats are supported:

* pipe format: CSV rows ``sample_id,LabelA|LabelB``; a configurable
  no-finding token maps to the all-zero label vector.
* columnar format: CSV with one column per label and cells in
  ``{1, 0, -1, blank}``; ``-1`` is resolved by an uncertain-label policy.

Feature files are plain text: first line ``#dim=<D1>``, then one
``sample_id v1 ... vD1`` row per sample.
"""

import csv
import enum
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError


def tokenize_label(name: str) -> list[str]:
    """Lowercase word tokens of a label name, split on spaces/underscores."""
    return [t for t in name.replace("_", " ").lower().split() if t]


class LabelVocabulary:
    """Ordered label set; the order defines label indices everywhere."""

    def __init__(self, labels: list[str]):
        labels = [str(l).strip() for l in labels]
        if len(labels) < 2:
            raise InputError(f"vocabulary needs at least 2 labels, got {len(labels)}")
        seen: dict[str, str] = {}
        for name in labels:
            key = name.lower()
            if not name:
                raise InputError("empty label name in vocabulary")
            if key in seen:
                raise InputError(f"duplicate label name {name!r} in vocabulary")
            seen[key] = name
        self.labels = labels
        self.words_per_label = [tokenize_label(l) for l in labels]
        self._index = {l.lower(): j for j, l in enumerate(labels)}

    @property
    def size(self) -> int:
        return len(self.labels)

    def index_of(self, token: str):
        """Index for a label token (case-insensitive, trimmed) or None."""
        return self._index.get(token.strip().lower())


@dataclass
class LabeledSample:
    sample_id: str
    labels: np.ndarray  # binary vector of length C


@dataclass
class FeatureRecord:
    sample_id: str
    features: np.ndarray


class UncertainPolicy(enum.Enum):
    """How columnar ``-1`` cells are resolved."""

    AS_POSITIVE = "as_positive"
    AS_NEGATIVE = "as_negative"

    @classmethod
    def from_string(cls, s: str) -> "UncertainPolicy":
        for p in cls:
            if p.value == s:
                return p
        raise InputError(f"unknown uncertain policy {s!r} "
                         f"(expected one of {[p.value for p in cls]})")


DEFAULT_NO_FINDING = "No Finding"


def parse_pipe_labels(stream, vocab: LabelVocabulary, *, has_header: bool = False,
                      no_finding_token: str = DEFAULT_NO_FINDING) -> list[LabeledSample]:
    """Parse ``sample_id,LabelA|LabelB`` rows into binary label vectors.

    The no-finding token maps to the all-zero vector unless it is itself a
    vocabulary label, in which case it behaves as an ordinary label.
    """
    sentinel = no_finding_token.strip().lower()
    sentinel_in_vocab = vocab.index_of(no_finding_token) is not None
    samples: list[LabeledSample] = []
    seen_ids: set[str] = set()
    reader = csv.reader(stream)
    for row_no, row in enumerate(reader, start=1):
        if has_header and row_no == 1:
            continue
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 2:
            raise InputError(f"row {row_no}: expected 2 columns, got {len(row)}")
        sample_id = row[0].strip()
        if not sample_id:
            raise InputError(f"row {row_no}: empty sample id")
        if sample_id in seen_ids:
            raise InputError(f"row {row_no}: duplicate sample id {sample_id!r}")
        seen_ids.add(sample_id)
        vec = np.zeros(vocab.size, dtype=np.int64)
        field = row[1].strip()
        if not field:
            raise InputError(f"row {row_no}: empty label field for {sample_id!r}")
        for token in field.split("|"):
            token = token.strip()
            if token.lower() == sentinel and not sentinel_in_vocab:
                continue  # all-zero convention
            j = vocab.index_of(token)
            if j is None:
                raise InputError(f"row {row_no}: unknown label token {token!r}")
            vec[j] = 1
        samples.append(LabeledSample(sample_id, vec))
    return samples


def write_pipe_labels(samples: list[LabeledSample], vocab: LabelVocabulary, stream, *,
                      has_header: bool = False,
                      no_finding_token: str = DEFAULT_NO_FINDING) -> None:
    """Inverse of parse_pipe_labels; all-zero rows get the no-finding token."""
    if has_header:
        stream.write("sample_id,labels\n")
    for s in samples:
        active = [vocab.labels[j] for j in range(vocab.size) if s.labels[j] == 1]
        field = "|".join(active) if active else no_finding_token
        stream.write(f"{s.sample_id},{field}\n")


def parse_columnar_labels(stream, vocab: LabelVocabulary,
                          policy: UncertainPolicy) -> list[LabeledSample]:
    """Parse a CSV with one column per label; cells in {1, 0, -1, blank}.

    The first column is the sample id; extra non-label columns are ignored.
    """
    reader = csv.reader(stream)
    try:
        header = next(reader)
    except StopIteration:
        raise InputError("columnar label file is empty") from None
    if not header:
        raise InputError("columnar label file has an empty header row")
    col_of: dict[int, int] = {}
    header_norm = [h.strip().lower() for h in header]
    for j, label in enumerate(vocab.labels):
        try:
            col_of[j] = header_norm.index(label.lower())
        except ValueError:
            raise InputError(f"label column {label!r} missing from header") from None
    uncertain_value = 1 if policy is UncertainPolicy.AS_POSITIVE else 0
    samples: list[LabeledSample] = []
    seen_ids: set[str] = set()
    for row_no, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != len(header):
            raise InputError(f"row {row_no}: expected {len(header)} columns, got {len(row)}")
        sample_id = row[0].strip()
        if not sample_id:
            raise InputError(f"row {row_no}: empty sample id")
        if sample_id in seen_ids:
            raise InputError(f"row {row_no}: duplicate sample id {sample_id!r}")
        seen_ids.add(sample_id)
        vec = np.zeros(vocab.size, dtype=np.int64)
        for j in range(vocab.size):
            cell = row[col_of[j]].strip()
            if cell == "1":
                vec[j] = 1
            elif cell in ("0", ""):
                vec[j] = 0
            elif cell == "-1":
                vec[j] = uncertain_value
            else:
                raise InputError(f"row {row_no}, column {vocab.labels[j]!r}: "
                                 f"bad cell value {cell!r}")
        samples.append(LabeledSample(sample_id, vec))
    return samples


def split_dataset(samples: list[LabeledSample], ratios, seed: int):
    """Deterministic shuffle-and-cut split into (train, val, test).

    Sizes come from largest-remainder rounding of the ratios, so they are
    exact and the three parts partition the input.
    """
    if len(ratios) != 3:
        raise InputError(f"expected 3 split ratios, got {len(ratios)}")
    ratios = [float(r) for r in ratios]
    if any(r <= 0 for r in ratios):
        raise InputError(f"split ratios must be positive, got {ratios}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise InputError(f"split ratios must sum to 1, got sum {sum(ratios)!r}")
    n = len(samples)
    if n < 3:
        raise InputError(f"need at least 3 samples to split, got {n}")
    sizes = _largest_remainder_sizes(n, ratios)
    rng = np.random.Generator(np.random.PCG64(seed))
    order = rng.permutation(n)
    shuffled = [samples[i] for i in order]
    train = shuffled[: sizes[0]]
    val = shuffled[sizes[0]: sizes[0] + sizes[1]]
    test = shuffled[sizes[0] + sizes[1]:]
    return train, val, test


def _largest_remainder_sizes(n: int, ratios: list[float]) -> list[int]:
    exact = [n * r for r in ratios]
    sizes = [math.floor(e) for e in exact]
    remainders = [e - s for e, s in zip(exact, sizes)]
    short = n - sum(sizes)
    for k in sorted(range(len(ratios)), key=lambda i: (-remainders[i], i))[:short]:
        sizes[k] += 1
    return sizes


def load_features(stream) -> list[FeatureRecord]:
    """Load ``#dim=D1`` feature files; order is preserved."""
    first = stream.readline()
    if not first.startswith("#dim="):
        raise InputError("feature file must start with a '#dim=<D1>' line")
    try:
        dim = int(first[len("#dim="):].strip())
    except ValueError:
        raise InputError(f"bad feature dimension in header: {first.strip()!r}") from None
    if dim < 1:
        raise InputError(f"feature dimension must be >= 1, got {dim}")
    fast = read_id_rows(stream, dim)
    if fast is not None:
        return [FeatureRecord(sample_id, vec) for sample_id, vec in zip(*fast)]
    return _parse_feature_lines(stream, dim)


def _parse_feature_lines(stream, dim: int) -> list[FeatureRecord]:
    """The exact line-by-line parser: ``float()`` per token, errors by line."""
    records: list[FeatureRecord] = []
    seen_ids: set[str] = set()
    for line_no, line in enumerate(stream, start=2):
        tokens = line.split()
        if not tokens:
            continue
        sample_id = tokens[0]
        if len(tokens) - 1 != dim:
            raise InputError(f"line {line_no}: expected id + {dim} values, "
                             f"got {len(tokens) - 1} values")
        if sample_id in seen_ids:
            raise InputError(f"line {line_no}: duplicate sample id {sample_id!r}")
        seen_ids.add(sample_id)
        try:
            vec = np.array([float(t) for t in tokens[1:]], dtype=np.float64)
        except ValueError as exc:
            raise InputError(f"line {line_no}: {exc}") from None
        if not np.all(np.isfinite(vec)):
            raise InputError(f"line {line_no}: non-finite feature value for {sample_id!r}")
        records.append(FeatureRecord(sample_id, vec))
    return records


def read_id_rows(stream, dim: int | None = None, key=None):
    """Read the rest of ``stream`` as ``id v1 ... vD`` lines with numpy's C reader.

    Returns ``(ids, values)``, with ``values`` an N x D float64 matrix, where
    D is ``dim`` or, when ``dim`` is None, the first line's value count; ids
    go through ``key`` when one is given. Returns None, with the stream back
    where it was, whenever the caller's line-by-line parser must decide, so
    that parser's results and error messages stay the only ones: a line
    without exactly D + 1 tokens (blank lines too), a token numpy does not
    parse (``float()`` also takes ``1_0`` and full-width digits), a repeated
    id, a non-finite value, no lines at all, or a stream that cannot seek.
    Lines are checked with ``str.split``: numpy splits on the same Unicode
    whitespace, and ``usecols`` would silently drop a column the check missed.
    """
    if not stream.seekable():
        return None
    start = stream.tell()
    first = stream.readline()
    n_tokens = len(first.split())
    if dim is None:
        dim = n_tokens - 1
    ids: list[str] = []
    complete = dim >= 1 and n_tokens == dim + 1

    def lines():
        nonlocal complete
        for line in itertools.chain([first], stream):
            tokens = line.split()
            if len(tokens) != dim + 1:
                complete = False
                return
            ids.append(tokens[0])
            yield line

    if complete:
        try:
            values = np.loadtxt(lines(), dtype=np.float64, usecols=range(1, dim + 1),
                                comments=None, ndmin=2)
        except ValueError:  # UnicodeDecodeError too: the line parser raises it again
            complete = False
    if complete:
        if key is not None:
            ids = [key(i) for i in ids]
        if len(set(ids)) == len(ids) and np.isfinite(values).all():
            return ids, values
    stream.seek(start)
    return None


def write_features(records: list[FeatureRecord], stream) -> None:
    if not records:
        raise InputError("cannot write an empty feature file")
    dim = len(records[0].features)
    stream.write(f"#dim={dim}\n")
    for r in records:
        if len(r.features) != dim:
            raise InputError(f"inconsistent feature dim for {r.sample_id!r}")
        stream.write(r.sample_id + " " + " ".join(repr(float(v)) for v in r.features) + "\n")


def label_matrix(samples: list[LabeledSample]) -> np.ndarray:
    """Stack sample label vectors into an N x C int matrix."""
    if not samples:
        raise InputError("empty sample list")
    return np.stack([s.labels for s in samples]).astype(np.int64)
