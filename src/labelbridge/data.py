"""The columnar Dataset, label-file parsing, deterministic splits, and
feature-file loading.

A Dataset holds N samples as three aligned columns: the sample ids, an
N x C 0/1 int64 label matrix and an N x D float64 feature matrix. Label
parsers return the ids and the label matrix; ``load_features`` returns the
feature rows in that id order; a split is three arrays of row indices.

Two label formats are supported:

* pipe format: CSV rows ``sample_id,LabelA|LabelB``; a configurable
  no-finding token maps to the all-zero label vector.
* columnar format: CSV with one column per label and cells in
  ``{1, 0, -1, blank}``; ``-1`` is resolved by an uncertain-label policy.

Feature files are plain text: first line ``#dim=<D1>``, then one
``sample_id v1 ... vD1`` row per sample. ``read_id_rows`` reads them and
word-vector files alike, so a malformed line gets one message in both.
It checks every line's id but converts only the wanted rows, so a command
splits the label rows first and converts the splits it uses.
"""

import csv
import enum
import itertools
import math
import operator
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
class Dataset:
    """N samples as aligned columns: ``ids``, an N x C 0/1 int64 ``labels``
    matrix and an N x D float64 ``features`` matrix."""

    ids: list[str]
    labels: np.ndarray
    features: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)

    def take(self, rows: np.ndarray) -> "Dataset":
        """The samples at the given row indices, in that order."""
        return Dataset([self.ids[i] for i in rows], self.labels[rows], self.features[rows])


class UncertainPolicy(enum.Enum):
    """How columnar ``-1`` cells are resolved."""

    AS_POSITIVE = "as_positive"
    AS_NEGATIVE = "as_negative"


DEFAULT_NO_FINDING = "No Finding"


def _checked_rows(reader, start: int, width: int):
    """Yield (row number, sample id, row) for each non-blank CSV row, after
    checking that it has ``width`` cells and a non-empty, unseen sample id."""
    seen: set[str] = set()
    for row_no, row in enumerate(reader, start=start):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != width:
            raise InputError(f"row {row_no}: expected {width} columns, got {len(row)}")
        sample_id = row[0].strip()
        if not sample_id:
            raise InputError(f"row {row_no}: empty sample id")
        if sample_id in seen:
            raise InputError(f"row {row_no}: duplicate sample id {sample_id!r}")
        seen.add(sample_id)
        yield row_no, sample_id, row


def parse_pipe_labels(stream, vocab: LabelVocabulary, *, has_header: bool = False,
                      no_finding_token: str = DEFAULT_NO_FINDING
                      ) -> tuple[list[str], np.ndarray]:
    """Parse ``sample_id,LabelA|LabelB`` rows into (ids, N x C 0/1 label matrix).

    The no-finding token maps to the all-zero vector unless it is itself a
    vocabulary label, in which case it behaves as an ordinary label. Each
    distinct raw field is resolved once, on the row where it first appears,
    so an error names that row.
    """
    sentinel = no_finding_token.strip().lower()
    sentinel_in_vocab = vocab.index_of(no_finding_token) is not None
    reader = csv.reader(stream)
    if has_header:
        next(reader, None)
    ids: list[str] = []
    code_of: dict[str, int] = {}  # raw field -> its row in ``vectors``
    vectors: list[list[int]] = []
    codes: list[int] = []
    for row_no, sample_id, row in _checked_rows(reader, 2 if has_header else 1, 2):
        ids.append(sample_id)
        code = code_of.get(row[1])
        if code is None:
            field = row[1].strip()
            if not field:
                raise InputError(f"row {row_no}: empty label field for {sample_id!r}")
            vec = [0] * vocab.size
            for token in field.split("|"):
                token = token.strip()
                if token.lower() == sentinel and not sentinel_in_vocab:
                    continue  # all-zero convention
                j = vocab.index_of(token)
                if j is None:
                    raise InputError(f"row {row_no}: unknown label token {token!r}")
                vec[j] = 1
            code = code_of[row[1]] = len(vectors)
            vectors.append(vec)
        codes.append(code)
    table = np.array(vectors, dtype=np.int64).reshape(len(vectors), vocab.size)
    return ids, table[np.array(codes, dtype=np.intp)]


def write_pipe_labels(ids: list[str], labels: np.ndarray, vocab: LabelVocabulary, stream,
                      *, no_finding_token: str = DEFAULT_NO_FINDING) -> None:
    """Inverse of parse_pipe_labels, headerless; all-zero rows get the no-finding token."""
    for sample_id, row in zip(ids, labels.tolist()):
        active = [name for name, bit in zip(vocab.labels, row) if bit == 1]
        field = "|".join(active) if active else no_finding_token
        stream.write(f"{sample_id},{field}\n")


def parse_columnar_labels(stream, vocab: LabelVocabulary,
                          policy: UncertainPolicy) -> tuple[list[str], np.ndarray]:
    """Parse a CSV with one column per label, cells in {1, 0, -1, blank},
    into (ids, N x C 0/1 label matrix).

    The first column is the sample id, and each label names exactly one
    other column (case-insensitive); extra non-label columns are ignored.
    Each distinct raw cell is resolved once, on the row where it first
    appears, in column order, so an error names the first bad cell.
    """
    reader = csv.reader(stream)
    try:
        header = next(reader)
    except StopIteration:
        raise InputError("columnar label file is empty") from None
    if not header:
        raise InputError("columnar label file has an empty header row")
    names = [h.strip().lower() for h in header[1:]]  # column 0 is the sample id
    for label in vocab.labels:
        found = names.count(label.lower())
        if found != 1:
            raise InputError(f"label column {label!r} " + (
                f"appears {found} times in header" if found else "missing from header"))
    value_of = {"1": 1, "-1": 1 if policy is UncertainPolicy.AS_POSITIVE else 0,
                "0": 0, "": 0}
    label_cells = operator.itemgetter(*(names.index(n.lower()) + 1 for n in vocab.labels))
    ids: list[str] = []
    values: list[int] = []  # row-major
    for row_no, sample_id, row in _checked_rows(reader, 2, len(header)):
        ids.append(sample_id)
        cells = label_cells(row)
        try:
            values.extend(map(value_of.__getitem__, cells))
        except KeyError:  # a raw cell not seen before: resolve the row's cells in order
            del values[(len(ids) - 1) * vocab.size:]
            for j, raw in enumerate(cells):
                cell = raw.strip()
                if cell not in value_of:
                    raise InputError(f"row {row_no}, column {vocab.labels[j]!r}: "
                                     f"bad cell value {cell!r}") from None
                value_of[raw] = value_of[cell]
            values.extend(map(value_of.__getitem__, cells))
    return ids, np.array(values, dtype=np.int64).reshape(len(ids), vocab.size)


def split_dataset(n: int, ratios, seed: int):
    """Deterministic shuffle-and-cut split of rows 0..n-1 into (train, val,
    test) row-index arrays.

    Sizes come from largest-remainder rounding of the ratios, so they are
    exact and the three parts partition the rows.
    """
    if len(ratios) != 3:
        raise InputError(f"expected 3 split ratios, got {len(ratios)}")
    ratios = [float(r) for r in ratios]
    if any(r <= 0 for r in ratios):
        raise InputError(f"split ratios must be positive, got {ratios}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise InputError(f"split ratios must sum to 1, got sum {sum(ratios)!r}")
    if n < 3:
        raise InputError(f"need at least 3 samples to split, got {n}")
    sizes = _largest_remainder_sizes(n, ratios)
    rng = np.random.Generator(np.random.PCG64(seed))
    order = rng.permutation(n)
    return (order[: sizes[0]], order[sizes[0]: sizes[0] + sizes[1]],
            order[sizes[0] + sizes[1]:])


def _largest_remainder_sizes(n: int, ratios: list[float]) -> list[int]:
    exact = [n * r for r in ratios]
    sizes = [math.floor(e) for e in exact]
    remainders = [e - s for e, s in zip(exact, sizes)]
    short = n - sum(sizes)
    for k in sorted(range(len(ratios)), key=lambda i: (-remainders[i], i))[:short]:
        sizes[k] += 1
    return sizes


def load_features(stream, ids: list[str], rows=None) -> np.ndarray:
    """The feature rows of ``ids``, or of ``ids[k]`` for each k in ``rows`` in
    that order, from a ``#dim=D`` file: a float64 matrix with D columns. Only
    those rows' values are converted. An id of ``ids`` the file lacks is an
    InputError naming the first one."""
    order = ids if rows is None else [ids[k] for k in rows]
    wanted = set(order)
    file_ids, values = read_features(stream, wanted)
    known = set(file_ids)
    for sample_id in ids:
        if sample_id not in known:
            raise InputError(f"unknown sample id {sample_id!r}")
    row_of = {sid: k for k, sid in enumerate(filter(wanted.__contains__, file_ids))}
    return values[[row_of[sample_id] for sample_id in order]]


def read_features(stream, wanted: set[str] | None = None) -> tuple[list[str], np.ndarray]:
    """Read a ``#dim=D`` feature file: the ids of all its rows and the K x D
    float64 values of the K rows whose id is in ``wanted`` (every row when
    None), in file order. An empty file or a repeated id is an InputError."""
    first = stream.readline()
    if not first.startswith("#dim="):
        raise InputError("feature file must start with a '#dim=<D1>' line")
    try:
        dim = int(first[len("#dim="):].strip())
    except ValueError:
        raise InputError(f"bad feature dimension in header: {first.strip()!r}") from None
    if dim < 1:
        raise InputError(f"feature dimension must be >= 1, got {dim}")
    ids, values = read_id_rows(stream, dim, first_line=2, wanted=wanted)
    if not ids:
        raise InputError("feature file has no sample rows")
    seen: set[str] = set()
    for sample_id in ids:
        if sample_id in seen:
            raise InputError(f"duplicate sample id {sample_id!r} in feature file")
        seen.add(sample_id)
    return ids, values


def read_id_rows(stream, dim: int | None = None, first_line: int = 1,
                 wanted: set[str] | None = None) -> tuple[list[str], np.ndarray]:
    """``(ids, values)`` of the ``id v1 ... vD`` lines left in ``stream``,
    numbered from ``first_line``: all ids in file order with repeats kept,
    and the K x D float64 values of the K lines whose id is in ``wanted``
    (all when None), D being ``dim`` or else the first such line's count.

    Blank lines are skipped. A line with no values, or a wanted line with
    not D values, a token ``float()`` rejects or a non-finite value, is an
    InputError naming it. numpy's C reader reads what it parses exactly as
    ``float()`` does; the exact parser reads the rest."""
    return (_fast_id_rows(stream, dim, wanted)
            or _exact_id_rows(stream, dim, first_line, wanted))


def _exact_id_rows(stream, dim: int | None, first_line: int,
                   wanted: set[str] | None = None) -> tuple[list[str], np.ndarray]:
    """The exact line-by-line parser: ``float()`` per token, errors by line."""
    ids: list[str] = []
    rows: list[list[float]] = []
    for line_no, line in enumerate(stream, start=first_line):
        tokens = line.split()
        if not tokens:
            continue
        if len(tokens) == 1:
            raise InputError(f"line {line_no}: id {tokens[0]!r} has no values")
        ids.append(tokens[0])
        if wanted is not None and tokens[0] not in wanted:
            continue
        if dim is None:
            dim = len(tokens) - 1
        if len(tokens) - 1 != dim:
            raise InputError(f"line {line_no}: expected id + {dim} values, "
                             f"got {len(tokens) - 1} values")
        try:
            vec = [float(t) for t in tokens[1:]]
        except ValueError as exc:
            raise InputError(f"line {line_no}: {exc}") from None
        if not np.isfinite(vec).all():
            raise InputError(f"line {line_no}: non-finite value for {tokens[0]!r}")
        rows.append(vec)
    return ids, np.array(rows, dtype=np.float64).reshape(len(rows), dim or 0)


def _fast_id_rows(stream, dim: int | None, wanted: set[str] | None = None):
    """``read_id_rows`` by numpy's C reader, or None with the stream rewound
    when the exact parser must decide: a line that is not an id followed by
    values (blank lines too), wanted value counts that differ or are not
    ``dim``, a token numpy does not parse (``float()`` also takes ``1_0`` and
    full-width digits), a non-finite value, no lines, or a stream that cannot
    seek.

    Each line is split once, into its id and the rest; numpy reads the
    wanted rests, and is not called without one, as it warns on no input.
    Its tokenizer splits on the same Unicode whitespace as ``str.split``, so
    its column count is the line's value count: numpy's own "number of
    columns changed" error catches rows that differ, and a check of the
    matrix's column count catches a file in which every such row has the
    same wrong count. Each rest gives exactly one row: it holds a
    non-whitespace character, and numpy raises on a line break inside it
    (``\r``; ``\x0b``, ``\x0c``, ``\x1c``-``\x1e``, ``\x85`` and
    ``\u2028`` split values as ``str.split`` does).
    """
    if not stream.seekable():
        return None
    start = stream.tell()
    ids: list[str] = []
    complete = True

    def rests():
        nonlocal complete
        for line in stream:
            parts = line.split(None, 1)
            if len(parts) != 2:
                complete = False
                return
            ids.append(parts[0])
            if wanted is None or parts[0] in wanted:
                yield parts[1]

    lines = rests()
    try:
        first = next(lines, None)
        values = (np.empty((0, dim or 0)) if first is None else
                  np.loadtxt(itertools.chain([first], lines), dtype=np.float64,
                             comments=None, ndmin=2))
    except ValueError:  # UnicodeDecodeError too: the exact parser raises it again
        complete = False
    if (complete and ids and dim in (None, values.shape[1])
            and np.isfinite(values).all()):
        return ids, values
    stream.seek(start)
    return None


def write_features(ids: list[str], features: np.ndarray, stream) -> None:
    stream.write(f"#dim={features.shape[1]}\n")
    # row by row: the whole matrix as Python floats is four times its size
    for sample_id, row in zip(ids, features):
        stream.write(sample_id + " " + " ".join(map(repr, row.tolist())) + "\n")
