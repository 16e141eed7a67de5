import io
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import MICRO_CSV
from labelbridge import (Dataset, LabelVocabulary, UncertainPolicy, load_features,
                         load_word_vectors, parse_columnar_labels, parse_pipe_labels,
                         split_dataset, write_pipe_labels)
from labelbridge.data import _fast_id_rows, read_features, read_id_rows, write_features
from labelbridge.errors import InputError


def parse_pipe(text, vocab, **kw):
    return parse_pipe_labels(io.StringIO(text), vocab, **kw)


class TestVocabulary:
    def test_word_decomposition(self):
        vocab = LabelVocabulary(["Pleural_Thickening", "Lung Opacity"])
        assert vocab.words_per_label == [["pleural", "thickening"], ["lung", "opacity"]]

    def test_rejects_duplicates_case_insensitive(self):
        with pytest.raises(InputError):
            LabelVocabulary(["Mass", "mass"])

    def test_requires_two_labels(self):
        with pytest.raises(InputError):
            LabelVocabulary(["Solo"])

    def test_index_is_case_insensitive(self):
        vocab = LabelVocabulary(["Atelectasis", "Effusion"])
        assert vocab.index_of(" effusion ") == 1
        assert vocab.index_of("nodule") is None


class TestPipeLabels:
    def test_membership_row(self):
        vocab = LabelVocabulary(["Atelectasis", "Effusion", "Mass"])
        _, labels = parse_pipe("img1,Effusion|Atelectasis\n", vocab)
        assert labels.tolist() == [[1, 1, 0]]
        assert labels.dtype == np.int64

    def test_no_finding_maps_to_zero(self):
        vocab = LabelVocabulary(["Atelectasis", "Effusion", "Mass"])
        _, labels = parse_pipe("img2,No Finding\n", vocab)
        assert labels.tolist() == [[0, 0, 0]]

    def test_no_finding_as_real_label_when_in_vocab(self):
        vocab = LabelVocabulary(["No Finding", "Effusion"])
        _, labels = parse_pipe("img1,No Finding\nimg2,Effusion\n", vocab)
        assert labels.tolist() == [[1, 0], [0, 1]]

    def test_micro_dataset_vectors(self, micro_vocab):
        ids, labels = parse_pipe(MICRO_CSV, micro_vocab)
        got = dict(zip(ids, labels.tolist()))
        assert got == {"img1": [1, 1, 0], "img2": [1, 0, 0],
                       "img3": [0, 1, 1], "img4": [1, 1, 0]}

    def test_unknown_token_names_row_and_token(self, micro_vocab):
        with pytest.raises(InputError, match=r"row 2.*'zz'"):
            parse_pipe("img1,a\nimg2,zz\n", micro_vocab)

    def test_duplicate_sample_id_fatal(self, micro_vocab):
        with pytest.raises(InputError, match="duplicate"):
            parse_pipe("img1,a\nimg1,b\n", micro_vocab)

    def test_empty_label_field_fatal(self, micro_vocab):
        with pytest.raises(InputError, match="empty label field"):
            parse_pipe("img1,\n", micro_vocab)

    def test_header_flag(self, micro_vocab):
        ids, labels = parse_pipe("sample_id,labels\nimg1,a\n", micro_vocab,
                                 has_header=True)
        assert ids == ["img1"] and labels.tolist() == [[1, 0, 0]]

    def test_empty_file_gives_an_empty_matrix(self, micro_vocab):
        ids, labels = parse_pipe("", micro_vocab)
        assert ids == [] and labels.shape == (0, 3) and labels.dtype == np.int64

    def test_tokens_match_case_insensitively(self, micro_vocab):
        _, labels = parse_pipe("img1, A | B \n", micro_vocab)
        assert labels.tolist() == [[1, 1, 0]]

    def test_round_trip_identity(self, micro_vocab):
        rng = np.random.Generator(np.random.PCG64(7))
        for _ in range(20):
            n = int(rng.integers(1, 12))
            mat = rng.integers(0, 2, size=(n, 3))
            text = "".join(f"id{i},{_row(mat[i], micro_vocab)}\n" for i in range(n))
            ids, labels = parse_pipe(text, micro_vocab)
            out = io.StringIO()
            write_pipe_labels(ids, labels, micro_vocab, out)
            again_ids, again = parse_pipe(out.getvalue(), micro_vocab)
            assert again_ids == ids
            assert np.array_equal(again, labels)
            assert np.array_equal(labels, mat)


def _row(bits, vocab):
    active = [vocab.labels[j] for j in range(len(bits)) if bits[j]]
    return "|".join(active) if active else "No Finding"


COLUMNAR = """id,a,b,c
img1,1,-1,0
img2,,1,-1
img3,0,,1
"""


class TestColumnarLabels:
    def test_uncertain_as_positive(self, micro_vocab):
        ids, labels = parse_columnar_labels(io.StringIO(COLUMNAR), micro_vocab,
                                            UncertainPolicy.AS_POSITIVE)
        assert ids == ["img1", "img2", "img3"]
        assert labels[:2].tolist() == [[1, 1, 0], [0, 1, 1]]
        assert labels.dtype == np.int64

    def test_uncertain_as_negative(self, micro_vocab):
        _, labels = parse_columnar_labels(io.StringIO(COLUMNAR), micro_vocab,
                                          UncertainPolicy.AS_NEGATIVE)
        assert labels[:2].tolist() == [[1, 0, 0], [0, 1, 0]]

    def test_blank_is_zero(self, micro_vocab):
        _, labels = parse_columnar_labels(io.StringIO(COLUMNAR), micro_vocab,
                                          UncertainPolicy.AS_POSITIVE)
        assert labels[2].tolist() == [0, 0, 1]

    def test_output_is_binary_for_any_policy(self, micro_vocab):
        rng = np.random.Generator(np.random.PCG64(3))
        cells = rng.choice(["1", "0", "-1", ""], size=(15, 3))
        text = "id,a,b,c\n" + "".join(
            f"r{i}," + ",".join(cells[i]) + "\n" for i in range(15))
        for policy in UncertainPolicy:
            _, labels = parse_columnar_labels(io.StringIO(text), micro_vocab, policy)
            assert labels.shape == (15, 3)
            assert set(np.unique(labels)) <= {0, 1}

    def test_malformed_cell_names_row_and_column(self, micro_vocab):
        text = "id,a,b,c\nimg1,1,maybe,0\n"
        with pytest.raises(InputError, match="row 2.*'b'"):
            parse_columnar_labels(io.StringIO(text), micro_vocab,
                                  UncertainPolicy.AS_POSITIVE)

    def test_missing_label_column_fatal(self, micro_vocab):
        with pytest.raises(InputError, match="'c'"):
            parse_columnar_labels(io.StringIO("id,a,b\nimg1,1,0\n"), micro_vocab,
                                  UncertainPolicy.AS_POSITIVE)

    @pytest.mark.parametrize("header", ["a,b,c", "A,b,c,age"])
    def test_label_only_in_the_id_column_is_missing(self, micro_vocab, header):
        text = header + "\n" + "1,0,1" + ",0" * (header.count(",") - 2) + "\n"
        with pytest.raises(InputError, match="^label column 'a' missing from header$"):
            parse_columnar_labels(io.StringIO(text), micro_vocab,
                                  UncertainPolicy.AS_POSITIVE)

    def test_id_column_named_like_a_label_is_the_id(self, micro_vocab):
        ids, labels = parse_columnar_labels(io.StringIO("a,c,b,A \nimg1,1,0,0\n"),
                                            micro_vocab, UncertainPolicy.AS_POSITIVE)
        assert ids == ["img1"] and labels.tolist() == [[0, 0, 1]]

    @pytest.mark.parametrize("header", ["id,a,b,c,A", "id, a ,b,a,c,a"])
    def test_label_named_by_two_columns_fatal(self, micro_vocab, header):
        n = header.lower().replace(" ", "").split(",").count("a")
        text = header + "\nimg1" + ",1" * header.count(",") + "\n"
        with pytest.raises(InputError, match=f"^label column 'a' appears {n} times in header$"):
            parse_columnar_labels(io.StringIO(text), micro_vocab,
                                  UncertainPolicy.AS_POSITIVE)

    def test_extra_columns_ignored(self, micro_vocab):
        text = "id,age,a,b,c\nimg1,42,1,0,1\n"
        _, labels = parse_columnar_labels(io.StringIO(text), micro_vocab,
                                          UncertainPolicy.AS_POSITIVE)
        assert labels.tolist() == [[1, 0, 1]]


def label_outcome(parse, text, *args, **kw):
    """Ids, matrix dtype, shape and rows, or the InputError message."""
    try:
        ids, labels = parse(io.StringIO(text), *args, **kw)
        return ids, labels.dtype, labels.shape, labels.tolist()
    except InputError as exc:
        return str(exc)


def variant(draw, text):
    """``text`` in another case, with spaces or tabs around it."""
    text = draw(st.sampled_from([str.lower, str.upper, str.title, str]))(text)
    pad = st.sampled_from(["", " ", "\t"])
    return draw(pad) + text + draw(pad)


@st.composite
def data_rows(draw, fields):
    """CSV rows ``id,<field>`` drawn from ``fields`` in any order, with blank
    rows between them and, rarely, a repeated id."""
    rows = []
    for i in range(draw(st.integers(0, 12))):
        if draw(st.integers(1, 10)) == 1:
            rows.append(draw(st.sampled_from(["", " "])))
            continue
        sample_id = f"s{i}" if draw(st.integers(1, 30)) > 1 else "s0"
        rows.append(f"{sample_id},{draw(st.sampled_from(fields))}")
    return rows


PIPE_TOKENS = ["Atelectasis", "Effusion", "Lung Opacity", "No Finding", "no finding",
               "Nodule", ""]


@st.composite
def pipe_files(draw):
    """A vocabulary with the no-finding token in or out of it, and a pipe
    file whose rows repeat a few fields, each in case and space variants:
    repeated tokens, unknown or empty tokens and empty fields included."""
    labels = ["Atelectasis", "Effusion", "Lung Opacity"]
    if draw(st.booleans()):
        labels.append("No Finding")
    fields = []
    for _ in range(draw(st.integers(1, 4))):
        tokens = draw(st.lists(st.sampled_from(PIPE_TOKENS), min_size=1, max_size=3))
        field = "|".join(variant(draw, t) for t in tokens)
        fields += [field] + [variant(draw, field) for _ in range(draw(st.integers(0, 2)))]
    has_header = draw(st.booleans())
    rows = (["sample_id,labels"] if has_header else []) + draw(data_rows(fields))
    return LabelVocabulary(labels), "\n".join(rows) + "\n", has_header


CELLS = ["1", "0", "-1", "", " 1", "0 ", "\t-1", " ", "maybe", "2", "+1", "1.0"]


@st.composite
def columnar_files(draw):
    """A columnar file with shuffled, case-varied label columns beside an
    extra one, whose cells repeat valid values in space variants and rarely
    hold a bad value. The id column is sometimes named like a label, and a
    label sometimes names a second column."""
    columns = draw(st.permutations(["a", "b", "c", "age"]))
    if draw(st.integers(1, 8)) == 1:
        columns.insert(draw(st.integers(0, 4)), draw(st.sampled_from(["a", "b", "c"])))
    id_name = draw(st.sampled_from(["id", "id", "id", "a", "age"]))
    header = ",".join([variant(draw, id_name)] + [variant(draw, c) for c in columns])
    good, bad = st.sampled_from(CELLS[:8]), st.sampled_from(CELLS[8:])
    fields = [",".join(rarely(draw, bad, good, 15) for _ in columns)
              for _ in range(draw(st.integers(1, 6)))]
    return header + "\n" + "\n".join(draw(data_rows(fields))) + "\n"


class TestLabelParsersMatchOracles:
    """One lookup per distinct field or cell gives the ids, matrix and first
    error of resolving every token and cell on every row."""

    @settings(max_examples=300, deadline=None)
    @given(pipe_files(), st.sampled_from(["No Finding", " no FINDING ", "Normal"]))
    def test_pipe_labels(self, case, no_finding_token):
        vocab, text, has_header = case
        kw = {"has_header": has_header, "no_finding_token": no_finding_token}
        assert (label_outcome(parse_pipe_labels, text, vocab, **kw)
                == label_outcome(oracles.parse_pipe_labels, text, vocab, **kw))

    @settings(max_examples=300, deadline=None)
    @given(columnar_files(), st.sampled_from(list(UncertainPolicy)))
    def test_columnar_labels(self, text, policy):
        vocab = LabelVocabulary(["a", "b", "c"])
        uncertain = 1 if policy is UncertainPolicy.AS_POSITIVE else 0
        assert (label_outcome(parse_columnar_labels, text, vocab, policy)
                == label_outcome(oracles.parse_columnar_labels, text, vocab, uncertain))

    def test_a_bad_cell_first_seen_late_names_its_row(self, micro_vocab):
        text = "id,a,b,c\nr1,1,0,-1\nr2,1,0,-1\nr3,0, x,1\nr3,1,1,1\n"
        with pytest.raises(InputError, match="^row 4, column 'b': bad cell value 'x'$"):
            parse_columnar_labels(io.StringIO(text), micro_vocab,
                                  UncertainPolicy.AS_POSITIVE)

    def test_an_unknown_token_first_seen_late_names_its_row(self, micro_vocab):
        text = "s1,a|b\ns2,a|b\n\ns3,b|zz\ns3,c\n"
        with pytest.raises(InputError, match="^row 4: unknown label token 'zz'$"):
            parse_pipe(text, micro_vocab)


class TestSplit:
    def test_sizes_by_largest_remainder(self):
        train, val, test = split_dataset(10, (0.7, 0.1, 0.2), seed=5)
        assert (len(train), len(val), len(test)) == (7, 1, 2)

    def test_deterministic(self):
        a = split_dataset(25, (0.7, 0.1, 0.2), seed=11)
        b = split_dataset(25, (0.7, 0.1, 0.2), seed=11)
        for part_a, part_b in zip(a, b):
            assert np.array_equal(part_a, part_b)

    def test_partition(self):
        train, val, test = split_dataset(23, (0.5, 0.25, 0.25), seed=2)
        rows = np.concatenate([train, val, test])
        assert sorted(rows.tolist()) == list(range(23))

    def test_cuts_one_seeded_permutation(self):
        # split order, topk.csv rows and the benchmark's test-split oracle
        # all rest on this order
        order = np.random.Generator(np.random.PCG64(4)).permutation(20)
        train, val, test = split_dataset(20, (0.7, 0.1, 0.2), seed=4)
        assert np.concatenate([train, val, test]).tolist() == order.tolist()

    def test_bad_ratio_sum(self):
        with pytest.raises(InputError, match="sum to 1"):
            split_dataset(10, (0.5, 0.5, 0.5), seed=0)

    def test_nonpositive_ratio(self):
        with pytest.raises(InputError, match="positive"):
            split_dataset(10, (1.0, 0.0, 0.0), seed=0)

    def test_too_few_samples(self):
        with pytest.raises(InputError, match="at least 3"):
            split_dataset(2, (0.7, 0.1, 0.2), seed=0)


class TestDataset:
    def test_take_keeps_rows_aligned(self):
        data = Dataset(["a", "b", "c"], np.array([[1, 0], [0, 1], [1, 1]]),
                       np.array([[1.0], [2.0], [3.0]]))
        part = data.take(np.array([2, 0]))
        assert part.ids == ["c", "a"]
        assert part.labels.tolist() == [[1, 1], [1, 0]]
        assert part.features.tolist() == [[3.0], [1.0]]
        assert len(part) == 2 and len(data.take(np.array([], dtype=np.int64))) == 0


FEATURES = "#dim=4\nimg1 0.5 -1.25 3.0 0.0\nimg2 1.0 2.0 3.0 4.0\n"


class TestFeatures:
    def test_load(self):
        ids, values = read_features(io.StringIO(FEATURES))
        assert ids == ["img1", "img2"]
        assert values.tolist() == [[0.5, -1.25, 3.0, 0.0], [1.0, 2.0, 3.0, 4.0]]

    def test_order_preserved(self):
        ids, _ = read_features(Unseekable(io.StringIO(FEATURES)))
        assert ids == ["img1", "img2"]

    def test_rows_follow_the_given_ids(self):
        text = "#dim=1\na 1.0\nb 2.0\n"
        assert load_features(io.StringIO(text), ["b", "a"]).tolist() == [[2.0], [1.0]]

    def test_returns_the_stored_row(self):
        x = load_features(io.StringIO("#dim=2\na 1.0 2.0\nb 3.0 4.0\n"), ["b"])
        assert x.tolist() == [[3.0, 4.0]] and x.dtype == np.float64

    def test_unknown_id_fatal(self):
        # the first id the file lacks, in the order the ids are given
        for stream in (io.StringIO("#dim=2\na 0 0\n"),
                       Unseekable(io.StringIO("#dim=2\na 0 0\n"))):
            with pytest.raises(InputError, match="^unknown sample id 'nope'$"):
                load_features(stream, ["a", "nope", "zz"])

    def test_empty_file_fatal(self):
        with pytest.raises(InputError, match="^feature file has no sample rows$"):
            load_features(io.StringIO("#dim=2\n\n"), [])

    def test_nan_rejected(self):
        with pytest.raises(InputError, match="non-finite"):
            read_features(io.StringIO("#dim=2\nimg1 nan 1.0\n"))

    def test_dim_mismatch(self):
        with pytest.raises(InputError, match="expected id"):
            read_features(io.StringIO("#dim=3\nimg1 1.0 2.0\n"))

    def test_inconsistent_rows(self):
        with pytest.raises(InputError):
            read_features(io.StringIO("#dim=2\nimg1 1.0 2.0\nimg2 1.0 2.0 3.0\n"))

    def test_missing_header(self):
        with pytest.raises(InputError, match="#dim="):
            read_features(io.StringIO("img1 1.0 2.0\n"))

    def test_duplicate_id(self):
        with pytest.raises(InputError, match="duplicate"):
            read_features(io.StringIO("#dim=1\nimg1 1.0\nimg1 2.0\n"))

    def test_write_read_round_trip(self):
        ids, values = read_features(io.StringIO(FEATURES))
        out = io.StringIO()
        write_features(ids, values, out)
        again_ids, again = read_features(io.StringIO(out.getvalue()))
        assert again_ids == ids
        assert np.array_equal(again.view(np.uint64), values.view(np.uint64))

    def test_write_matches_whole_matrix_conversion(self):
        values = np.array([[-0.0, 5e-324, 1e308], [1 / 3, -1e308, 0.0],
                           [-5e-324, 2.2e-308, -1 / 3]])
        got, want = io.StringIO(), io.StringIO()
        write_features(["a", "b", "c"], values, got)
        oracles.write_features(["a", "b", "c"], values, want)
        assert got.getvalue() == want.getvalue()

    def test_write_converts_one_row_at_a_time(self, tmp_path):
        """Writing a 4,000 x 64 matrix peaks below half of what that
        matrix takes as Python floats."""
        values = np.random.default_rng(0).standard_normal((4000, 64))
        tracemalloc.start()
        try:
            values.tolist()
            whole = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            with open(tmp_path / "features.txt", "w", encoding="utf-8") as fh:
                write_features([f"s{i}" for i in range(4000)], values, fh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < whole / 2


class Unseekable:
    """A text stream that only reads forward. It keeps the loaders on their
    line-by-line ``float()`` parser, the reference for the fast reader."""

    def __init__(self, stream):
        self._stream = stream

    def seekable(self):
        return False

    def readline(self):
        return self._stream.readline()

    def __iter__(self):
        return iter(self._stream)


def feature_outcome(stream):
    """Ids and float64 bits of the read rows, or the InputError message."""
    try:
        ids, values = read_features(stream)
        return list(zip(ids, values.view(np.uint64).tolist()))
    except InputError as exc:
        return str(exc)


def vector_outcome(stream):
    """Words with their dims and float64 bits (or the InputError message), and
    warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            vectors = load_word_vectors(stream)
            result = [(w, len(v), v.view(np.uint64).tolist()) for w, v in vectors.items()]
        except InputError as exc:
            result = str(exc)
    return result, [str(w.message) for w in caught]


WHITESPACE = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]
ODD_CHARS = sorted(set(WHITESPACE) | {chr(c) for c in range(32)})
FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(allow_nan=False, allow_infinity=False, width=32).map(lambda x: "%.7g" % x))
ODD_VALUES = st.sampled_from([
    "0", "-0", "+0.0", "-0.0", "nan", "-nan", "NaN", "inf", "-inf", "Infinity", "1e999",
    "-1e999", "1e-999", "1_0", "1__0", "\uff11\uff12", "\u0663.\u0665", "0x1p3", "1e",
    ".", "abc"])
SEPARATORS = st.sampled_from([" ", "\t", "  ", " \t "])
IDS = st.integers(0, 10**6).map(lambda i: f"img{i}")
ODD_IDS = st.one_of(st.sampled_from(["a", "A", "\u00e9", "#x", "x_1"]),
                    st.text(st.sampled_from(["x", "\u00e9", "_", "#"] + ODD_CHARS),
                            min_size=1, max_size=3))


def rarely(draw, odd, usual, one_in=20):
    return draw(odd if draw(st.integers(1, one_in)) == 1 else usual)


@st.composite
def id_lines(draw, dim):
    """The body of an ``id v1 ... v<dim>`` file: mostly repr and %.7g values,
    sometimes odd ones, any Unicode whitespace or C0 control character
    between tokens, glued to them or inside ids, blank lines, wrong column
    counts, repeated ids, LF or CRLF line ends."""
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.integers(1, 20)) == 1:
            lines.append(draw(st.sampled_from(["", " ", "\t"])))
            continue
        n_values = max(dim + rarely(draw, st.sampled_from([-1, 1]), st.just(0)), 0)
        tokens = ([rarely(draw, ODD_IDS, IDS)]
                  + [rarely(draw, ODD_VALUES, FLOATS) for _ in range(n_values)])
        if draw(st.integers(1, 20)) == 1:
            i = draw(st.integers(0, len(tokens) - 1))
            odd = draw(st.sampled_from(ODD_CHARS))
            tokens[i] = draw(st.sampled_from([odd + tokens[i], tokens[i] + odd]))
        line = tokens[0] + "".join(rarely(draw, st.sampled_from(WHITESPACE), SEPARATORS, 8)
                                   + t for t in tokens[1:])
        lines.append(draw(st.sampled_from(["", " ", "\t"])) + line
                     + draw(st.sampled_from(["", " "])))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return "".join(line + end for line in lines)


@st.composite
def clean_lines(draw, dim):
    """Well-formed rows of unique ids and finite values, as write_features
    and word-vector tools write them."""
    n_rows = draw(st.integers(1, 8))
    fmt = draw(st.sampled_from([repr, lambda x: "%.7g" % x]))
    rows = []
    for i in range(n_rows):
        values = [fmt(draw(st.floats(allow_nan=False, allow_infinity=False)))
                  for _ in range(dim)]
        rows.append(" ".join([f"id{i}"] + values) + "\n")
    return "".join(rows)


class TestFastReader:
    """numpy's C reader gives the same ids, bits and errors as ``float()``."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda d: st.tuples(st.just(d), id_lines(d))))
    def test_feature_files_match_line_parser(self, case):
        dim, body = case
        text = f"#dim={dim}\n" + body
        assert (feature_outcome(io.StringIO(text))
                == feature_outcome(Unseekable(io.StringIO(text))))

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 3).flatmap(id_lines))
    def test_word_vector_files_match_line_parser(self, body):
        assert (vector_outcome(io.StringIO(body))
                == vector_outcome(Unseekable(io.StringIO(body))))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda d: st.tuples(st.just(d), id_lines(d))))
    def test_files_on_disk_match_line_parser(self, tmp_path_factory, case):
        # a file reads with universal newlines, and its tell() is an opaque cookie
        dim, body = case
        path = tmp_path_factory.mktemp("features") / "features.txt"
        path.write_text(f"#dim={dim}\n" + body, encoding="utf-8", newline="")
        with open(path, encoding="utf-8") as fast, open(path, encoding="utf-8") as slow:
            assert feature_outcome(fast) == feature_outcome(Unseekable(slow))
        with open(path, encoding="utf-8") as fast, open(path, encoding="utf-8") as slow:
            fast.readline(), slow.readline()
            assert vector_outcome(fast) == vector_outcome(Unseekable(slow))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda d: st.tuples(st.just(d), clean_lines(d))))
    def test_clean_files_take_the_fast_path(self, case):
        dim, body = case
        ids, values = read_id_rows(io.StringIO(body), dim)
        slow = feature_outcome(Unseekable(io.StringIO(f"#dim={dim}\n" + body)))
        assert list(zip(ids, values.view(np.uint64).tolist())) == slow

    def test_unicode_space_inside_a_line_is_not_dropped(self):
        # numpy splits on U+3000 too, and usecols would drop the extra column
        with pytest.raises(InputError, match="line 2: expected id \\+ 2 values, got 3"):
            read_features(io.StringIO("#dim=2\na 1.0\u30002.0 3\n"))

    @pytest.mark.parametrize("body", ["a 1\nb 1_0\n", "a 1\n\nb 2\n",
                                      "a 1\nb inf\n", "a 1\nb 1 2\n", "",
                                      "a 1 2\nb 3 4\n", "a\nb\n"])
    def test_fallback_rewinds_the_stream(self, body):
        # "a 1 2\nb 3 4\n" has one value too many on every row: only the
        # shape check, not numpy's column-count check, sees it
        stream = io.StringIO("#dim=1\n" + body)
        stream.readline()
        assert _fast_id_rows(stream, 1) is None
        assert stream.read() == body

    @pytest.mark.parametrize("char", ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
                                      "\x85", "\u2028"])
    @pytest.mark.parametrize("line", ["a 1{0}2", "a 1 2{0}", "a 1{0}{0}2", "a 1{0}\r2"])
    def test_separator_in_a_rest_gives_one_row(self, char, line):
        """numpy reads each wanted rest as one row: it raises on a line
        break inside one, and splits values on the other separators as
        ``str.split`` does, so the fast path needs no row count check."""
        text = "#dim=2\n" + line.format(char) + "\nb 3 4\n"
        assert (feature_outcome(io.StringIO(text))
                == feature_outcome(Unseekable(io.StringIO(text))))
        stream = io.StringIO(text)
        stream.readline()
        fast = _fast_id_rows(stream, 2)
        assert fast is None or len(fast[1]) == len(fast[0]) == 2

    def test_fast_path_keeps_repeated_ids(self):
        ids, values = _fast_id_rows(io.StringIO("a 1\na 2\n"), 1)
        assert ids == ["a", "a"] and values.tolist() == [[1.0], [2.0]]

    def test_word_vectors_take_their_dim_from_the_values(self):
        ids, values = read_id_rows(io.StringIO("Cat 1 2 3\ndog 4 5 6\n"))
        assert ids == ["Cat", "dog"] and values.tolist() == [[1, 2, 3], [4, 5, 6]]
        body = "cat 1 2 3\ndog 4 5\n"
        stream = io.StringIO(body)
        assert _fast_id_rows(stream, None) is None and stream.read() == body
        with pytest.raises(InputError,
                           match="^line 2: expected id \\+ 3 values, got 2 values$"):
            load_word_vectors(io.StringIO(body))

    @pytest.mark.parametrize("body, message", [
        ("a 1 2\nb 1 2 3\n", "line {}: expected id + 2 values, got 3 values"),
        ("a 1 2\nb\n", "line {}: id 'b' has no values"),
        ("a 1 2\nb 1 x\n", "line {}: could not convert string to float: 'x'"),
        ("a 1 2\nb 1 inf\n", "line {}: non-finite value for 'b'"),
    ], ids=["wrong-count", "id-only", "bad-token", "inf"])
    def test_features_and_word_vectors_share_messages(self, body, message):
        # the feature file's #dim header is its line 1
        with pytest.raises(InputError) as features_error:
            read_features(io.StringIO("#dim=2\n" + body))
        with pytest.raises(InputError) as vectors_error:
            load_word_vectors(io.StringIO(body))
        assert str(features_error.value) == message.format(3)
        assert str(vectors_error.value) == message.format(2)

    def test_undecodable_byte_is_not_swallowed(self, tmp_path):
        path = tmp_path / "features.txt"
        path.write_bytes(b"#dim=1\na 1.0\nb 2.0\n\xff")
        with open(path, encoding="utf-8") as fh, pytest.raises(UnicodeDecodeError):
            read_features(fh)


ROW_FAULTS = ["1_0", "count", "inf", "token", "blank", "id-only", "repeat", "missing",
              "unlabelled"]


@st.composite
def labelled_feature_files(draw):
    """(dim, text, label ids, rows) for load_features: a #dim file of rows in
    random order, most clean and some with a fault: a ``1_0`` token numpy does
    not parse, a wrong value count, a non-finite value, a bad token, a blank
    line before the row, an id-only line, a repeated or missing row, or an
    extra row no label names; label ids in another order; distinct rows."""
    dim = draw(st.integers(1, 3))
    n = draw(st.integers(1, 8))
    label_ids = [f"r{k}" for k in range(n)]
    lines = []
    for sample_id in label_ids:
        fault = rarely(draw, st.sampled_from(ROW_FAULTS), st.just(None), 3)
        values = [draw(FLOATS) for _ in range(dim)]
        if fault in ("1_0", "inf", "token"):
            values[draw(st.integers(0, dim - 1))] = {"1_0": "1_0", "inf": "inf",
                                                     "token": "x"}[fault]
        line = " ".join([sample_id] + values + (["1.0"] if fault == "count" else []))
        lines += {"blank": ["", line], "id-only": [sample_id], "repeat": [line, line],
                  "missing": [], "unlabelled": [line, "extra" + line]}.get(fault, [line])
    lines = draw(st.permutations(lines))
    label_ids = draw(st.permutations(label_ids))
    rows = draw(st.lists(st.integers(0, n - 1), unique=True))
    return dim, f"#dim={dim}\n" + "".join(line + "\n" for line in lines), label_ids, rows


def features_outcome(stream, ids, rows=None):
    """The shape and float64 bits of load_features' result, or its InputError
    message."""
    try:
        values = load_features(stream, ids, rows)
        return values.shape, values.view(np.uint64).tolist()
    except InputError as exc:
        return str(exc)


class TestWantedRows:
    """load_features converts only the rows asked for and gives the rows and
    messages of a full read."""

    @settings(max_examples=300, deadline=None)
    @given(labelled_feature_files())
    def test_rows_match_the_full_read(self, case):
        dim, text, ids, rows = case
        part = features_outcome(io.StringIO(text), ids, rows)
        assert part == features_outcome(Unseekable(io.StringIO(text)), ids, rows)
        full = features_outcome(io.StringIO(text), ids)
        if isinstance(full, tuple):
            assert part == ((len(rows), dim), [full[1][k] for k in rows])
        elif full.startswith("line "):
            # a value fault fails the part too when its row is wanted
            line_no = int(full.split(":")[0][len("line "):])
            if text.splitlines()[line_no - 1].split()[0] in {ids[k] for k in rows}:
                assert part == full
        else:   # a repeated or missing id fails every read
            assert part == full
        if not rows and not isinstance(part, str):
            assert part == ((0, dim), [])

    @pytest.mark.parametrize("stream_of", [io.StringIO, lambda text: Unseekable(
        io.StringIO(text))], ids=["fast", "exact"])
    def test_faults_in_unwanted_rows_are_not_read(self, stream_of):
        text = "#dim=2\na 1 2\nb inf 1\nc 1 2 3\nd 1_0 x\nz nan nan\ne 5 6\n"
        values = load_features(stream_of(text), ["a", "b", "c", "d", "e"], [4, 0])
        assert values.tolist() == [[5.0, 6.0], [1.0, 2.0]]
        with pytest.raises(InputError, match="^line 4: expected id \\+ 2 values, got 3"):
            load_features(stream_of(text), ["a", "b", "c", "d", "e"], [2])

    def test_no_wanted_row_keeps_the_dimension_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = load_features(io.StringIO("#dim=3\na 1 2 3\nb 4 5 6\n"), ["a", "b"], [])
        assert values.shape == (0, 3) and values.dtype == np.float64
