import io

import numpy as np
import pytest

from labelbridge import (LabelVocabulary, embed_labels, load_word_vectors,
                         synthetic_embeddings)
from labelbridge.errors import InputError

GLOVE = """pleural 1.0 2.0 3.0
effusion 3.0 4.0 5.0
mass 0.5 0.5 0.5
"""


class TestLoadWordVectors:
    def test_format_echo(self):
        vectors = load_word_vectors(io.StringIO("cat 1.0 2.0 3.0\ndog 0.0 1.0 0.0\n"))
        assert len(vectors["dog"]) == 3
        assert vectors["cat"].tolist() == [1.0, 2.0, 3.0]

    def test_inconsistent_dims_fatal(self):
        with pytest.raises(InputError, match="expected id \\+ 3 values"):
            load_word_vectors(io.StringIO("cat 1.0 2.0 3.0\ndog 1.0 2.0 3.0 4.0\n"))

    def test_duplicate_word_last_wins_with_warning(self):
        with pytest.warns(UserWarning, match="duplicate"):
            vectors = load_word_vectors(io.StringIO("cat 1.0\ncat 2.0\n"))
        assert vectors["cat"].tolist() == [2.0]

    def test_non_finite_fatal(self):
        with pytest.raises(InputError, match="non-finite"):
            load_word_vectors(io.StringIO("cat inf 1.0\n"))

    def test_empty_file_fatal(self):
        with pytest.raises(InputError):
            load_word_vectors(io.StringIO(""))

    def test_words_lowercased(self):
        vectors = load_word_vectors(io.StringIO("Cat 1.0\n"))
        assert "cat" in vectors


class TestEmbedLabels:
    def test_two_word_label_averages(self):
        vocab = LabelVocabulary(["pleural effusion", "mass"])
        vectors = load_word_vectors(io.StringIO(GLOVE))
        emb = embed_labels(vocab, vectors)
        assert emb[0].tolist() == [2.0, 3.0, 4.0]

    def test_single_word_unchanged(self):
        vocab = LabelVocabulary(["mass", "effusion"])
        vectors = load_word_vectors(io.StringIO(GLOVE))
        emb = embed_labels(vocab, vectors)
        assert emb[0].tolist() == [0.5, 0.5, 0.5]

    def test_micro_vocab_exact_means(self):
        vocab = LabelVocabulary(["x y z", "x"])
        vectors = load_word_vectors(io.StringIO("x 3.0 0.0\ny 0.0 3.0\nz 3.0 3.0\n"))
        emb = embed_labels(vocab, vectors)
        assert emb[0].tolist() == [2.0, 2.0]
        assert emb[1].tolist() == [3.0, 0.0]

    def test_underscore_labels_split(self):
        vocab = LabelVocabulary(["Pleural_Effusion", "mass"])
        vectors = load_word_vectors(io.StringIO(GLOVE))
        emb = embed_labels(vocab, vectors)
        assert emb[0].tolist() == [2.0, 3.0, 4.0]

    def test_missing_word_fatal_names_word(self):
        vocab = LabelVocabulary(["hernia", "mass"])
        vectors = load_word_vectors(io.StringIO(GLOVE))
        with pytest.raises(InputError, match="'hernia'"):
            embed_labels(vocab, vectors)

    def test_fallback_fills_missing_word_deterministically(self):
        vocab = LabelVocabulary(["hernia", "mass"])
        vectors = load_word_vectors(io.StringIO(GLOVE))
        a = embed_labels(vocab, vectors, oov_fallback_seed=1)
        b = embed_labels(vocab, vectors, oov_fallback_seed=1)
        assert np.array_equal(a, b)
        assert np.array_equal(a[1], vectors["mass"])

    def test_permutation_equivariance(self):
        vectors = load_word_vectors(io.StringIO(GLOVE))
        forward = embed_labels(LabelVocabulary(["pleural", "effusion", "mass"]), vectors)
        backward = embed_labels(LabelVocabulary(["mass", "effusion", "pleural"]), vectors)
        assert np.array_equal(forward[[2, 1, 0]], backward)

    def test_shared_vector_tokens_embed_to_that_vector(self):
        vectors = load_word_vectors(io.StringIO("p 1.0 2.0\nq 1.0 2.0\nr 0.0 0.0\n"))
        emb = embed_labels(LabelVocabulary(["p q", "r"]), vectors)
        assert emb[0].tolist() == [1.0, 2.0]


class TestSyntheticEmbeddings:
    def test_deterministic(self):
        vocab = LabelVocabulary(["a", "b", "c"])
        assert np.array_equal(synthetic_embeddings(vocab, 8, seed=3),
                              synthetic_embeddings(vocab, 8, seed=3))

    def test_different_seeds_differ(self):
        vocab = LabelVocabulary(["a", "b", "c"])
        assert not np.array_equal(synthetic_embeddings(vocab, 8, seed=3),
                                  synthetic_embeddings(vocab, 8, seed=4))

    def test_shape_and_range(self):
        vocab = LabelVocabulary(["a", "b"])
        emb = synthetic_embeddings(vocab, 1, seed=0)
        assert emb.shape == (2, 1)
        wide = synthetic_embeddings(vocab, 64, seed=0)
        assert np.all(wide >= -1.0) and np.all(wide <= 1.0)

    def test_rows_depend_only_on_label_name(self):
        a = synthetic_embeddings(LabelVocabulary(["x", "y"]), 6, seed=5)
        b = synthetic_embeddings(LabelVocabulary(["y", "x"]), 6, seed=5)
        assert np.array_equal(a[0], b[1])
        assert not np.array_equal(a[0], a[1])

    def test_dim_validated(self):
        with pytest.raises(InputError):
            synthetic_embeddings(LabelVocabulary(["a", "b"]), 0, seed=0)
