"""Word-vector loading and the C x D2 label embedding matrix.

Multi-word labels embed as the mean of their word vectors. A synthetic
generator provides deterministic per-label vectors so pipelines and tests
run without a pretrained word-vector file.
"""

import hashlib
import warnings

import numpy as np

from .data import LabelVocabulary, read_id_rows
from .errors import InputError


def load_word_vectors(stream) -> dict[str, np.ndarray]:
    """Parse ``word v1 ... vD2`` lines into a dict from lower-cased word to
    vector; duplicate words keep the last entry."""
    fast = read_id_rows(stream, key=str.lower)
    if fast is not None:
        words, values = fast
        return dict(zip(words, values))
    entries: dict[str, np.ndarray] = {}
    dim = None
    for line_no, line in enumerate(stream, start=1):
        tokens = line.split()
        if not tokens:
            continue
        word = tokens[0].lower()
        if len(tokens) < 2:
            raise InputError(f"line {line_no}: word {word!r} has no vector values")
        try:
            vec = np.array([float(t) for t in tokens[1:]], dtype=np.float64)
        except ValueError as exc:
            raise InputError(f"line {line_no}: {exc}") from None
        if dim is None:
            dim = len(vec)
        elif len(vec) != dim:
            raise InputError(f"line {line_no}: vector of dim {len(vec)}, expected {dim}")
        if not np.all(np.isfinite(vec)):
            raise InputError(f"line {line_no}: non-finite value for word {word!r}")
        if word in entries:
            warnings.warn(f"duplicate word {word!r}; keeping the last occurrence")
        entries[word] = vec
    if dim is None:
        raise InputError("word-vector file contains no entries")
    return entries


def embed_labels(vocab: LabelVocabulary, vectors: dict[str, np.ndarray],
                 oov_fallback_seed: int | None = None) -> np.ndarray:
    """The C x D2 label embedding matrix, in vocabulary order: row j is the
    mean of the word vectors of label j's tokens.

    Missing words are fatal unless a fallback seed is given, in which case
    the synthetic generator supplies a deterministic stand-in vector.
    """
    dim = len(next(iter(vectors.values()), ()))
    rows = []
    for label, words in zip(vocab.labels, vocab.words_per_label):
        vecs = []
        for word in words:
            vec = vectors.get(word)
            if vec is None:
                if oov_fallback_seed is None:
                    raise InputError(f"word {word!r} of label {label!r} "
                                     f"is missing from the embedding table")
                vec = _hash_vector(f"word:{word}", dim, oov_fallback_seed)
            vecs.append(vec)
        rows.append(np.mean(vecs, axis=0))
    return np.stack(rows)


def synthetic_embeddings(vocab: LabelVocabulary, dim: int, seed: int) -> np.ndarray:
    """A C x dim matrix of deterministic per-(label, dim, seed) rows with
    entries in [-1, 1]."""
    if dim < 1:
        raise InputError(f"embedding dim must be >= 1, got {dim}")
    rows = [_hash_vector(f"label:{label}", dim, seed) for label in vocab.labels]
    return np.stack(rows)


def _hash_vector(text: str, dim: int, seed: int) -> np.ndarray:
    digest = hashlib.sha256(f"{seed}:{dim}:{text}".encode("utf-8")).digest()
    rng = np.random.Generator(np.random.PCG64(int.from_bytes(digest[:8], "little")))
    return rng.uniform(-1.0, 1.0, size=dim)
