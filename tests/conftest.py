import io

import pytest

from labelbridge import LabelVocabulary, parse_pipe_labels

MICRO_CSV = "img1,a|b\nimg2,a\nimg3,b|c\nimg4,a|b\n"


@pytest.fixture
def micro_vocab():
    return LabelVocabulary(["a", "b", "c"])


@pytest.fixture
def micro_labels(micro_vocab):
    return parse_pipe_labels(io.StringIO(MICRO_CSV), micro_vocab)[1]
