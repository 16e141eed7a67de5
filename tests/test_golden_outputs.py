"""The byte-identical output contract, checked in tier-1: every output of
the smoke runs in ``tools/same_outputs.py`` must hash to the digest pinned
in tests/golden_outputs.json (written by ``same_outputs.py src --pin``)."""

import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "tools"))

from same_outputs import (GOLDEN, blas_versions, compare, smoke_digests,  # noqa: E402
                          version_mismatch)


def test_every_output_matches_its_pinned_digest(capsys):
    with open(GOLDEN, encoding="utf-8") as fh:
        pinned = json.load(fh)
    mismatch = version_mismatch(pinned)
    if mismatch:
        pytest.fail(mismatch)
    got = smoke_digests(os.path.join(ROOT, "src"), pinned["seed"])
    differ = sum(compare(name, pinned["outputs"].get(name, {}), got.get(name, {}),
                         sides=("pin", "tree"))
                 for name in {**pinned["outputs"], **got})
    assert differ == 0, capsys.readouterr().out


def test_another_version_names_both():
    here = blas_versions()
    assert version_mismatch(dict(here)) is None
    message = version_mismatch(dict(here, numpy="1.0.0"))
    assert "numpy 1.0.0 with" in message and f"numpy {here['numpy']} with" in message
    message = version_mismatch(dict(here, blas="openblas 0.1"))
    assert "with openblas 0.1," in message and f"with {here['blas']};" in message
    assert "numpy None with None" in version_mismatch({})


def test_digest_differences_are_named(capsys):
    pinned = {"train/exit": "aa", "train/stdout": "bb", "train/roc.csv": None,
              "eval/exit": "cc"}
    tree = {"train/exit": "aa", "train/stdout": "bX", "train/roc.csv": "dd",
            "sweep/exit": "ee"}
    assert compare("w", pinned, tree, sides=("pin", "tree")) == 4
    assert capsys.readouterr().out.splitlines() == [
        "DIFF w train/stdout: SHA-256 differs",
        "DIFF w train/roc.csv: missing from the pin",
        "DIFF w eval/exit: missing from the tree",
        "DIFF w sweep/exit: missing from the pin"]
