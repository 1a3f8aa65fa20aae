"""Every 8th config of the results corpus against its committed listing,
`tools/results_corpus.txt`.  The full run stays a tool:
`python tools/results_corpus.py src --check tools/results_corpus.txt`."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("results_corpus", ROOT / "tools" / "results_corpus.py")
corpus = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(corpus)


def test_differences_name_changed_added_and_gone_configs():
    pinned = {0: "0 energy 0 aa11", 1: "1 spectrum 0 bb", 3: "3 plant 0 dd"}
    rows = [(0, "energy", 0, "aa11"), (1, "spectrum", 1, "bb22"), (2, "bench", 0, "cc33")]
    assert corpus.differences(pinned, rows) == [
        "changed: 1 spectrum 0 bb -> 1 spectrum 1 bb22",
        "added: 2 bench 0 cc33",
        "gone: 3 plant 0 dd",
    ]


def test_every_8th_config_keeps_its_listed_digest():
    interpreter, pinned = corpus.read_listing(ROOT / "tools" / "results_corpus.txt")
    if interpreter != corpus.INTERPRETER:
        pytest.skip(f"the listing holds for {interpreter}, not for {corpus.INTERPRETER}")
    every_8th = {i: line for i, line in pinned.items() if i % 8 == 0}
    assert corpus.differences(every_8th, corpus.digests(every=8)) == []
