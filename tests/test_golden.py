"""Replay the frozen golden corpus byte for byte (see freeze_golden.py)."""

from pfinhier import Hierarchy

from freeze_golden import GOLDEN, build_corpus, dumps


def test_golden_corpus_replays_identically():
    assert dumps(build_corpus(Hierarchy(floor_level=4))) == GOLDEN.read_text()
