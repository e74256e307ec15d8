"""Replay the frozen golden corpus byte for byte (see freeze_golden.py)."""

import json

from pfinhier import Hierarchy, parse_rational

from freeze_golden import GOLDEN, build_corpus, dumps


def test_golden_corpus_replays_identically():
    frozen = GOLDEN.read_text()
    ladder = [parse_rational(x) for x in json.loads(frozen)["ladder_predecessor"]]
    assert dumps(build_corpus(Hierarchy(floor_level=4), sorted(ladder))) == frozen
