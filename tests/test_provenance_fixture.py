"""Decision-provenance streams match the ones an earlier build pinned.

``tests/data/provenance_v1/expected.json`` holds sha256 digests of the
``PlacementDecided``/``MigrationDecided`` streams its ``generate.py``
instances produced under the build that wrote it, and of every placer's
unexplained assignment.  This tree must reproduce each one byte for byte:
the candidate rows an event keeps, their order, verdicts and scores, the
drop counts, the decision ids and the assignments.
"""

import json
from pathlib import Path

import pytest

from tests.test_placement_rejections import ALL_PLACERS, GENERATE

FIXTURES = Path(__file__).parent / "data" / "provenance_v1"
EXPECTED = json.loads((FIXTURES / "expected.json").read_text())


def test_fixture_covers_every_placer():
    assert set(EXPECTED["placement"]) == {p.id for p in ALL_PLACERS}
    assert (EXPECTED["streams_written_by_first_fit"]
            == list(GENERATE.STREAMS_WRITTEN_BY_FIRST_FIT))


@pytest.mark.parametrize("name", sorted(EXPECTED["placement"]))
def test_placement_streams_match(name):
    make = GENERATE.PLACERS[name]
    assert GENERATE.placements_of(name, make) == EXPECTED["placement"][name]


def test_online_stream_matches():
    assert GENERATE.online() == EXPECTED["online"]


def test_migration_stream_matches():
    assert GENERATE.migrations() == EXPECTED["migration"]


def test_fixture_exercises_every_veto():
    seen = set(EXPECTED["online"]["verdicts"])
    seen |= set(EXPECTED["migration"]["verdicts"])
    for cases in EXPECTED["placement"].values():
        for case in cases.values():
            seen |= set(case["verdicts"])
    assert seen == {"chosen", "feasible", "capacity", "cvr_threshold",
                    "vm_cap", "spread_constraint", "draining_pm",
                    "crashed_pm", "blacklisted_pm", "source_pm"}
    outcomes = {case["outcome"] for cases in EXPECTED["placement"].values()
                for case in cases.values()}
    assert outcomes == {"placed", "infeasible"}
    assert EXPECTED["online"]["rejected"] > 0
    assert EXPECTED["migration"]["unresolved"] > 0
