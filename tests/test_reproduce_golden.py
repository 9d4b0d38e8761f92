"""The `reproduce` outputs against their golden record.

Every target of `repro.TARGETS` is rerun and each recorded number (the
assertions' measured and expected values and the target's `data`) must match
the record to its relative tolerance, with an absolute floor for values near
zero; flags, names and the record's shape must match exactly.  A change that
moves outputs on purpose regenerates the record with
`tests/make_reproduce_golden.py` in the same diff.
"""

import json

import pytest

from kelvin import repro

from make_reproduce_golden import GOLDEN_PATH, mismatches, target_record

GOLDEN = json.loads(GOLDEN_PATH.read_text())


def test_record_covers_every_target():
    assert list(GOLDEN["targets"]) == list(repro.TARGETS)
    assert set(GOLDEN["target_rel_tol"]) <= set(repro.TARGETS)


def test_known_failures_stay_recorded():
    """fig4, fig8 and fig10 miss their embedded reference values (ROADMAP
    item 10); the record keeps them visible."""
    failing = [name for name, rec in GOLDEN["targets"].items() if not rec["passed"]]
    assert failing == ["fig4", "fig8", "fig10"]


@pytest.mark.parametrize("name", list(repro.TARGETS))
def test_target_matches_golden_record(name, reproduced):
    tol = GOLDEN["target_rel_tol"].get(name, {"rel_tol": GOLDEN["rel_tol"]})["rel_tol"]
    bad = mismatches(GOLDEN["targets"][name], target_record(reproduced(name)), tol,
                     GOLDEN["abs_floor"])
    assert not bad, "\n".join(bad[:10])
