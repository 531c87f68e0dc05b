"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass/fail lines; the CLI ``srf selftest`` executes the same functions.
"""

import pytest

from srflimits.acceptance import ALL_CRITERIA, run


@pytest.mark.parametrize("criterion", ALL_CRITERIA,
                         ids=[fn.__name__ for fn in ALL_CRITERIA])
def test_acceptance(criterion):
    outcome = run(criterion)
    verdict = "PASS" if outcome.passed else "FAIL"
    print(f"{outcome.name}: {verdict} ({outcome.seconds:.1f}s) — {outcome.detail}")
    assert outcome.passed, f"{outcome.name}: {outcome.detail}"


def test_run_names_and_times_the_criterion():
    def criterion_stub():
        return 1, "stub detail"

    outcome = run(criterion_stub)
    assert (outcome.name, outcome.passed, outcome.detail) == \
        ("criterion_stub", True, "stub detail")
    assert outcome.seconds >= 0
