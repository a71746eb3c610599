"""Tests for the metamorphic property suite (repro.verify.metamorphic)."""

from __future__ import annotations

import pytest

from repro.verify.metamorphic import (METAMORPHIC_CHECKS, PropertyResult,
                                      run_metamorphic)

N_PATHS = 8_000
SEED = 3


def test_full_suite_holds():
    results = run_metamorphic()
    failures = [r for r in results if not r.ok]
    assert not failures, "\n".join(str(r) for r in failures)
    # Every registered check contributed at least one result.
    assert {r.prop for r in results} == set(METAMORPHIC_CHECKS)


def test_suite_is_deterministic():
    first = run_metamorphic()
    second = run_metamorphic()
    assert [r.measured for r in first] == [r.measured for r in second]


@pytest.mark.parametrize("name", sorted(METAMORPHIC_CHECKS))
def test_each_check_passes_standalone(name):
    for r in METAMORPHIC_CHECKS[name](N_PATHS, SEED):
        assert r.ok, str(r)
        assert r.prop == name


def test_exact_properties_have_zero_residual():
    """CRN ordering and schedule invariance are deterministic claims:
    their residuals must be exactly zero, not merely within tolerance."""
    strike = METAMORPHIC_CHECKS["strike-monotonicity"](N_PATHS, SEED)
    sched = METAMORPHIC_CHECKS["schedule-invariance"](N_PATHS, SEED)
    for r in strike + sched:
        assert r.measured == 0.0, str(r)


def test_violation_is_reported_not_raised():
    bad = PropertyResult("put-call-parity", "synthetic", False, 1.0, 0.1)
    assert not bad.ok
    text = str(bad)
    assert "VIOLATED" in text and "put-call-parity" in text
    doc = bad.to_dict()
    assert doc["ok"] is False and doc["measured"] == 1.0


def test_to_dict_round_trip():
    results = run_metamorphic()
    for r in results:
        doc = r.to_dict()
        assert set(doc) == {"prop", "subject", "ok", "measured", "allowed",
                            "detail"}
        assert doc["ok"] is True
