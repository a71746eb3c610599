"""Tests for the determinism checker (repro.verify.determinism), including
the cross-backend bitwise regression coverage for ``mc.multilevel`` and
``mc.american`` that previously existed only for direct MC."""

from __future__ import annotations

import pytest

from repro.parallel.backends import make_backend
from repro.verify.determinism import (DETERMINISM_CHECKS, LSM_CFG, MLMC_CFG,
                                      DeterminismResult, float_bits,
                                      lsm_worker, mlmc_worker,
                                      run_determinism)

N_PATHS = 8_000
SEED = 5


def test_float_bits_is_bit_exact():
    assert float_bits(1.0) == "3ff0000000000000"
    assert float_bits(1.0) != float_bits(1.0 + 2 ** -52)
    assert float_bits(0.0) != float_bits(-0.0)


def test_full_checker_passes():
    results = run_determinism()
    failures = [r for r in results if not r.ok]
    assert not failures, "\n".join(str(r) for r in failures)
    assert {r.check for r in results} == set(DETERMINISM_CHECKS)


@pytest.mark.parametrize("name", sorted(DETERMINISM_CHECKS))
def test_each_check_passes_standalone(name):
    for r in DETERMINISM_CHECKS[name](N_PATHS, SEED):
        assert r.ok, str(r)


def test_nondeterminism_is_reported_with_bit_patterns():
    bad = DeterminismResult("backend-invariance", "synthetic", False,
                            {"serial": "3ff0000000000000",
                             "thread": "3ff0000000000001"})
    text = str(bad)
    assert "NONDETERMINISTIC" in text
    assert "3ff0000000000000" in text and "3ff0000000000001" in text
    assert bad.to_dict()["ok"] is False


class TestCrossBackendBitwise:
    """mc.multilevel and mc.american across serial/thread/process backends."""

    @pytest.mark.parametrize("worker,cfg", [(mlmc_worker, MLMC_CFG),
                                            (lsm_worker, LSM_CFG)],
                             ids=["multilevel", "american-lsm"])
    def test_backends_agree_bitwise(self, worker, cfg):
        bits = {}
        for name in ("serial", "thread", "process"):
            with make_backend(name, 2) as backend:
                prices = backend.map(worker, [dict(cfg)] * 2)
            # Identical tasks within one backend map bitwise...
            assert float_bits(prices[0]) == float_bits(prices[1])
            bits[name] = float_bits(prices[0])
        # ...and across backends.
        assert len(set(bits.values())) == 1, bits

    @pytest.mark.parametrize("worker,cfg", [(mlmc_worker, MLMC_CFG),
                                            (lsm_worker, LSM_CFG)],
                             ids=["multilevel", "american-lsm"])
    def test_seed_actually_matters(self, worker, cfg):
        # Guard against the checks passing vacuously (e.g. a constant
        # price): a different seed must move the bits.
        base = worker(dict(cfg))
        other = worker({**cfg, "seed": cfg["seed"] + 1})
        assert float_bits(base) != float_bits(other)
