"""Gaussian transforms: moments, tail behaviour, consumption contracts."""

import hashlib

import numpy as np
import pytest
from scipy import stats

from repro.errors import ValidationError
from repro.rng import (
    Lcg64,
    Philox4x32,
    normals_boxmuller,
    normals_inverse,
    normals_polar,
)

_GENERATORS = {"philox": Philox4x32, "lcg64": Lcg64}

# sha256 of ``cls(11).<fn>(n).tobytes()`` captured at 57cb2ef, before the
# draw was chunked, at sizes either side of one and three 16 384-draw chunks.
_PINNED_DRAWS = {
    ("philox", "normals", 16383): "77cb42b89a2fec848b9e95b617603901b63fa3c78d683423da6a2fc92621deeb",
    ("philox", "normals", 16384): "0a102cca0bdff37d96d4317122e29af73b3e572802e5713f3450f48860d3a3a7",
    ("philox", "normals", 16385): "c7fb830cca664fa794213102c2f8b99c8ecb6d6963830c8c248e5ddbd961ba12",
    ("philox", "normals", 49157): "635c2b56801519f544066dee75d1fe7378b6dd00c4bb9ab73e34aa00001dbf33",
    ("philox", "uniforms_open", 16383): "28c6f1ce0af4e1a0b30c206d2e7919c267ad2df51e213bff907d752848191423",
    ("philox", "uniforms_open", 16384): "f5d08dd1856bbd21516a92b9acdfc4179abcee03851ee3e20248cde09ca44ab5",
    ("philox", "uniforms_open", 16385): "71ef0a69fcfe12b58e93ae06a0e0ef8d8858b6eceb604e8ecb483b8aaa335bb5",
    ("philox", "uniforms_open", 49157): "fefb9942e41dba9cd1ac57c602787e9203057fbb640b254bcda2b136683f9983",
    ("lcg64", "normals", 16383): "8458b01e37e5b48bb1e0c936c520c835b2a1a3a50b070ea149052a49915c61c4",
    ("lcg64", "normals", 16384): "0f6b1c957ebc8d8550370b4e71a68539beb34426e65765a41393100d3311a6c3",
    ("lcg64", "normals", 16385): "fb57fe7a4532ad4c7854c0c385c674012eb83c23abaf9d59c45e16db09605faf",
    ("lcg64", "normals", 49157): "1a07db845abd11064b20f20c815f880d1df658601ad545d661b5591a29d8d404",
    ("lcg64", "uniforms_open", 16383): "2fdaaf3cb723a38dc9e6d1b165fb60f3fab770e5a3d98bb84fcce20adc367320",
    ("lcg64", "uniforms_open", 16384): "5ff0bbfb96460a1c2d0f01da95238b714062ea5f46ad98d57c944a5d078c3d0b",
    ("lcg64", "uniforms_open", 16385): "5bb7ce5482e1e58aa851206e06bbe3051492d211060b7d6df4b5a5fc9ff5da80",
    ("lcg64", "uniforms_open", 49157): "c7e9a1f1304fce1b4bb2e3fcef2c64d6d41bc0f83b23c4922c2081f9005b47fb",
}


@pytest.mark.parametrize("name,fn,n", list(_PINNED_DRAWS), ids=lambda v: str(v))
def test_draw_bytes_pinned(name, fn, n):
    draw = getattr(_GENERATORS[name](11), fn)(n)
    assert draw.dtype == np.float64 and draw.shape == (n,)
    assert hashlib.sha256(draw.tobytes()).hexdigest() == _PINNED_DRAWS[name, fn, n]


@pytest.mark.parametrize("method", ["inverse", "boxmuller", "polar"])
class TestDistribution:
    def test_moments(self, method):
        z = Philox4x32(1).normals(200_000, method=method)
        assert abs(z.mean()) < 0.01
        assert abs(z.std() - 1.0) < 0.01
        assert abs(stats.skew(z)) < 0.05

    def test_kolmogorov_smirnov(self, method):
        z = Philox4x32(2).normals(50_000, method=method)
        stat, pvalue = stats.kstest(z, "norm")
        assert pvalue > 1e-4, f"{method} failed KS: stat={stat}, p={pvalue}"

    def test_requested_count(self, method):
        for n in (0, 1, 2, 7, 1001):
            assert Philox4x32(3).normals(n, method=method).shape == (n,)


class TestInverseSpecifics:
    def test_consumes_exactly_one_uniform_per_normal(self):
        # Critical contract for QMC and leapfrog streams.
        g = Philox4x32(5)
        normals_inverse(g, 37)
        assert g.position == 37

    def test_sign_matches_uniform_half(self):
        # z_i = Φ⁻¹(u_i), so sign(z_i) = sign(u_i − ½) draw by draw.
        u = Philox4x32(7).uniforms_open(1000)
        z = normals_inverse(Philox4x32(7), 1000)
        mismatches = np.sign(z) != np.sign(u - 0.5)
        assert not mismatches.any() or np.allclose(u[mismatches], 0.5)


class TestBoxMullerSpecifics:
    def test_pairs_have_unit_rayleigh_radius(self):
        z = normals_boxmuller(Philox4x32(9), 100_000)
        r2 = z[0::2] ** 2 + z[1::2] ** 2
        # R² of a Gaussian pair is Exp(1/2): mean 2.
        assert abs(r2.mean() - 2.0) < 0.05

    def test_odd_count(self):
        assert normals_boxmuller(Philox4x32(1), 7).shape == (7,)


class TestPolarSpecifics:
    def test_fills_request(self):
        assert normals_polar(Philox4x32(11), 12345).shape == (12345,)

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            normals_polar(Philox4x32(0), -1)


def test_methods_agree_in_distribution():
    zs = {
        m: np.sort(Philox4x32(21).normals(40_000, method=m))
        for m in ("inverse", "boxmuller", "polar")
    }
    # Same distribution → sorted samples close in Kolmogorov distance.
    for m in ("boxmuller", "polar"):
        stat = np.max(np.abs(zs["inverse"] - zs[m]))
        # Quantile agreement in the bulk (tails are noisier).
        q = np.linspace(0.05, 0.95, 19)
        qa = np.quantile(zs["inverse"], q)
        qb = np.quantile(zs[m], q)
        assert np.max(np.abs(qa - qb)) < 0.05, m


def test_unknown_method_rejected():
    with pytest.raises(ValidationError):
        Philox4x32(0).normals(10, method="ziggurat")
