"""Substream construction: disjointness, determinism, scheme contracts."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.rng import (
    Lcg64,
    Philox4x32,
    StreamPartition,
    block_substream,
    leapfrog_substream,
    make_substreams,
)
from repro.rng.base import _TILE


class TestBlockSplitting:
    def test_blocks_tile_the_master_stream(self):
        master = Philox4x32(3)
        ref = master.clone().random_raw(300)
        subs = [block_substream(master, r, block_size=100) for r in range(3)]
        got = np.concatenate([s.random_raw(100) for s in subs])
        assert np.array_equal(got, ref)

    def test_validation(self):
        with pytest.raises(ValidationError):
            block_substream(Philox4x32(0), -1)
        with pytest.raises(ValidationError):
            block_substream(Philox4x32(0), 0, block_size=0)


class TestLeapfrog:
    def test_leapfrog_covers_master_stream(self):
        master = Lcg64(17)
        ref = master.clone().random_raw(120)
        lanes = [leapfrog_substream(master, r, 4).random_raw(30) for r in range(4)]
        woven = np.empty(120, dtype=np.uint64)
        for r in range(4):
            woven[r::4] = lanes[r]
        assert np.array_equal(woven, ref)

    def test_requires_lcg(self):
        with pytest.raises(ValidationError, match="Lcg64"):
            leapfrog_substream(Philox4x32(0), 0, 2)

    def test_rank_bounds(self):
        with pytest.raises(ValidationError):
            leapfrog_substream(Lcg64(0), 2, 2)


class TestMakeSubstreams:
    @pytest.mark.parametrize("scheme", ["keyed", "block", "leapfrog"])
    def test_deterministic_per_scheme(self, scheme):
        master_a = Lcg64(5)
        master_b = Lcg64(5)
        subs_a = make_substreams(master_a, 4, scheme)
        subs_b = make_substreams(master_b, 4, scheme)
        for sa, sb in zip(subs_a, subs_b):
            assert np.array_equal(sa.random_raw(64), sb.random_raw(64))

    @pytest.mark.parametrize(
        "gen_cls,scheme",
        [
            (Philox4x32, "keyed"),
            (Philox4x32, "block"),
            (Lcg64, "keyed"),
            (Lcg64, "block"),
            (Lcg64, "leapfrog"),
        ],
    )
    def test_pairwise_distinct_streams(self, gen_cls, scheme):
        subs = make_substreams(gen_cls(7), 4, scheme)
        draws = [s.random_raw(256) for s in subs]
        for i in range(4):
            for j in range(i + 1, 4):
                assert not np.array_equal(draws[i], draws[j])

    def test_substream_statistics_remain_uniform(self):
        subs = make_substreams(Philox4x32(9), 3, StreamPartition.KEYED)
        for s in subs:
            u = s.uniforms(50_000)
            assert abs(u.mean() - 0.5) < 0.01

    def test_enum_and_string_equivalent(self):
        a = make_substreams(Philox4x32(1), 2, StreamPartition.BLOCK)[1].random_raw(8)
        b = make_substreams(Philox4x32(1), 2, "block")[1].random_raw(8)
        assert np.array_equal(a, b)

    def test_invalid_nranks(self):
        with pytest.raises(ValidationError):
            make_substreams(Philox4x32(0), 0)


_STREAMS = {
    "philox": Philox4x32(23),
    "philox-spawned": Philox4x32(23).spawn(3)[2],
    "philox-block-split": block_substream(Philox4x32(23), 5),
    "lcg64": Lcg64(23),
    "lcg64-leapfrog": Lcg64(23).leapfrog(1, 3),
}


class TestStreamContract:
    """``draw(a)`` then ``draw(b)`` is ``draw(a + b)``, byte for byte.

    This is what lets ``normals_inverse`` walk a request tile by tile (and
    ``Philox4x32.random_raw`` likewise) without changing a single bit. Split
    points range over three tiles, so seams fall inside, on and between them.
    """

    @pytest.mark.parametrize("master", list(_STREAMS.values()), ids=list(_STREAMS))
    @given(a=st.integers(0, 3 * _TILE), b=st.integers(0, 3 * _TILE))
    @example(a=_TILE - 1, b=2)
    @example(a=_TILE, b=_TILE + 1)
    @example(a=1, b=3 * _TILE)
    def test_two_draws_equal_one(self, master, a, b):
        for fn in ("random_raw", "uniforms", "uniforms_open", "normals"):
            split, whole = master.clone(), master.clone()
            draw = getattr(split, fn)
            parts = np.concatenate([draw(a), draw(b)])
            assert parts.tobytes() == getattr(whole, fn)(a + b).tobytes(), fn
            # ...and both generators sit at the same stream position after.
            assert np.array_equal(split.random_raw(3), whole.random_raw(3)), fn
