"""Philox4x32: counter semantics, exact jumps, key splitting, and the
byte-for-byte oracle every faster ``random_raw`` must reproduce."""

import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.rng import Philox4x32
from repro.rng.base import _TILE

# ---------------------------------------------------------------------------
# Reference oracle: the monolithic ``_philox_blocks`` + ``random_raw`` bodies
# as they stood before the draw was tiled, kept verbatim. Every price, fault
# plan, steal permutation and scenario in the repo is downstream of these
# words, so a faster implementation must agree for every (key, index, n).
# ---------------------------------------------------------------------------

_M0 = np.uint64(0xD2511F53)
_M1 = np.uint64(0xCD9E8D57)
_W0 = np.uint32(0x9E3779B9)  # Weyl constants added to the key each round
_W1 = np.uint32(0xBB67AE85)
_ROUNDS = 10
_LO32 = np.uint64(0xFFFFFFFF)


def _reference_blocks(counters: np.ndarray, key0: np.uint32, key1: np.uint32) -> np.ndarray:
    """Apply the 10-round Philox-4x32 bijection to an (n, 4) uint32 counter array.

    Returns an (n, 4) uint32 array of random words.
    """
    x0 = counters[:, 0].astype(np.uint64)
    x1 = counters[:, 1].astype(np.uint64)
    x2 = counters[:, 2].astype(np.uint64)
    x3 = counters[:, 3].astype(np.uint64)
    k0 = np.uint64(key0)
    k1 = np.uint64(key1)
    w0 = np.uint64(_W0)
    w1 = np.uint64(_W1)
    with np.errstate(over="ignore"):
        for _ in range(_ROUNDS):
            p0 = _M0 * x0
            p1 = _M1 * x2
            hi0, lo0 = p0 >> np.uint64(32), p0 & _LO32
            hi1, lo1 = p1 >> np.uint64(32), p1 & _LO32
            y0 = (hi1 ^ x1 ^ k0) & _LO32
            y1 = lo1
            y2 = (hi0 ^ x3 ^ k1) & _LO32
            y3 = lo0
            x0, x1, x2, x3 = y0, y1, y2, y3
            k0 = (k0 + w0) & _LO32
            k1 = (k1 + w1) & _LO32
    out = np.empty((counters.shape[0], 4), dtype=np.uint32)
    out[:, 0] = x0.astype(np.uint32)
    out[:, 1] = x1.astype(np.uint32)
    out[:, 2] = x2.astype(np.uint32)
    out[:, 3] = x3.astype(np.uint32)
    return out


def _reference_raw(key: tuple[int, int], index: int, n: int) -> np.ndarray:
    """``Philox4x32(_key=key, _index=index).random_raw(n)``, monolithically."""
    if n == 0:
        return np.empty(0, dtype=np.uint64)
    first_block = index // 2
    last_block = (index + n - 1) // 2
    nblocks = last_block - first_block + 1
    # 128-bit counter laid out little-endian in four 32-bit words.
    blocks = first_block + np.arange(nblocks, dtype=np.uint64)
    counters = np.empty((nblocks, 4), dtype=np.uint32)
    counters[:, 0] = (blocks & _LO32).astype(np.uint32)
    counters[:, 1] = ((blocks >> np.uint64(32)) & _LO32).astype(np.uint32)
    counters[:, 2] = 0
    counters[:, 3] = 0
    words = _reference_blocks(counters, np.uint32(key[0]), np.uint32(key[1]))
    u64 = np.empty(nblocks * 2, dtype=np.uint64)
    u64[0::2] = (words[:, 0].astype(np.uint64) << np.uint64(32)) | words[:, 1].astype(np.uint64)
    u64[1::2] = (words[:, 2].astype(np.uint64) << np.uint64(32)) | words[:, 3].astype(np.uint64)
    offset = index - first_block * 2
    return u64[offset : offset + n]


#: Random123 known-answer vectors for philox4x32-10: (counter, key, output).
_KAT = [
    ((0, 0, 0, 0), (0, 0), (0x6627E8D5, 0xE169C58D, 0xBC57AC4C, 0x9B00DBD8)),
    (
        (0xFFFFFFFF,) * 4,
        (0xFFFFFFFF,) * 2,
        (0x408F276D, 0x41C83B0E, 0xA20BC7C6, 0x6D5451FD),
    ),
    (  # digits of pi
        (0x243F6A88, 0x85A308D3, 0x13198A2E, 0x03707344),
        (0xA4093822, 0x299F31D0),
        (0xD16CFE09, 0x94FDCCEB, 0x5001E420, 0x24126EA1),
    ),
]

_keys = st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
_odd = st.integers(0, 2**20).map(lambda i: 2 * i + 1)
# Start positions: block-aligned, mid-block, either side of the carry into
# counter word 1 (block 2^32), and inside a block-split substream (rank r
# starts r * 2^44 draws in, so its block indices are ~r * 2^43).
_indices = st.one_of(
    st.just(0),
    _odd,
    st.sampled_from([2**33 - 1, 2**33 + 1]),
    st.builds(lambda r, o: r * 2**44 + o, st.integers(1, 4096), _odd),
)


class TestReferenceOracle:
    @pytest.mark.parametrize("counter,key,expected", _KAT)
    def test_reference_matches_random123_known_answers(self, counter, key, expected):
        words = _reference_blocks(
            np.array([counter], dtype=np.uint32), np.uint32(key[0]), np.uint32(key[1])
        )
        assert tuple(int(w) for w in words[0]) == expected

    def test_zero_key_zero_counter_words(self):
        # The all-zero known answer, through the public entry point.
        raw = Philox4x32(_key=(0, 0)).random_raw(2)
        assert [int(w) for w in raw] == [0x6627E8D5E169C58D, 0xBC57AC4C9B00DBD8]

    @pytest.mark.parametrize(
        "n", [0, 1, 2, _TILE - 1, _TILE, _TILE + 1, 5 * _TILE // 2 + 3]
    )
    @given(key=_keys, index=_indices)
    def test_random_raw_equals_reference(self, n, key, index):
        g = Philox4x32(_key=key, _index=index)
        got = g.random_raw(n)
        assert got.dtype == np.uint64
        assert got.tobytes() == _reference_raw(key, index, n).tobytes()
        assert g.position == index + n


class TestCounterSemantics:
    def test_reproducible(self):
        assert np.array_equal(Philox4x32(5).random_raw(64), Philox4x32(5).random_raw(64))

    def test_stream_parameter_changes_output(self):
        a = Philox4x32(5, stream=0).random_raw(64)
        b = Philox4x32(5, stream=1).random_raw(64)
        assert not np.array_equal(a, b)

    @given(st.integers(0, 2000), st.integers(1, 500))
    def test_jump_is_exact_at_any_offset(self, skip, n):
        ref = Philox4x32(9).random_raw(skip + n)
        g = Philox4x32(9)
        g.jump(skip)
        assert np.array_equal(g.random_raw(n), ref[skip:])

    def test_position_tracks_consumption(self):
        g = Philox4x32(1)
        g.random_raw(13)
        g.jump(5)
        assert g.position == 18

    def test_clone_at_odd_position(self):
        g = Philox4x32(2)
        g.random_raw(7)  # mid-block
        c = g.clone()
        assert np.array_equal(g.random_raw(9), c.random_raw(9))

    def test_negative_jump_rejected(self):
        with pytest.raises(ValidationError):
            Philox4x32(1).jump(-3)


class TestSplitting:
    def test_children_differ_from_parent_and_each_other(self):
        parent = Philox4x32(7)
        kids = parent.spawn(5)
        streams = [parent.clone().random_raw(256)] + [k.random_raw(256) for k in kids]
        for i in range(len(streams)):
            for j in range(i + 1, len(streams)):
                assert not np.array_equal(streams[i], streams[j])

    def test_spawn_is_deterministic(self):
        a = Philox4x32(7).spawn(3)[2].random_raw(32)
        b = Philox4x32(7).spawn(3)[2].random_raw(32)
        assert np.array_equal(a, b)

    def test_children_uncorrelated(self):
        kids = Philox4x32(11).spawn(2)
        u0 = kids[0].uniforms(100_000)
        u1 = kids[1].uniforms(100_000)
        assert abs(np.corrcoef(u0, u1)[0, 1]) < 0.01


class TestStatistics:
    def test_uniform_moments(self):
        u = Philox4x32(3).uniforms(200_000)
        assert abs(u.mean() - 0.5) < 0.005
        assert abs(u.var() - 1.0 / 12.0) < 0.002

    def test_bit_balance(self):
        # Each of the 64 output bits should be ~50% ones.
        raw = Philox4x32(17).random_raw(20_000)
        for bit in (0, 1, 31, 32, 63):
            ones = ((raw >> np.uint64(bit)) & np.uint64(1)).mean()
            assert abs(ones - 0.5) < 0.02, f"bit {bit} biased: {ones}"

    def test_normals_moments(self):
        z = Philox4x32(19).normals(200_000)
        assert abs(z.mean()) < 0.01
        assert abs(z.std() - 1.0) < 0.01
        # Kurtosis of a standard normal is 3.
        kurt = np.mean(z**4)
        assert abs(kurt - 3.0) < 0.1


def _traced_peak(draw) -> int:
    tracemalloc.start()
    try:
        draw()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestDrawMechanism:
    """The tiling itself, not the clock: bounded scratch, never shared."""

    @pytest.mark.parametrize("fn", ["random_raw", "normals"])
    def test_peak_memory_is_the_result_plus_tile_scratch(self, fn):
        n = 2_000_000  # a 16 MB result; the monolithic draw peaked at 7.5x that
        peak = _traced_peak(lambda: getattr(Philox4x32(1), fn)(n))
        assert peak <= 1.5 * 8 * n, f"{fn}: peak {peak / (8 * n):.2f}x the result"

    def test_concurrent_draws_reproduce_serial_bytes(self):
        # ufuncs release the GIL, so four tiled draws really interleave; any
        # scratch shared between calls would corrupt at least one of them.
        n, workers = 300_000, 4
        expected = [g.normals(n).tobytes() for g in Philox4x32(29).spawn(workers)]
        got = [None] * workers
        barrier = threading.Barrier(workers)

        def draw(i, gen):
            barrier.wait(timeout=30)
            got[i] = gen.normals(n).tobytes()

        threads = [
            threading.Thread(target=draw, args=(i, g))
            for i, g in enumerate(Philox4x32(29).spawn(workers))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert [g == e for g, e in zip(got, expected)] == [True] * workers


class TestEdgeCases:
    def test_zero_draws(self):
        assert Philox4x32(0).random_raw(0).size == 0
        z = Philox4x32(0).normals(0)
        assert z.shape == (0,) and z.dtype == np.float64

    @pytest.mark.parametrize("fn", ["random_raw", "uniforms", "uniforms_open", "normals"])
    def test_negative_draws_rejected(self, fn):
        with pytest.raises(ValidationError):
            getattr(Philox4x32(0), fn)(-1)

    def test_single_draw_across_block_boundary(self):
        g = Philox4x32(4)
        ref = Philox4x32(4).random_raw(4)
        singles = np.array([g.random_raw(1)[0] for _ in range(4)])
        assert np.array_equal(singles, ref)
