"""Unit tests for the on-device RNG substrate (repro.rng)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.rng import (
    HybridTaus,
    box_muller,
    box_muller_pairs,
    random_memory_bytes,
    seed_streams,
)
from repro.rng.tausworthe import MIN_STATE, lcg_step, taus_step


class TestTausComponents:
    def test_taus_step_matches_reference(self):
        # Hand-computed reference for z=2**20, component (13, 19, 12, 0xFFFFFFFE).
        z = np.array([2**20], dtype=np.uint32)
        b = ((z << np.uint32(13)) ^ z) >> np.uint32(19)
        expect = ((z & np.uint32(0xFFFFFFFE)) << np.uint32(12)) ^ b
        out = taus_step(z.copy(), 13, 19, 12, 0xFFFFFFFE)
        assert out[0] == expect[0]

    def test_lcg_step_reference(self):
        z = np.array([1], dtype=np.uint32)
        out = lcg_step(z)
        assert out[0] == np.uint32(1664525 * 1 + 1013904223)

    def test_lcg_wraps_mod_2_32(self):
        z = np.array([0xFFFFFFFF], dtype=np.uint32)
        out = lcg_step(z)
        assert out[0] == np.uint32((1664525 * 0xFFFFFFFF + 1013904223) % 2**32)


class TestHybridTaus:
    def test_state_validation(self):
        with pytest.raises(ConfigurationError):
            HybridTaus(np.zeros((4, 3), dtype=np.uint32))
        with pytest.raises(ConfigurationError):
            HybridTaus(np.zeros((4, 4), dtype=np.uint64))
        bad = np.full((4, 4), 1000, dtype=np.uint32)
        bad[0, 0] = MIN_STATE - 1
        with pytest.raises(ConfigurationError, match="seed_streams"):
            HybridTaus(bad)

    def test_deterministic_given_state(self):
        g1 = seed_streams(16, seed=42)
        g2 = seed_streams(16, seed=42)
        np.testing.assert_array_equal(g1.next_uint32(), g2.next_uint32())
        np.testing.assert_array_equal(g1.uniform(), g2.uniform())

    def test_different_seeds_differ(self):
        a = seed_streams(8, seed=1).next_uint32()
        b = seed_streams(8, seed=2).next_uint32()
        assert not np.array_equal(a, b)

    def test_lanes_are_distinct(self):
        g = seed_streams(1024, seed=0)
        draws = g.next_uint32()
        # Collisions among 1024 uint32 draws are overwhelmingly unlikely.
        assert len(np.unique(draws)) > 1020

    def test_uniform_range_and_moments(self):
        g = seed_streams(256, seed=7)
        u = g.uniforms(400)  # 102400 draws
        assert u.min() >= 0.0 and u.max() < 1.0
        assert abs(u.mean() - 0.5) < 0.01
        assert abs(u.var() - 1.0 / 12.0) < 0.005

    def test_uniform_no_serial_correlation(self):
        g = seed_streams(1, seed=3)
        u = g.uniforms(20000)[:, 0]
        r = np.corrcoef(u[:-1], u[1:])[0, 1]
        assert abs(r) < 0.03

    def test_state_copy_semantics(self):
        g = seed_streams(4, seed=0)
        snapshot = g.state
        g.next_uint32()
        assert not np.array_equal(snapshot, g.state)
        g2 = HybridTaus(snapshot)
        g3 = HybridTaus(snapshot)
        np.testing.assert_array_equal(g2.next_uint32(), g3.next_uint32())

    def test_jump_advances(self):
        g1 = seed_streams(4, seed=9)
        g2 = seed_streams(4, seed=9)
        g1.jump(5)
        for _ in range(5):
            g2.next_uint32()
        np.testing.assert_array_equal(g1.next_uint32(), g2.next_uint32())

    def test_uniforms_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            seed_streams(2).uniforms(-1)

    def test_normal_moments(self):
        g = seed_streams(512, seed=11)
        z = np.concatenate([g.normal() for _ in range(100)])  # 51200 draws
        assert abs(z.mean()) < 0.02
        assert abs(z.std() - 1.0) < 0.02
        # Fourth moment of N(0,1) is 3.
        assert abs((z**4).mean() - 3.0) < 0.15


def _gems_reference(state, n_draws):
    """GPU Gems 3 fig. 37-4 on Python ints: one lane's first draws."""
    z = [int(w) for w in state]
    mask32 = 0xFFFFFFFF

    def taus_step(i, s1, s2, s3, m):
        b = (((z[i] << s1) & mask32) ^ z[i]) >> s2
        z[i] = (((z[i] & m) << s3) & mask32) ^ b
        return z[i]

    out = []
    for _ in range(n_draws):
        word = taus_step(0, 13, 19, 12, 4294967294)
        word ^= taus_step(1, 2, 25, 4, 4294967288)
        word ^= taus_step(2, 3, 11, 17, 4294967280)
        z[3] = (1664525 * z[3] + 1013904223) & mask32
        out.append(word ^ z[3])
    return out


class TestGemsReference:
    @pytest.mark.parametrize("seed", [0, 7, 2**40 + 3])
    def test_first_draws_match_python_int_transcription(self, seed):
        g = seed_streams(5, seed=seed)
        state = g.state
        draws = np.array([g.next_uint32() for _ in range(64)])
        for lane in range(5):
            expect = _gems_reference(state[lane], 64)
            assert draws[:, lane].tolist() == expect

    def test_uniform_is_scaled_word(self):
        g = seed_streams(3, seed=1)
        word = _gems_reference(g.state[2], 1)[0]
        assert g.uniform()[2] == word * 2.3283064365386963e-10


class TestBoxMuller:
    def test_pairs_are_standard_normal(self):
        rng = np.random.default_rng(0)
        u1, u2 = rng.uniform(size=(2, 50000))
        z1, z2 = box_muller_pairs(u1, u2)
        for z in (z1, z2):
            assert abs(z.mean()) < 0.02
            assert abs(z.std() - 1.0) < 0.02
        assert abs(np.corrcoef(z1, z2)[0, 1]) < 0.02

    def test_single_branch_matches_pair(self):
        u1 = np.array([0.3, 0.9])
        u2 = np.array([0.1, 0.7])
        np.testing.assert_allclose(box_muller(u1, u2), box_muller_pairs(u1, u2)[0])

    def test_zero_uniform_is_finite(self):
        z = box_muller(np.array([0.0]), np.array([0.25]))
        assert np.all(np.isfinite(z))


class TestSeedingAndSizing:
    def test_seed_streams_rejects_zero_threads(self):
        with pytest.raises(ConfigurationError):
            seed_streams(0)

    def test_memory_sizing_paper_example(self):
        # Paper: NumBurnIn=500, L=2, NumSamples=250, 9 params, >200k voxels
        # => > 20 GB of pre-generated uniforms.
        size = random_memory_bytes(n_voxels=205_082)
        assert size > 20 * 1e9

    def test_memory_sizing_formula(self):
        # 10 voxels * (5 + 2*3) loops * 2 params * 3 numbers * 4 bytes
        assert random_memory_bytes(10, 5, 2, 3, 2) == 10 * 11 * 2 * 3 * 4

    def test_memory_sizing_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            random_memory_bytes(-1)


class TestBlockStreams:
    """block_streams(n, a, b) == seed_streams(n).state[a:b] bit for bit —
    the sliceable-seeding property bedpost's voxel-block sharding rests on."""

    @pytest.mark.parametrize(
        "n_total,start,stop",
        [(1, 0, 1), (137, 0, 137), (137, 0, 1), (137, 100, 137), (137, 64, 65)],
    )
    @pytest.mark.parametrize("seed", [0, 42])
    def test_matches_full_state_slice(self, n_total, start, stop, seed):
        from repro.rng import block_streams

        full = seed_streams(n_total, seed=seed)
        block = block_streams(n_total, start, stop, seed=seed)
        np.testing.assert_array_equal(full.state[start:stop], block.state)

    def test_draws_match_full_generator_lanes(self):
        from repro.rng import block_streams

        full = seed_streams(64, seed=9)
        block = block_streams(64, 17, 40, seed=9)
        np.testing.assert_array_equal(
            full.uniforms(8)[:, 17:40], block.uniforms(8)
        )

    def test_rejects_bad_spans(self):
        from repro.rng import block_streams

        for n_total, start, stop in [(4, -1, 2), (4, 2, 2), (4, 3, 5), (0, 0, 1)]:
            with pytest.raises(ConfigurationError):
                block_streams(n_total, start, stop)
