"""Tests for the experience pool and exploration noise."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.rl.noise import OrnsteinUhlenbeckNoise, TruncatedNormalNoise
from repro.core.rl.replay import ExperiencePool, Transition


def make_transition(i, reward=1.0, done=False):
    return Transition(
        state=np.full(4, float(i)),
        next_state=np.full(4, float(i + 1)),
        action=i / 10.0,
        reward=reward,
        done=done,
    )


class TestExperiencePool:
    def test_add_and_len(self):
        pool = ExperiencePool(10)
        pool.add(make_transition(0))
        assert len(pool) == 1
        assert not pool.full

    def test_ring_buffer_overwrites_oldest(self):
        pool = ExperiencePool(3)
        pool.extend(make_transition(i) for i in range(5))
        assert len(pool) == 3
        assert pool.full
        # Enough uniform draws to see every stored row (the sampling RNG
        # is seeded, so this is deterministic).
        stored, _, _, _, _ = pool.sample(64)
        states = {int(s) for s in stored[:, 0]}
        assert states == {2, 3, 4}

    def test_sample_shapes(self):
        pool = ExperiencePool(10)
        pool.extend(make_transition(i, done=(i == 4)) for i in range(5))
        s, ns, a, r, d = pool.sample(8)
        assert s.shape == (8, 4)
        assert ns.shape == (8, 4)
        assert a.shape == (8, 1)
        assert r.shape == (8, 1)
        assert d.shape == (8, 1)

    def test_sample_from_empty_raises(self):
        with pytest.raises(ValueError):
            ExperiencePool(4).sample(1)

    def test_sample_rejects_nonpositive_batch(self):
        pool = ExperiencePool(4)
        pool.add(make_transition(0))
        with pytest.raises(ValueError):
            pool.sample(0)

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            ExperiencePool(0)

    def test_sampling_deterministic_by_seed(self):
        a = ExperiencePool(10, seed=3)
        b = ExperiencePool(10, seed=3)
        for pool in (a, b):
            pool.extend(make_transition(i) for i in range(10))
        sa = a.sample(5)
        sb = b.sample(5)
        assert np.array_equal(sa[0], sb[0])

    def test_sample_returns_stored_rows(self):
        pool = ExperiencePool(8, seed=1)
        pool.extend(make_transition(i, reward=10.0 * i, done=(i == 2)) for i in range(3))
        s, ns, a, r, d = pool.sample(16)
        i = s[:, 0]
        assert np.array_equal(ns[:, 0], i + 1)
        assert np.array_equal(a[:, 0], i / 10.0)
        assert np.array_equal(r[:, 0], 10.0 * i)
        assert np.array_equal(d[:, 0], (i == 2).astype(float))

    @pytest.mark.parametrize("field", ["state", "next_state"])
    def test_rejects_state_shape_mismatch(self, field):
        pool = ExperiencePool(4)
        pool.add(make_transition(0))
        bad = replace(make_transition(1), **{field: np.zeros(5)})
        with pytest.raises(ValueError, match=field):
            pool.add(bad)
        assert len(pool) == 1

    def test_rejected_add_leaves_full_pool_intact(self):
        pool = ExperiencePool(2)
        pool.extend(make_transition(i) for i in range(2))
        with pytest.raises(ValueError, match="reward"):
            pool.add(replace(make_transition(7), reward=float("nan")))
        s, _, _, r, _ = pool.sample(32)
        assert {int(x) for x in s[:, 0]} == {0, 1}
        assert np.all(np.isfinite(r))

    def test_rejects_non_1d_first_state(self):
        pool = ExperiencePool(4)
        with pytest.raises(ValueError, match="state"):
            pool.add(replace(make_transition(0), state=np.zeros((2, 2))))
        assert len(pool) == 0

    @pytest.mark.parametrize("field", ["action", "reward", "done"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -np.inf, None])
    def test_rejects_non_finite_scalars(self, field, value):
        pool = ExperiencePool(4)
        pool.add(make_transition(0))
        with pytest.raises(ValueError, match=field):
            pool.add(replace(make_transition(1), **{field: value}))
        assert len(pool) == 1

    def test_done_flag_roundtrip(self):
        pool = ExperiencePool(2)
        pool.add(make_transition(0, done=True))
        _, _, _, _, d = pool.sample(4)
        assert np.all(d == 1.0)


class TestTruncatedNormalNoise:
    def test_stays_in_bounds(self):
        noise = TruncatedNormalNoise(sigma=2.0, seed=0)
        for _ in range(200):
            assert 0.0 <= noise.perturb(0.5) <= 1.0

    def test_decay(self):
        noise = TruncatedNormalNoise(sigma=1.0, decay=0.5)
        noise.end_episode()
        noise.end_episode()
        assert noise.sigma == pytest.approx(0.25)

    def test_zero_sigma_is_identity(self):
        noise = TruncatedNormalNoise(sigma=0.0)
        assert noise.perturb(0.3) == pytest.approx(0.3)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            TruncatedNormalNoise(sigma=-1.0)
        with pytest.raises(ValueError):
            TruncatedNormalNoise(decay=0.0)

    def test_deterministic_by_seed(self):
        a = TruncatedNormalNoise(seed=5)
        b = TruncatedNormalNoise(seed=5)
        assert a.perturb(0.5) == b.perturb(0.5)


class TestOUNoise:
    def test_stays_in_bounds(self):
        noise = OrnsteinUhlenbeckNoise(sigma=1.0, seed=0)
        for _ in range(200):
            assert 0.0 <= noise.perturb(0.5) <= 1.0

    def test_reset_returns_to_mean(self):
        noise = OrnsteinUhlenbeckNoise(sigma=1.0, seed=0)
        for _ in range(10):
            noise.perturb(0.5)
        noise.reset()
        assert noise._x == noise.mu

    def test_temporal_correlation(self):
        """Successive OU samples are correlated, unlike white noise."""
        noise = OrnsteinUhlenbeckNoise(sigma=0.3, theta=0.05, seed=1)
        xs = []
        for _ in range(500):
            noise.perturb(0.0)
            xs.append(noise._x)
        xs = np.array(xs)
        corr = np.corrcoef(xs[:-1], xs[1:])[0, 1]
        assert corr > 0.5
