"""Backoff policy: seeded, exponential, jittered, capped."""

import pytest

from repro.core.backoff import JITTER_HIGH, JITTER_LOW, BackoffPolicy
from repro.core.errors import ConfigError


class TestBackoffPolicy:
    def test_same_seed_reproduces_schedule(self):
        a = BackoffPolicy(base_s=0.25, cap_s=30.0, seed=7)
        b = BackoffPolicy(base_s=0.25, cap_s=30.0, seed=7)
        assert [a.delay_s(n) for n in range(1, 8)] == \
               [b.delay_s(n) for n in range(1, 8)]

    def test_different_seeds_differ(self):
        a = BackoffPolicy(seed=0)
        b = BackoffPolicy(seed=1)
        assert [a.delay_s(n) for n in range(1, 6)] != \
               [b.delay_s(n) for n in range(1, 6)]

    def test_exponential_within_jitter_band(self):
        policy = BackoffPolicy(base_s=0.5, cap_s=1e9, seed=3)
        for attempts in range(1, 7):
            nominal = 0.5 * 2.0 ** (attempts - 1)
            delay = policy.delay_s(attempts)
            assert nominal * JITTER_LOW <= delay <= nominal * JITTER_HIGH

    def test_cap_bounds_every_delay(self):
        policy = BackoffPolicy(base_s=1.0, cap_s=4.0, seed=0)
        assert all(policy.delay_s(n) <= 4.0 for n in range(1, 20))
        assert policy.delay_s(19) == 4.0  # deep retries pin to the cap

    def test_zero_base_means_immediate(self):
        policy = BackoffPolicy(base_s=0.0, seed=0)
        assert policy.delay_s(1) == 0.0
        assert policy.delay_s(5) == 0.0

    def test_jitter_never_collapses_to_zero(self):
        policy = BackoffPolicy(base_s=0.1, cap_s=30.0, seed=11)
        assert min(policy.delay_s(1) for _ in range(50)) > 0.0

    @pytest.mark.parametrize("kwargs", [
        {"base_s": -0.1},
        {"cap_s": 0.0},
        {"cap_s": -1.0},
    ])
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            BackoffPolicy(**kwargs)
