"""Seeded exponential backoff shared by the process-level retry loops.

The mission supervisor's pool respawns (:mod:`repro.exec.supervisor`)
and the fleet service's job requeues (:mod:`repro.service.service`)
both back off with this one policy.  The simulated support bus keeps its
own jitter (:class:`repro.support.reliable.PendingReliable`): that
draw comes from the simulated network's RNG and feeds byte-reproducible
reliability reports, so it is part of the model, not an operational
retry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.errors import ConfigError

#: Jitter multiplier range, so retry storms desynchronize without ever
#: collapsing a delay to zero.
JITTER_LOW, JITTER_HIGH = 0.5, 1.5


@dataclass
class BackoffPolicy:
    """Seeded exponential backoff.

    The delay before attempt ``n`` retries is
    ``base * 2**(n-1) * U(0.5, 1.5)``, capped.  The jitter stream is
    seeded, so a process restarted with the same seed reproduces the
    same retry schedule — chaos tests can assert on timing classes
    instead of racing them.
    """

    base_s: float = 0.25
    cap_s: float = 30.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.base_s < 0:
            raise ConfigError("backoff base_s must be >= 0")
        if self.cap_s <= 0:
            raise ConfigError("backoff cap_s must be positive")
        self._rng = np.random.default_rng(
            np.random.SeedSequence((self.seed, 0xBACC0FF)))

    def delay_s(self, attempts: int) -> float:
        """Backoff before the next try, given ``attempts`` already made."""
        if self.base_s == 0:
            return 0.0
        exponent = max(0, attempts - 1)
        jitter = float(self._rng.uniform(JITTER_LOW, JITTER_HIGH))
        return min(self.cap_s, self.base_s * (2.0 ** exponent) * jitter)
