"""Model-guided worst-case search over the fault-rate space.

The empirical chaos suite can only afford a handful of campaigns per
run, so *which* campaigns it runs matters.  This module sweeps the
fault-rate space in closed form — each candidate regime is scored by an
analytic model (:class:`~repro.reliability.model.ReliabilityModel` by
default, :class:`~repro.reliability.coverage.CoverageModel` for the
sensing layer) in well under a millisecond, ~1000x cheaper than
simulating it — and emits the top-K worst regimes as concrete, seeded
:class:`~repro.faults.campaign.FaultCampaign` configs.  Those feed the
tier-2 chaos tests and the nightly CI job, so the expensive empirical
budget is always spent where the model says the system is weakest.

Everything is deterministic: the sweep samples the model's ``SWEPT``
fields from ``np.random.default_rng(seed)`` and each regime's campaign
seed is a pure function of ``(seed, index)``, so a given sweep always
reproduces byte-identical campaigns.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from repro.core.errors import ConfigError
from repro.faults.campaign import FaultCampaign
from repro.obs import span
from repro.reliability.model import ReliabilityModel
from repro.reliability.prediction import Regime

__all__ = ["sweep_regimes", "worst_case_campaigns"]


def _draw(rng: np.random.Generator, base: FaultCampaign,
          name: str, lo: float, hi: float, draw: str) -> float:
    """One swept field's sampled value (see ``ReliabilityModel.SWEPT``)."""
    if draw == "uniform":
        return float(rng.uniform(lo, hi))
    mult = float(np.exp(rng.uniform(np.log(lo), np.log(hi))))
    if draw == "count":
        return int(round(getattr(base, name) * mult))
    return float(getattr(base, name)) * mult


def sweep_regimes(
    base: Optional[FaultCampaign] = None,
    n_regimes: int = 64,
    seed: int = 0,
    top_k: int = 3,
    *,
    model: type = ReliabilityModel,
) -> list[Regime]:
    """Sweep ``n_regimes`` sampled fault regimes analytically, rank them.

    Each regime perturbs the ``base`` campaign (default: the model's
    reference campaign) over the model's ``SWEPT`` fields, scores it with
    the model's closed-form ``score()``, and keeps the ``top_k`` worst by
    predicted badness — for the bus model, system unavailability +
    min-node unavailability + expected delivery loss; for the coverage
    model, coverage loss + quarantined fraction + dead-beacon-column
    fraction.  Returns ranked :class:`Regime` records whose campaigns
    are concrete and seeded — ready for empirical replay.
    """
    if base is None:
        base = model.reference_campaign()
    if n_regimes < 1:
        raise ConfigError("n_regimes must be >= 1")
    if not 1 <= top_k <= n_regimes:
        raise ConfigError("top_k must be in [1, n_regimes]")

    rng = np.random.default_rng(seed)
    scored = []
    with span("reliability.sweep", model=model.KIND, n_regimes=n_regimes,
              seed=seed):
        for i in range(n_regimes):
            overrides = {
                name: _draw(rng, base, name, lo, hi, draw)
                for name, lo, hi, draw in model.SWEPT
            }
            campaign = dataclasses.replace(
                base, **overrides, seed=seed * 100_000 + i)
            badness, *drivers = model(campaign).score()
            scored.append((badness, campaign, overrides, drivers))

    # Descending badness; ties broken by campaign seed for determinism.
    scored.sort(key=lambda entry: (-entry[0], entry[1].seed))
    return [
        Regime(
            rank=rank,
            score=badness,
            campaign=campaign,
            overrides={k: float(v) for k, v in overrides.items()},
            drivers=tuple(
                (name, fmt, value)
                for (name, fmt), value in zip(model.DRIVERS, drivers)
            ),
        )
        for rank, (badness, campaign, overrides, drivers)
        in enumerate(scored[:top_k], start=1)
    ]


def worst_case_campaigns(
    base: Optional[FaultCampaign] = None,
    k: int = 3,
    n_regimes: int = 64,
    seed: int = 0,
    *,
    model: type = ReliabilityModel,
) -> list[FaultCampaign]:
    """The ``k`` worst predicted regimes as ready-to-run campaigns.

    This is the tier-2 chaos suite's entry point: each returned campaign
    is seeded and concrete, so ``campaign.generate()`` reproduces the
    exact fault plan the model flagged.
    """
    return [
        regime.campaign
        for regime in sweep_regimes(base, n_regimes=n_regimes, seed=seed,
                                    top_k=k, model=model)
    ]
