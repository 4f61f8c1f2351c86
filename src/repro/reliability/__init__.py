"""repro.reliability: analytic CTMC reliability model + model-guided search.

The fault campaigns in :mod:`repro.faults` measure reliability
*empirically* — run the seeded campaign, read the
:class:`~repro.faults.report.ReliabilityReport`.  This package is the
matching *analytic* side:

- :mod:`repro.reliability.ctmc` — CTMC machinery: generic generator
  matrices, the up/down two-state chain every fault class reduces to,
  and the finite-horizon sampling distributions (compound
  Poisson-Erlang downtime) the confidence bands come from;
- :mod:`repro.reliability.model` — :class:`ReliabilityModel`, which
  derives transition rates *mechanically* from a
  :class:`~repro.faults.campaign.FaultCampaign` and predicts
  availability, MTTR, outage counts, and reliable-delivery success in
  closed form;
- :mod:`repro.reliability.validate` — runs a seeded campaign through
  the real system and asserts the measured report lands inside the
  model's bands (bands from the horizon's own sampling distribution,
  not hand-tuned tolerances);
- :mod:`repro.reliability.search` — sweeps the rate space cheaply in
  closed form and emits the top-K predicted-worst regimes as concrete
  seeded campaigns for the tier-2 chaos suite;
- :mod:`repro.reliability.coverage` — :class:`CoverageModel`, the same
  machinery for the *sensing*-level fault classes: closed-form
  predictions of the quality gate's coverage metrics (verdict counts,
  masked channels, repairs, dead beacon-days).

Both models supply one protocol — a reference campaign, the swept
fields, ``score()``, ``predict()``, ``default_config()``, ``measure()``
and ``compare()`` — so validation and the regime search are one code
path each, picked by a ``model=`` argument.

Usage::

    from repro.faults.campaign import FaultCampaign
    from repro.reliability import (
        CoverageModel, ReliabilityModel, validate_campaign)

    campaign = FaultCampaign.reference(days=14, seed=0)
    prediction = ReliabilityModel(campaign).predict()
    result, report = validate_campaign(campaign)
    assert result.all_inside

    coverage = FaultCampaign.coverage_reference(days=7, seed=0)
    result, quality = validate_campaign(coverage, model=CoverageModel)
"""

from repro.reliability.coverage import (
    CoverageModel,
    compare_quality_report,
    default_coverage_config,
)
from repro.reliability.ctmc import CTMC, TwoStateChain
from repro.reliability.model import (
    DEFAULT_CONFIDENCE,
    ReliabilityModel,
    compare_report,
    expected_event_counts,
)
from repro.reliability.prediction import (
    Band,
    CoveragePrediction,
    DeliveryPrediction,
    Regime,
    ReliabilityPrediction,
    ValidationCheck,
    ValidationResult,
)
from repro.reliability.search import sweep_regimes, worst_case_campaigns
from repro.reliability.validate import validate_campaign

__all__ = [
    "Band",
    "CTMC",
    "CoverageModel",
    "CoveragePrediction",
    "DEFAULT_CONFIDENCE",
    "DeliveryPrediction",
    "Regime",
    "ReliabilityModel",
    "ReliabilityPrediction",
    "TwoStateChain",
    "ValidationCheck",
    "ValidationResult",
    "compare_quality_report",
    "compare_report",
    "default_coverage_config",
    "expected_event_counts",
    "sweep_regimes",
    "validate_campaign",
    "worst_case_campaigns",
]
