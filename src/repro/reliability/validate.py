"""Empirical validation of an analytic model against a seeded campaign.

:func:`validate_campaign` generates the campaign's concrete fault plan,
runs it through the real system the model describes, and checks that
every measured number lands inside the model's finite-horizon
confidence bands.  The model class picks both sides:

- :class:`~repro.reliability.model.ReliabilityModel` (the default) runs
  the plan through the support stack
  (:func:`~repro.faults.scenario.run_support_scenario`) and grades the
  :class:`~repro.faults.report.ReliabilityReport` — per-node
  availability, MTTR, closed-outage count, per-kind delivery success;
- :class:`~repro.reliability.coverage.CoverageModel` corrupts a real
  mission with the plan, gates it, and grades the
  :class:`~repro.quality.report.DataQualityReport` number by number.

The whole pipeline is seeded, so a given ``(campaign, cfg)`` pair
produces a byte-identical :class:`ValidationResult` every run; that is
what the tier-1 reference-campaign tests pin.

Model-vs-empirical residuals are exported through :mod:`repro.obs`
(``reliability.model.delta`` gauges, ``reliability.validations``
counter) so long-running deployments can watch the analytic model drift
away from the measured system.
"""

from __future__ import annotations

from typing import Optional

from repro.core.config import MissionConfig
from repro.faults.campaign import FaultCampaign
from repro.obs import _state as _obs
from repro.obs import metrics as _metrics
from repro.obs import span
from repro.reliability.model import DEFAULT_CONFIDENCE, ReliabilityModel
from repro.reliability.prediction import ValidationResult


def _export_deltas(result: ValidationResult) -> None:
    if not _obs.enabled:
        return
    gauge = _metrics.gauge(
        "reliability.model.delta",
        "empirical minus predicted, by validation metric",
    )
    for check in result.checks:
        if check.delta is not None:
            gauge.set(check.delta, metric=check.metric)
    _metrics.counter(
        "reliability.validations",
        "model validations run, by outcome",
    ).inc(outcome="pass" if result.all_inside else "fail")


def validate_campaign(
    campaign: FaultCampaign,
    cfg: Optional[MissionConfig] = None,
    confidence: float = DEFAULT_CONFIDENCE,
    *,
    model: type = ReliabilityModel,
) -> tuple[ValidationResult, object]:
    """Run ``campaign`` empirically and grade it against ``model``.

    Returns ``(validation, report)``; the mission config defaults to the
    model's ``default_config(campaign)``, which matches the campaign's
    horizon.
    """
    if cfg is None:
        cfg = model.default_config(campaign)
    predictor = model.for_config(campaign, cfg)
    with span("reliability.validate", model=model.KIND, seed=campaign.seed,
              days=campaign.days):
        plan = campaign.generate()
        report = model.measure(cfg, plan)
        result = predictor.compare(report, confidence, plan=plan)
    _export_deltas(result)
    return result, report
