"""Detection policy: is a link's degradation caused by channel reuse?

Paper Section VI.  For every link involved in channel reuse whose
reuse-slot PRR falls below the reliability threshold ``PRR_t``, compare
the PRR distribution in reuse slots against the distribution in
contention-free slots with a two-sample K-S test:

* **reject** (distributions differ) → channel reuse degrades the link;
  the network manager should reschedule it away from shared cells.
* **accept** (no significant difference) → the link is poor in *both*
  conditions, so the cause is elsewhere (e.g. external interference) and
  removing channel reuse would not help.
* **ok** → the link meets the reliability requirement under reuse; no
  action needed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.detection.health import EpochReport, LinkEpochReport
from repro.detection.kstest import KsResult, ks_2samp
from repro.obs import recorder as _obs
from repro.simulator.stats import Link


class Verdict(enum.Enum):
    """Outcome of the detection policy for one link."""

    #: Reuse-slot PRR meets the reliability requirement.
    OK = "ok"
    #: Below threshold and K-S rejects: degradation caused by channel reuse.
    REJECT = "reject"
    #: Below threshold but K-S accepts: degradation has another cause.
    ACCEPT = "accept"
    #: Not enough data to run the test (e.g. no contention-free samples).
    INSUFFICIENT_DATA = "insufficient_data"


@dataclass(frozen=True)
class DetectionConfig:
    """Parameters of the detection policy.

    Attributes:
        alpha: K-S significance level (0.05 in the paper).
        prr_threshold: Reliability requirement ``PRR_t`` (0.9).
        min_samples: Minimum samples per distribution to run the test.
    """

    alpha: float = 0.05
    prr_threshold: float = 0.9
    min_samples: int = 2

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")
        if not 0.0 < self.prr_threshold <= 1.0:
            raise ValueError("prr_threshold must be in (0, 1]")
        if self.min_samples < 1:
            raise ValueError("min_samples must be at least 1")


@dataclass(frozen=True)
class LinkDiagnosis:
    """Detection outcome for one link in one epoch.

    Attributes:
        link: The directed link.
        epoch: Epoch index the diagnosis refers to.
        verdict: Policy decision.
        reuse_prr: Pooled reuse-slot PRR (``PRR_r``).
        contention_free_prr: Pooled contention-free PRR.
        ks: The K-S result when the test ran, else None.
    """

    link: Link
    epoch: int
    verdict: Verdict
    reuse_prr: Optional[float]
    contention_free_prr: Optional[float]
    ks: Optional[KsResult] = None


def _noted(diagnosis: LinkDiagnosis) -> LinkDiagnosis:
    """Record a diagnosis with the observability layer, pass it through."""
    if _obs.ENABLED:
        recorder = _obs.RECORDER
        recorder.count("detection.diagnoses")
        recorder.count(f"detection.verdict.{diagnosis.verdict.value}")
    return diagnosis


def diagnose_link(report: LinkEpochReport,
                  config: DetectionConfig = DetectionConfig(),
                  ) -> Optional[LinkDiagnosis]:
    """Apply the detection policy to one link's epoch report.

    Returns:
        A diagnosis, or None when the link was not involved in channel
        reuse this epoch (the policy only considers reuse links).
    """
    if not report.reuse_samples:
        return None
    if report.reuse_prr is None:
        return None
    if report.reuse_prr >= config.prr_threshold:
        return _noted(LinkDiagnosis(
            link=report.link, epoch=report.epoch, verdict=Verdict.OK,
            reuse_prr=report.reuse_prr,
            contention_free_prr=report.contention_free_prr))
    if (len(report.reuse_samples) < config.min_samples
            or len(report.contention_free_samples) < config.min_samples):
        return _noted(LinkDiagnosis(
            link=report.link, epoch=report.epoch,
            verdict=Verdict.INSUFFICIENT_DATA,
            reuse_prr=report.reuse_prr,
            contention_free_prr=report.contention_free_prr))

    result = ks_2samp(list(report.reuse_samples),
                      list(report.contention_free_samples))
    verdict = Verdict.REJECT if result.reject(config.alpha) else Verdict.ACCEPT
    return _noted(LinkDiagnosis(
        link=report.link, epoch=report.epoch, verdict=verdict,
        reuse_prr=report.reuse_prr,
        contention_free_prr=report.contention_free_prr, ks=result))


def diagnose_epoch(report: EpochReport,
                   config: DetectionConfig = DetectionConfig(),
                   ) -> List[LinkDiagnosis]:
    """Diagnose every reuse-involved link in one epoch."""
    diagnoses = []
    for link in sorted(report.links):
        diagnosis = diagnose_link(report.links[link], config)
        if diagnosis is not None:
            diagnoses.append(diagnosis)
    return diagnoses


def rejected_links_per_epoch(
        diagnoses: Dict[int, Sequence[LinkDiagnosis]],
) -> Dict[int, List[Link]]:
    """Links classified as reuse-degraded, per epoch (paper Fig. 11),
    from each epoch's :func:`diagnose_epoch` output."""
    return {epoch: [d.link for d in found if d.verdict is Verdict.REJECT]
            for epoch, found in diagnoses.items()}
