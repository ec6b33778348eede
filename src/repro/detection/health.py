"""Health-report epochs: the data the network manager sees.

WirelessHART nodes deliver a health report to the network manager every
15 minutes (one *epoch*).  Within an epoch the manager accumulates, for
every link involved in channel reuse, a distribution of PRR samples in
reuse slots and another in contention-free slots (paper Section VI).
With a 1 s top period the paper obtains 18 samples per epoch; we mirror
that by grouping simulator repetitions into epochs: an epoch's report
reads a window of rows straight from the
:class:`~repro.simulator.stats.SimulationStats` count matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.simulator.stats import Link, LinkKey, SimulationStats

#: PRR samples the paper collects per 15-minute epoch.
SAMPLES_PER_EPOCH = 18


@dataclass(frozen=True)
class LinkEpochReport:
    """One link's health data for one epoch.

    Attributes:
        link: The directed link.
        epoch: Epoch index.
        reuse_samples: Per-repetition PRRs in shared (reuse) cells.
        contention_free_samples: Per-repetition PRRs in exclusive cells.
        reuse_prr: Pooled PRR over the epoch's reuse-slot attempts
            (``PRR_r`` in the paper), or None if the link never
            transmitted in a shared cell this epoch.
        contention_free_prr: Pooled contention-free PRR, or None.
    """

    link: Link
    epoch: int
    reuse_samples: Tuple[float, ...]
    contention_free_samples: Tuple[float, ...]
    reuse_prr: Optional[float]
    contention_free_prr: Optional[float]


@dataclass(frozen=True)
class EpochReport:
    """All link health data for one epoch."""

    epoch: int
    links: Dict[Link, LinkEpochReport]

    def reuse_links(self) -> List[Link]:
        """Links that transmitted in shared cells during this epoch."""
        return sorted(link for link, report in self.links.items()
                      if report.reuse_samples)


def build_epoch_report(stats: SimulationStats, epoch: int,
                       window: Optional[Tuple[int, int]] = None,
                       ) -> EpochReport:
    """Build one epoch's health report from a repetition window.

    This is the streaming entry point: the network manager simulates one
    epoch's worth of repetitions at a time and turns each batch into an
    :class:`EpochReport` directly, instead of slicing one monolithic
    simulation afterwards.

    Args:
        stats: Simulation output covering (at least) the window.
        epoch: Epoch index to stamp on the report.
        window: ``(start, end)`` repetition slice (end exclusive);
            ``None`` uses every repetition in ``stats``.
    """
    # The window's (repetitions × columns) counts, read whole: one
    # division over the columns that have attempts gives every
    # per-repetition sample (column-major, so each column's samples are
    # one run of the flat list) and one division of the column sums the
    # pooled PRRs — the values the per-link readers give (the tests'
    # link_prr_samples, SimulationStats.overall_link_prr; int64 counts
    # convert to float64 exactly, and the division is the IEEE one of
    # Python's ``int / int``).  A column without attempts in the window
    # is absent.
    rows = slice(*window) if window else slice(None)
    attempts = stats.link_attempts[rows]
    totals = attempts.sum(axis=0)
    fired = np.flatnonzero(totals)
    counts = attempts[:, fired].T
    wins = stats.link_successes[rows][:, fired].T
    sent = counts > 0
    samples = (wins[sent] / counts[sent]).tolist()
    ends = np.cumsum(sent.sum(axis=1)).tolist()
    pooled = (wins.sum(axis=1) / totals[fired]).tolist()
    keys = stats.link_keys
    columns: Dict[LinkKey, Tuple[Tuple[float, ...], float]] = {}
    start = 0
    for column, end, prr in zip(fired.tolist(), ends, pooled):
        columns[keys[column]] = (tuple(samples[start:end]), prr)
        start = end

    absent = ((), None)
    link_reports = {}
    for link in stats.links_seen():
        reuse_samples, reuse_prr = columns.get((link, True), absent)
        cf_samples, cf_prr = columns.get((link, False), absent)
        link_reports[link] = LinkEpochReport(
            link, epoch, reuse_samples, cf_samples, reuse_prr, cf_prr)
    return EpochReport(epoch=epoch, links=link_reports)


def build_epoch_reports(stats: SimulationStats,
                        repetitions_per_epoch: int = SAMPLES_PER_EPOCH,
                        ) -> List[EpochReport]:
    """Group simulation repetitions into health-report epochs.

    Args:
        stats: Simulation output.
        repetitions_per_epoch: Schedule executions per epoch (18 matches
            the paper's sampling density).

    Returns:
        One :class:`EpochReport` per complete epoch; a trailing partial
        epoch is dropped.
    """
    if repetitions_per_epoch <= 0:
        raise ValueError("repetitions_per_epoch must be positive")
    num_epochs = stats.repetitions // repetitions_per_epoch
    return [
        build_epoch_report(stats, epoch,
                           (epoch * repetitions_per_epoch,
                            (epoch + 1) * repetitions_per_epoch))
        for epoch in range(num_epochs)
    ]


class StreamingHealthMonitor:
    """Per-epoch verdict accumulation with warm-up and re-test hysteresis.

    The offline detection experiment classifies each epoch in isolation;
    a live network manager must not: a single-epoch K-S rejection can be
    a sampling artifact, and remediation (rebuilding the schedule)
    perturbs every link's environment, so verdicts from before an action
    say nothing about the schedule running after it.  The monitor
    therefore:

    * ignores everything during an initial **warm-up** (the paper's
      manager also waits for reports to accumulate before acting);
    * requires ``confirm_epochs`` *consecutive* identical verdicts
      before confirming a link (REJECT streak → reuse victim, ACCEPT
      streak → external/other cause);
    * after :meth:`note_action`, enters a **cooldown** during which all
      streaks restart from zero — the re-test hysteresis that prevents
      the manager from thrashing on pre-action evidence.

    Besides the two K-S verdicts the monitor tracks a third streak:
    **suspects** — links whose reuse-slot PRR is deeply degraded
    (below ``suspect_prr``) but that never transmit in contention-free
    cells, so the K-S test has no baseline to compare against
    (``INSUFFICIENT_DATA``).  The paper's policy cannot attribute their
    degradation; a live manager still has to act on them, and moving
    such a link out of shared cells is simultaneously the remedy (if
    reuse was the cause) and the missing experiment (afterwards the link
    produces exactly the contention-free baseline it lacked).

    Links that stop appearing in an epoch's diagnoses (e.g. they were
    rescheduled out of shared cells) drop their streaks.
    """

    def __init__(self, warmup_epochs: int = 1, confirm_epochs: int = 2,
                 cooldown_epochs: int = 1, suspect_prr: float = 0.7):
        if warmup_epochs < 0 or cooldown_epochs < 0:
            raise ValueError("warm-up/cooldown must be non-negative")
        if confirm_epochs < 1:
            raise ValueError("confirm_epochs must be at least 1")
        if not 0.0 <= suspect_prr <= 1.0:
            raise ValueError("suspect_prr must be in [0, 1]")
        self.warmup_epochs = warmup_epochs
        self.confirm_epochs = confirm_epochs
        self.cooldown_epochs = cooldown_epochs
        self.suspect_prr = suspect_prr
        self._reject_streak: Dict[Link, int] = {}
        self._accept_streak: Dict[Link, int] = {}
        self._suspect_streak: Dict[Link, int] = {}
        self._last_action_epoch: Optional[int] = None

    def in_warmup(self, epoch: int) -> bool:
        """Whether the epoch falls inside the initial warm-up."""
        return epoch < self.warmup_epochs

    def in_cooldown(self, epoch: int) -> bool:
        """Whether the epoch falls inside a post-action cooldown."""
        return (self._last_action_epoch is not None
                and epoch - self._last_action_epoch <= self.cooldown_epochs)

    def actionable(self, epoch: int) -> bool:
        """Whether confirmed findings may trigger remediation this epoch."""
        return not (self.in_warmup(epoch) or self.in_cooldown(epoch))

    def observe(self, diagnoses) -> None:
        """Fold one epoch's diagnoses into the verdict streaks.

        Args:
            diagnoses: ``LinkDiagnosis`` sequence from
                :func:`repro.detection.classifier.diagnose_epoch`.
        """
        from repro.detection.classifier import Verdict

        rejected: Set[Link] = set()
        accepted: Set[Link] = set()
        suspect: Set[Link] = set()
        for diagnosis in diagnoses:
            if diagnosis.verdict is Verdict.REJECT:
                rejected.add(diagnosis.link)
            elif diagnosis.verdict is Verdict.ACCEPT:
                accepted.add(diagnosis.link)
            elif (diagnosis.verdict is Verdict.INSUFFICIENT_DATA
                  and diagnosis.reuse_prr is not None
                  and diagnosis.reuse_prr < self.suspect_prr):
                suspect.add(diagnosis.link)
        self._reject_streak = {
            link: self._reject_streak.get(link, 0) + 1 for link in rejected}
        self._accept_streak = {
            link: self._accept_streak.get(link, 0) + 1 for link in accepted}
        self._suspect_streak = {
            link: self._suspect_streak.get(link, 0) + 1 for link in suspect}

    def confirmed_reuse_victims(self) -> List[Link]:
        """Links whose REJECT streak reached the confirmation length."""
        return sorted(link for link, streak in self._reject_streak.items()
                      if streak >= self.confirm_epochs)

    def confirmed_external(self) -> List[Link]:
        """Links whose ACCEPT streak reached the confirmation length.

        These are degraded in reuse *and* contention-free slots alike —
        the K-S test attributes the damage to something other than
        channel reuse (external interference, fading), so rescheduling
        them away from shared cells would not help.
        """
        return sorted(link for link, streak in self._accept_streak.items()
                      if streak >= self.confirm_epochs)

    def confirmed_suspects(self) -> List[Link]:
        """Deeply degraded reuse-only links with a confirmed streak.

        These sustained ``reuse_prr < suspect_prr`` for the confirmation
        length while never producing a contention-free baseline — the
        K-S test cannot attribute them, so they are *suspects*, not
        confirmed victims.  Barring them from reuse is the only move
        that both remediates and completes the missing experiment.
        """
        return sorted(link for link, streak in self._suspect_streak.items()
                      if streak >= self.confirm_epochs)

    def streak_counts(self) -> Dict[str, int]:
        """Current streak-table sizes, for telemetry/time-series feeds.

        Returns:
            ``{"reject": N, "accept": N, "suspect": N}`` — how many
            links currently hold a non-zero streak of each kind (not
            yet necessarily confirmed).
        """
        return {
            "reject": len(self._reject_streak),
            "accept": len(self._accept_streak),
            "suspect": len(self._suspect_streak),
        }

    def note_action(self, epoch: int) -> None:
        """Record that remediation ran; restart streaks and cool down."""
        self._last_action_epoch = epoch
        self._reject_streak.clear()
        self._accept_streak.clear()
        self._suspect_streak.clear()
