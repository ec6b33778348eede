"""Pluggable remediation strategies for the network manager.

Each policy looks at one epoch's :class:`Observation` — the streaming
monitor's confirmed findings plus the epoch's health data — and returns
an :class:`Action` (or ``None``).  The manager loop owns *applying* the
action (:func:`repro.manager.loop.remediate`: repair first, the full
rebuild as the fallback; swapping channel maps), so policies stay pure
decision functions and are trivially testable with hand-built
observations.

The four strategies mirror the remediation levers a WirelessHART
network manager actually has:

* :class:`RescheduleVictims` — "links can be reassigned to different
  channels or time slots" (paper Section VI): move confirmed
  reuse-degraded links out of shared cells and bar them from reuse.
* :class:`BlacklistChannel` — when degradation is reuse-independent
  (K-S *accepts*) and concentrated on specific physical channels, drop
  the worst channel from the hopping map (the MAC blacklist, through
  :meth:`repro.network.topology.Topology.restrict_channels`) and move
  its transmissions.
* :class:`EscalateRho` — raise the conservative reuse hop floor ρ_t and
  move the transmissions it breaks: trades schedulability margin for
  interference margin when reuse keeps hurting links faster than
  spot-rescheduling fixes them.
* :class:`NoOp` — the do-nothing baseline every adaptation experiment
  compares against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.detection.classifier import LinkDiagnosis
from repro.detection.health import EpochReport
from repro.simulator.stats import Link


@dataclass(frozen=True)
class Observation:
    """What a policy sees at the end of one epoch.

    Attributes:
        epoch: Epoch index.
        report: The epoch's health report.
        diagnoses: This epoch's raw K-S diagnoses.
        confirmed_victims: Reuse-degraded links that survived the
            streaming monitor's confirmation streak.
        confirmed_external: Links confirmed degraded by something other
            than reuse (K-S accept streak).
        confirmed_suspects: Deeply degraded reuse-only links the K-S
            test could not attribute (no contention-free baseline).
        channel_prr: Pooled PRR per physical channel this epoch.
        actionable: False during warm-up/cooldown; policies must not
            act.
        rho_t: The reuse hop floor the current schedule was built with.
        num_channels: Channels currently in the hopping map.
        barred_links: Links already barred from reuse by earlier
            reschedule actions.
        slo_alerts / slo_warns: Flow ids whose SLO burn-rate state is
            ``alert`` / ``warn`` this epoch
            (:class:`repro.obs.slo.SloEngine`) — the early-warning
            channel that fires on budget exhaustion before the K-S
            streaks confirm a cause.
        slo_victim_candidates: Reuse links on alerting flows' routes,
            not yet barred — the loop's translation of flow-level SLO
            alarms into link-level remediation hints.
    """

    epoch: int
    report: EpochReport
    diagnoses: List[LinkDiagnosis]
    confirmed_victims: List[Link]
    confirmed_external: List[Link]
    confirmed_suspects: List[Link]
    channel_prr: Dict[int, float]
    actionable: bool
    rho_t: int
    num_channels: int
    barred_links: Tuple[Link, ...] = ()
    slo_alerts: Tuple[int, ...] = ()
    slo_warns: Tuple[int, ...] = ()
    slo_victim_candidates: Tuple[Link, ...] = ()


@dataclass(frozen=True)
class Action:
    """A remediation decision the manager loop should apply.

    Attributes:
        kind: ``"reschedule"``, ``"blacklist"``, or ``"escalate_rho"``.
        victims: Links to bar from shared cells (``reschedule``).
        channel: Physical channel to drop (``blacklist``).
        rho_t: New reuse hop floor (``escalate_rho``).
        reason: Human-readable trigger summary (traced and reported).
    """

    kind: str
    victims: Tuple[Link, ...] = ()
    channel: Optional[int] = None
    rho_t: Optional[int] = None
    reason: str = ""

    def describe(self) -> str:
        """Short label for epoch reports."""
        if self.kind == "reschedule":
            return f"reschedule({len(self.victims)} links)"
        if self.kind == "blacklist":
            return f"blacklist(ch{self.channel})"
        if self.kind == "escalate_rho":
            return f"escalate_rho({self.rho_t})"
        return self.kind


class NoOp:
    """Never intervenes: the baseline the paper's static pipeline is."""

    name = "NoOp"

    def decide(self, observation: Observation) -> Optional[Action]:
        """Do nothing, always."""
        return None


@dataclass
class RescheduleVictims:
    """Bar confirmed reuse-degraded links from shared cells.

    The loop applies it as a victims change through
    :func:`repro.manager.loop.remediate`.  Victims accumulate across
    actions: once a
    link has been shown reuse-fragile it stays barred, because the
    conditions that degraded it (under-surveyed coupling) do not heal
    when the schedule changes.

    Attributes:
        max_victims_per_action: Cap on newly barred links per action —
            the manager moves the worst offenders first and re-tests,
            instead of tearing up the whole schedule on one epoch's
            evidence.
        include_suspects: Also bar confirmed *suspects* — reuse-only
            links too degraded to ignore but lacking the contention-free
            baseline the K-S test needs.  Moving them to exclusive cells
            is the remedy if reuse was the cause and produces the
            missing baseline if it was not.
        slo_early_warning: Also consider ``slo_victim_candidates`` —
            reuse links on flows whose SLO burn rate is in sustained
            ``alert``.  This acts *ahead* of K-S confirmation (burn
            windows are shorter than warm-up + confirm streaks), at the
            cost of occasionally barring a link whose flow was hurt by
            something reuse removal cannot fix.  Off by default to keep
            the PR 5 policy behavior bit-identical.
    """

    name: str = field(default="RescheduleVictims", init=False)
    max_victims_per_action: int = 20
    include_suspects: bool = True
    slo_early_warning: bool = False

    def decide(self, observation: Observation) -> Optional[Action]:
        """Reschedule confirmed victims (and suspects) not already barred."""
        if not observation.actionable:
            return None
        candidates = list(observation.confirmed_victims)
        if self.include_suspects:
            candidates += [link for link in observation.confirmed_suspects
                           if link not in set(candidates)]
        barred = set(observation.barred_links)
        fresh = [link for link in candidates if link not in barred]
        num_confirmed = len(fresh)
        if self.slo_early_warning:
            seen = set(candidates) | barred
            fresh += [link for link in observation.slo_victim_candidates
                      if link not in seen]
        if not fresh:
            return None
        worst = sorted(
            fresh,
            key=lambda link: (
                observation.report.links[link].reuse_prr
                if link in observation.report.links
                and observation.report.links[link].reuse_prr is not None
                else 0.0))
        chosen = tuple(worst[:self.max_victims_per_action])
        reason = f"{num_confirmed} confirmed reuse victims"
        if len(fresh) > num_confirmed:
            reason += (f" + {len(fresh) - num_confirmed} SLO "
                       f"early-warning candidates "
                       f"({len(observation.slo_alerts)} flows alerting)")
        return Action(kind="reschedule", victims=chosen, reason=reason)


@dataclass
class BlacklistChannel:
    """Drop the worst physical channel when degradation is reuse-blind.

    Triggers when the monitor confirms *externally* degraded links (K-S
    accept streak — reuse removal would not help) and one channel's
    pooled PRR sits both below ``prr_threshold`` and clearly below the
    best channel's.  The loop then rebuilds the schedule on the reduced
    hopping map (one fewer offset).

    Attributes:
        prr_threshold: A channel must pool below this to be dropped.
        margin: Required PRR gap to the best channel (avoids
            blacklisting when *everything* is equally bad — dropping a
            channel then only cuts capacity).
        min_channels: Never shrink the map below this (TSCH needs
            hopping diversity; the schedule needs offsets).
    """

    name: str = field(default="BlacklistChannel", init=False)
    prr_threshold: float = 0.85
    margin: float = 0.05
    min_channels: int = 2

    def decide(self, observation: Observation) -> Optional[Action]:
        """Blacklist the worst channel if it is singularly bad."""
        if not observation.actionable:
            return None
        if not observation.confirmed_external:
            return None
        if observation.num_channels <= self.min_channels:
            return None
        if not observation.channel_prr:
            return None
        worst_channel = min(observation.channel_prr,
                            key=observation.channel_prr.get)
        worst = observation.channel_prr[worst_channel]
        best = max(observation.channel_prr.values())
        if worst >= self.prr_threshold or best - worst < self.margin:
            return None
        return Action(
            kind="blacklist", channel=worst_channel,
            reason=(f"{len(observation.confirmed_external)} external-cause "
                    f"links; ch{worst_channel} PRR {worst:.2f} vs best "
                    f"{best:.2f}"))


@dataclass
class EscalateRho:
    """Raise the reuse hop floor ρ_t and rebuild the whole schedule.

    The blunt instrument: instead of barring individual links, make
    *every* reuse placement more conservative.  Useful when confirmed
    victims keep appearing — the reuse graph's hop distances are
    underestimating interference globally, which is exactly the failure
    mode the paper's conservative policy guards against.

    Attributes:
        step: How much to raise ρ_t per action.
        max_rho: Upper bound (beyond the reuse graph's diameter, RC
            degenerates into NR).
    """

    name: str = field(default="EscalateRho", init=False)
    step: int = 1
    max_rho: int = 6

    def decide(self, observation: Observation) -> Optional[Action]:
        """Escalate while confirmed victims exist and headroom remains."""
        if not observation.actionable:
            return None
        degraded = (len(observation.confirmed_victims)
                    + len(observation.confirmed_suspects))
        if not degraded:
            return None
        if observation.rho_t >= self.max_rho:
            return None
        new_rho = min(observation.rho_t + self.step, self.max_rho)
        return Action(
            kind="escalate_rho", rho_t=new_rho,
            reason=(f"{degraded} confirmed victims/suspects at "
                    f"rho_t={observation.rho_t}"))


#: CLI name -> policy factory.
MANAGER_POLICIES = {
    "noop": NoOp,
    "reschedule": RescheduleVictims,
    "blacklist": BlacklistChannel,
    "escalate": EscalateRho,
}


def make_manager_policy(name: Union[str, NoOp, RescheduleVictims,
                                    BlacklistChannel, EscalateRho]):
    """Instantiate a remediation policy from its CLI name.

    Accepts an already-built policy object (returned unchanged) or one
    of ``noop`` / ``reschedule`` / ``blacklist`` / ``escalate`` (also
    accepted: the class names, case-insensitively).
    """
    if not isinstance(name, str):
        return name
    key = name.lower()
    aliases = {cls.__name__.lower(): cls
               for cls in (NoOp, RescheduleVictims, BlacklistChannel,
                           EscalateRho)}
    factory = MANAGER_POLICIES.get(key) or aliases.get(key)
    if factory is None:
        raise ValueError(
            f"unknown manager policy: {name!r} "
            f"(expected one of {', '.join(sorted(MANAGER_POLICIES))})")
    return factory()
