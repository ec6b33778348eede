"""Synthetic testbed generation: positions → per-channel PRR matrices.

This is the library's substitute for the physical Indriya and WUSTL
testbeds (see DESIGN.md §4).  Given node positions and a propagation
model, it synthesizes:

* a :class:`~repro.network.topology.Topology` whose per-channel PRR matrix
  has the statistical structure of a real deployment — a core of reliable
  links, a fringe of intermediate-quality links, per-channel variation
  (frequency-selective fading), and mild asymmetry; and

* a :class:`RadioEnvironment` capturing the *ground-truth* received signal
  strengths, which the discrete-event simulator uses to compute SINR under
  concurrent transmissions.  Crucially, the interference range implied by
  the RSSI model exceeds the communication range, just as on real
  hardware — this gap is exactly what makes aggressive channel reuse
  risky.

Randomness is explicit: all draws come from a caller-provided
``numpy.random.Generator``, so a (testbed, seed) pair is fully
reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.mac.channels import ChannelMap
from repro.network.node import Node, NodeRole, Position
from repro.network.topology import Topology
from repro.propagation.pathloss import (
    DEFAULT_NOISE_FLOOR_DBM,
    DEFAULT_TX_POWER_DBM,
    LogDistancePathLoss,
)
from repro.propagation.prr_model import DEFAULT_FRAME_BYTES, get_prr_curve
from repro.testbeds.layout import FloorPlan, grid_positions

#: PRRs below this are clamped to exactly zero in the topology matrix.
#: The analytic PRR curve never reaches 0, but links this weak deliver no
#: packets in practice and must not create channel-reuse-graph edges.
PRR_FLOOR = 1e-3


@dataclass(frozen=True)
class RadioEnvironment:
    """Ground-truth RF environment backing a synthetic testbed.

    Attributes:
        positions: ``(n, 3)`` node coordinates in meters.
        rssi_dbm: ``(n, n, C)`` received power at v when u transmits at the
            reference power, per channel (logical order of ``channel_map``).
            The diagonal is ``-inf``.
        channel_map: Physical channels, logical order.
        tx_power_dbm: Reference transmit power used for ``rssi_dbm``.
        noise_floor_dbm: Receiver noise floor.
        frame_bytes: Data frame size assumed by the PRR model.
        grey_sigma_db: Width of the PRR curve's grey region (see
            :class:`repro.propagation.prr_model.PrrCurve`).  The same
            value must be used when simulating the testbed.
    """

    positions: np.ndarray
    rssi_dbm: np.ndarray
    channel_map: ChannelMap
    tx_power_dbm: float = DEFAULT_TX_POWER_DBM
    noise_floor_dbm: float = DEFAULT_NOISE_FLOOR_DBM
    frame_bytes: int = DEFAULT_FRAME_BYTES
    grey_sigma_db: float = 2.5

    @property
    def num_nodes(self) -> int:
        """Number of nodes in the environment."""
        return self.rssi_dbm.shape[0]

    def prr_curve(self):
        """The SINR→PRR curve governing this environment."""
        return get_prr_curve(self.frame_bytes, self.grey_sigma_db)

    def prr_matrix(self) -> np.ndarray:
        """Full ``(n, n, C)`` interference-free PRR matrix (floored)."""
        n = self.num_nodes
        snr = self.rssi_dbm - self.noise_floor_dbm
        matrix = self.prr_curve().many(snr)
        matrix[matrix < PRR_FLOOR] = 0.0
        diagonal = np.arange(n)
        matrix[diagonal, diagonal, :] = 0.0
        return matrix


@dataclass(frozen=True)
class SynthesisParams:
    """Knobs controlling the statistical texture of a synthetic testbed.

    Attributes:
        pathloss: Distance/floor attenuation model.
        channel_fading_sigma_db: Std-dev of the static per-(link, channel)
            fading term — this is what makes PRR vary across channels, and
            hence what differentiates the communication graph (reliable on
            *all* channels) from the reuse graph (audible on *any* channel).
        asymmetry_sigma_db: Std-dev of the per-directed-link gain offset
            (hardware variation between radios), producing mildly
            asymmetric PRRs as observed on real testbeds.
        tx_power_dbm: Transmit power (0 dBm in the paper's experiments).
        noise_floor_dbm: Receiver noise floor.
        frame_bytes: Frame size for the PRR model.
        grey_sigma_db: Width of the PRR grey region (curve smoothing).
            Must equal the aggregate fading spread the simulator applies
            (``sqrt(fast² + slow²)``, 3.6 dB with the simulator defaults)
            so that measured PRRs and simulated clean-air PRRs agree.
        neighbor_table_size: Maximum neighbors a node reports to the
            network manager (WirelessHART neighbor tables are
            capacity-limited; TelosB-class stacks keep a few dozen
            entries).  A pair survives in the *measured* topology if
            either endpoint ranks the other among its strongest
            ``neighbor_table_size`` neighbors.  Weak-but-audible pairs
            beyond the cutoff stay invisible to the manager — the model
            error that makes hop-based channel reuse risky on real
            hardware.  None disables the limit.
    """

    pathloss: LogDistancePathLoss = LogDistancePathLoss(
        pl_d0_db=55.0, exponent=3.5, floor_attenuation_db=16.0,
        shadowing_sigma_db=3.0)
    channel_fading_sigma_db: float = 2.0
    asymmetry_sigma_db: float = 1.0
    tx_power_dbm: float = DEFAULT_TX_POWER_DBM
    noise_floor_dbm: float = DEFAULT_NOISE_FLOOR_DBM
    frame_bytes: int = DEFAULT_FRAME_BYTES
    grey_sigma_db: float = 3.6
    neighbor_table_size: Optional[int] = 10


def synthesize(positions: List[Position], plan: FloorPlan,
               channel_map: ChannelMap, rng: np.random.Generator,
               params: Optional[SynthesisParams] = None,
               name: str = "") -> Tuple[Topology, RadioEnvironment]:
    """Synthesize a testbed from node positions.

    Args:
        positions: Node placements (see :mod:`repro.testbeds.layout`).
        plan: Building geometry, used to count floors crossed per link.
        channel_map: Channels to synthesize PRRs for.
        rng: Seeded random generator; drives shadowing/fading draws.
        params: Propagation and fading parameters.
        name: Topology label.

    Returns:
        ``(topology, environment)`` where the topology's PRR matrix equals
        the environment's interference-free PRR matrix.
    """
    params = params or SynthesisParams()
    n = len(positions)
    num_channels = len(channel_map)
    coordinates = np.array([p.as_tuple() for p in positions])

    # Pairwise distances and floors crossed.
    deltas = coordinates[:, None, :] - coordinates[None, :, :]
    distances = np.sqrt((deltas ** 2).sum(axis=2))
    floor_indices = np.array([plan.floor_of(p) for p in positions])
    floors_crossed = np.abs(floor_indices[:, None] - floor_indices[None, :])

    # Static shadowing: symmetric per undirected link.
    shadowing = params.pathloss.draw_shadowing(rng, (n, n))
    shadowing = np.triu(shadowing, k=1)
    shadowing = shadowing + shadowing.T

    # Frequency-selective fading: symmetric per (undirected link, channel).
    fading = rng.normal(0.0, params.channel_fading_sigma_db,
                        (n, n, num_channels))
    upper = np.triu(np.ones((n, n), dtype=bool), k=1)
    fading = fading * upper[:, :, None]
    fading = fading + np.transpose(fading, (1, 0, 2))

    # Mild per-directed-link asymmetry (radio hardware variation).
    asymmetry = rng.normal(0.0, params.asymmetry_sigma_db, (n, n))
    np.fill_diagonal(asymmetry, 0.0)

    # Path loss (distance + floors), identical in both directions.
    effective = np.maximum(distances, params.pathloss.reference_distance_m)
    base_loss = (params.pathloss.pl_d0_db
                 + 10.0 * params.pathloss.exponent
                 * np.log10(effective / params.pathloss.reference_distance_m)
                 + params.pathloss.floor_attenuation_db * floors_crossed)

    loss = (base_loss + shadowing)[:, :, None] + fading + asymmetry[:, :, None]
    rssi = params.tx_power_dbm - loss
    diagonal = np.arange(n)
    rssi[diagonal, diagonal, :] = -np.inf

    environment = RadioEnvironment(
        positions=coordinates,
        rssi_dbm=rssi,
        channel_map=channel_map,
        tx_power_dbm=params.tx_power_dbm,
        noise_floor_dbm=params.noise_floor_dbm,
        frame_bytes=params.frame_bytes,
        grey_sigma_db=params.grey_sigma_db,
    )
    measured_prr = environment.prr_matrix()
    if params.neighbor_table_size is not None:
        measured_prr = apply_neighbor_table_limit(
            measured_prr, params.neighbor_table_size)
    nodes = [Node(i, NodeRole.FIELD_DEVICE, positions[i]) for i in range(n)]
    topology = Topology(nodes=nodes, channel_map=channel_map,
                        prr=measured_prr, name=name)
    return topology, environment


def apply_neighbor_table_limit(prr: np.ndarray, table_size: int) -> np.ndarray:
    """Model capacity-limited neighbor reporting.

    Each node ranks its potential neighbors by link strength (mean PRR
    over channels, best direction) and reports only the strongest
    ``table_size``.  The network manager's view keeps a pair iff either
    endpoint reported the other; all other pairs read as "never heard"
    (zero PRR) even though the ground-truth radio environment still
    couples them.

    Args:
        prr: Full measured PRR matrix ``(n, n, C)``.
        table_size: Neighbor-table capacity per node.

    Returns:
        A copy of ``prr`` with unreported pairs zeroed in both directions.
    """
    if table_size < 1:
        raise ValueError("table_size must be at least 1")
    n = prr.shape[0]
    strength = prr.mean(axis=2)
    strength = np.maximum(strength, strength.T)
    reported = np.zeros((n, n), dtype=bool)
    for node in range(n):
        order = np.argsort(-strength[node])
        kept = [v for v in order if v != node and strength[node, v] > 0.0]
        for v in kept[:table_size]:
            reported[node, v] = True
    keep = reported | reported.T
    limited = prr.copy()
    limited[~keep] = 0.0
    return limited


def make_testbed(num_nodes: int, plan: FloorPlan, seed: int,
                 num_channels: int = 16,
                 params: Optional[SynthesisParams] = None,
                 name: str = "") -> Tuple[Topology, RadioEnvironment]:
    """Convenience wrapper: place nodes on the plan and synthesize.

    Args:
        num_nodes: Number of nodes.
        plan: Building geometry.
        seed: Seed for all random draws (placement jitter + fading).
        num_channels: How many 802.15.4 channels to synthesize (from 11 up).
        params: Propagation parameters.
        name: Topology label.
    """
    rng = np.random.default_rng(seed)
    positions = grid_positions(num_nodes, plan, rng)
    channel_map = ChannelMap.first_n(num_channels)
    return synthesize(positions, plan, channel_map, rng, params, name)
