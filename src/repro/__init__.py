"""repro — a reproduction of *Improving Throughput for Grid Applications
with Network Logistics* (Martin Swany, SC 2004).

The paper's thesis: end-to-end TCP throughput on high bandwidth·delay
paths improves when the connection is split into a *series* of shorter
TCP connections through storage depots ("the logistical effect"), and
the relay points can be chosen automatically by a minimax-path scheduler
over a Network-Weather-Service-style performance matrix.

Package map
-----------
``repro.core``
    The contribution: the Appendix-A minimax tree with ε edge
    equivalence, ε policies, the logistical scheduler and baselines.
``repro.lsl``
    The Logistical Session Layer: wire format, options, depots, sessions,
    multicast staging, and a real-socket transport.
``repro.net``
    Substrate: a fluid TCP/network simulator (slow start, AIMD, loss,
    window clamps, bounded depot buffers, sequence traces).
``repro.models``
    Substrate: semi-analytic TCP transfer-time models (Mathis, PFTK,
    transient slow-start/AIMD integration, pipelined relays).
``repro.nws``
    Substrate: NWS forecasters, adaptive selection and the clique-
    aggregated performance matrix.
``repro.testbed``
    Experiment harness: synthetic PlanetLab and Abilene testbeds, the
    paper's pseudo-random workload, campaign runner, statistics.
``repro.report``
    Text tables and ASCII plots used by the benchmark harness.

Quickstart
----------
>>> from repro import PathSpec, NetworkSimulator, mb
>>> sim = NetworkSimulator(seed=1)
>>> direct = PathSpec.from_mbit(rtt_ms=87, mbit_per_sec=400, loss_rate=1e-4)
>>> via_a = PathSpec.from_mbit(rtt_ms=68, mbit_per_sec=400, loss_rate=7e-5)
>>> via_b = PathSpec.from_mbit(rtt_ms=34, mbit_per_sec=400, loss_rate=3e-5)
>>> d = sim.run_direct(direct, mb(64))
>>> r = sim.run_relay([via_a, via_b], mb(64))
>>> r.bandwidth > d.bandwidth   # the logistical effect
True
"""

from repro.core.minimax import MinimaxTree, build_mmp_tree
from repro.core.scheduler import LogisticalScheduler, ScheduleDecision
from repro.core.epsilon import (
    EpsilonPolicy,
    FixedEpsilon,
    NwsErrorEpsilon,
    RelativeEpsilon,
    VarianceEpsilon,
)
from repro.net.simulator import NetworkSimulator, TransferResult, speedup
from repro.net.topology import LinkSpec, PathSpec, Topology
from repro.net.tcp import TcpConfig
from repro.nws.matrix import CliqueAggregator, PerformanceMatrix
from repro.lsl.header import SessionHeader, SessionType, new_session_id
from repro.lsl.routetable import RouteTable
from repro.models.transfer_time import effective_bandwidth, transfer_time
from repro.models.relay import relay_effective_bandwidth, relay_transfer_time
from repro.testbed.planetlab import PlanetLabConfig, generate_planetlab
from repro.testbed.abilene import AbileneConfig, abilene_testbed
from repro.testbed.experiment import CampaignConfig, run_campaign
from repro.util.units import mb

__version__ = "1.0.0"

__all__ = [
    "MinimaxTree",
    "build_mmp_tree",
    "LogisticalScheduler",
    "ScheduleDecision",
    "EpsilonPolicy",
    "FixedEpsilon",
    "RelativeEpsilon",
    "NwsErrorEpsilon",
    "VarianceEpsilon",
    "NetworkSimulator",
    "TransferResult",
    "speedup",
    "LinkSpec",
    "PathSpec",
    "Topology",
    "TcpConfig",
    "CliqueAggregator",
    "PerformanceMatrix",
    "SessionHeader",
    "SessionType",
    "new_session_id",
    "RouteTable",
    "effective_bandwidth",
    "transfer_time",
    "relay_effective_bandwidth",
    "relay_transfer_time",
    "PlanetLabConfig",
    "generate_planetlab",
    "AbileneConfig",
    "abilene_testbed",
    "CampaignConfig",
    "run_campaign",
    "mb",
    "__version__",
]
