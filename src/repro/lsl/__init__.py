"""The Logistical Session Layer (LSL).

Section 2 of the paper: a session-layer protocol binding one end-to-end
*session* to a series of transport connections through storage depots.

* :mod:`~repro.lsl.header` — the wire format: 128-bit session identifier,
  IPv4 source/destination plus 16-bit ports, 16-bit version and type
  fields, a header-length field, and variable options;
* :mod:`~repro.lsl.options` — TLV header options, including the "loose
  source route" (the initiator-specified depot path, analogous to IP's
  LSRR) and the synchronous multicast staging tree;
* :mod:`~repro.lsl.routetable` — destination/next-hop tables produced by
  the scheduler and consumed by depots for hop-by-hop forwarding;
* :mod:`~repro.lsl.socket_transport` — the depot and its endpoints over
  real TCP (localhost).  ``DepotServer`` is the one depot: it forwards
  sessions, parks those addressed to it and serves their pickup (§2's
  asynchronous sessions, claimed with :func:`pickup_header`);
  ``SinkServer`` terminates sessions; the source builds its header
  with ``route_header`` and sends with ``send_session``.  Performance
  experiments run on the simulator (:mod:`repro.net`) instead, where
  BDP effects exist;
* :mod:`~repro.lsl.multicast` — the application-layer multicast staging
  tree carried as a header option; :mod:`~repro.lsl.multicast_failover`
  stages a payload down it over real depots;
* :mod:`~repro.lsl.health` — the depot health control plane: liveness
  probes, per-depot circuit breakers, heartbeat monitoring;
* :mod:`~repro.lsl.failover` — automatic mid-transfer failover over
  scheduler reroutes, resuming from depot ledgers.
"""

from repro.lsl.header import (
    LSL_VERSION,
    SessionHeader,
    SessionType,
    new_session_id,
)
from repro.lsl.faults import (
    FaultKind,
    FaultPlan,
    FaultRule,
    RetryExhausted,
    RetryPolicy,
    SessionLedger,
)
from repro.lsl.options import (
    HeaderOption,
    LooseSourceRoute,
    MulticastTreeOption,
    PaddingOption,
    ResumeOffset,
    decode_options,
    encode_options,
)
from repro.lsl.health import (
    BreakerOpen,
    BreakerState,
    CircuitBreaker,
    HealthMonitor,
    ProbeResult,
    probe_depot,
)
from repro.lsl.failover import FailoverReport, FailoverSender, NoRouteLeft
from repro.lsl.routetable import RouteTable
from repro.lsl.socket_transport import pickup_header
from repro.lsl.multicast import StagingTree

__all__ = [
    "LSL_VERSION",
    "SessionHeader",
    "SessionType",
    "new_session_id",
    "FaultKind",
    "FaultPlan",
    "FaultRule",
    "RetryExhausted",
    "RetryPolicy",
    "SessionLedger",
    "HeaderOption",
    "LooseSourceRoute",
    "MulticastTreeOption",
    "PaddingOption",
    "ResumeOffset",
    "decode_options",
    "encode_options",
    "BreakerOpen",
    "BreakerState",
    "CircuitBreaker",
    "HealthMonitor",
    "ProbeResult",
    "probe_depot",
    "FailoverReport",
    "FailoverSender",
    "NoRouteLeft",
    "RouteTable",
    "pickup_header",
    "StagingTree",
]
