"""Failover-aware multicast staging over real sockets.

:class:`MulticastFailoverSender` stages one session down a
:class:`~repro.lsl.multicast.StagingTree` of
:class:`~repro.lsl.socket_transport.DepotServer` nodes so that

* every tree node receives the payload as a *parked*
  :attr:`~repro.lsl.header.SessionType.MULTICAST` session under one
  shared session id (claimable later with
  :func:`~repro.lsl.socket_transport.fetch_pickup`);
* each delivery travels through the node's ancestor chain as a loose
  source route, and because multicast sessions retain their completed
  ledgers, a complete ancestor acknowledges the full total instantly —
  the payload crosses each tree edge exactly once and the source resends
  nothing for deep nodes;
* a branch failure is diagnosed with
  :class:`~repro.lsl.health.HealthMonitor` probes feeding the per-depot
  circuit breakers, and the orphaned branch is re-grafted: either via
  :meth:`~repro.core.scheduler.LogisticalScheduler.reroute` around the
  avoided hosts (when a scheduler is attached) or by pruning dead
  ancestors so the delivery resumes from the *nearest surviving
  ancestor*'s ledger watermark.  Sibling branches are untouched — each
  branch is its own delivery with its own ledger state.

With ``stripes > 1`` every hop of every branch runs that many parallel
striped sublinks (see :mod:`repro.lsl.socket_transport`).

The failover is visible end to end exactly like the point-to-point
:class:`~repro.lsl.failover.FailoverSender`: a ``failover`` timeline
event on the source's down stream whose ``detail`` names the branch and
the avoided hosts, plus the ``lsl_failovers_total`` counter and the
health monitor's breaker series.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.scheduler import LogisticalScheduler
from repro.lsl.failover import Address, RerouteLoop
from repro.lsl.faults import FaultPlan, RetryPolicy
from repro.lsl.header import SessionHeader, SessionType, new_session_id
from repro.lsl.health import HealthMonitor
from repro.lsl.multicast import StagingTree
from repro.lsl.socket_transport import SendReport, route_header
from repro.obs.registry import Registry
from repro.obs.timeline import SessionTimeline


def _label(addr: Address) -> str:
    return f"{addr[0]}:{addr[1]}"


@dataclass
class MulticastStagingReport:
    """Outcome of one :meth:`MulticastFailoverSender.stage`.

    Attributes
    ----------
    session:
        Hex session id shared by every node's parked copy.
    payload_bytes:
        Size of the replicated payload.
    delivered:
        Per-node :class:`~repro.lsl.socket_transport.SendReport`, in
        delivery (parents-before-children) order.  A deep node whose ancestors
        were already staged shows ``high_water == 0``: the source sent
        no payload bytes, the nearest complete ancestor replayed them.
    chains:
        Ancestor chains actually attempted per node (addresses, nearest
        the source first); more than one entry means that branch failed
        over.
    failovers:
        Branch re-grafts performed across the whole staging.
    avoided:
        Labels of hosts excluded from routing by the end.
    stripes:
        Striped sublinks per hop (1 = single stream).
    """

    session: str
    payload_bytes: int
    delivered: dict[Address, SendReport] = field(default_factory=dict)
    chains: dict[Address, list[list[Address]]] = field(default_factory=dict)
    failovers: int = 0
    avoided: set[str] = field(default_factory=set)
    stripes: int = 1


class MulticastFailoverSender(RerouteLoop):
    """Stage one payload down a depot tree, re-grafting dead branches.

    Parameters
    ----------
    tree:
        The staging tree of depot listener addresses; every node must be
        a :class:`~repro.lsl.socket_transport.DepotServer` (payloads are
        parked for pickup, which sinks do not speak).
    retry:
        Per-attempt :class:`~repro.lsl.faults.RetryPolicy` (same-chain
        reconnect budget); also paces breaker cooldowns when this sender
        builds its own :class:`~repro.lsl.health.HealthMonitor`.
    health:
        Shared monitor; one is built over the tree's nodes when omitted.
    max_failovers:
        Re-graft budget *per branch* (attempts per node = 1 + this).
    stripes, stripe_block:
        Striped sublinks per hop and their interleave unit.
    scheduler, host_names:
        Optional re-graft oracle: ``host_names`` maps node addresses to
        scheduler host names (every tree node plus the source must
        appear), and a failed branch then asks
        :meth:`~repro.core.scheduler.LogisticalScheduler.reroute` for a
        fresh relay chain avoiding the suspect hosts — which may route
        through depots outside the original ancestor chain.  Without a
        scheduler the fallback prunes dead ancestors from the chain, so
        the branch resumes from its nearest surviving ancestor.
    source_name:
        Label for the source's timeline events and counters.
    registry, timeline, fault_plan:
        Forwarded to :func:`~repro.lsl.socket_transport.send_session`.
    """

    def __init__(
        self,
        tree: StagingTree,
        retry: RetryPolicy | None = None,
        health: HealthMonitor | None = None,
        max_failovers: int = 3,
        stripes: int = 1,
        stripe_block: int = 16 << 10,
        scheduler: LogisticalScheduler | None = None,
        host_names: dict[Address, str] | None = None,
        source_host: str = "source",
        source_name: str = "source",
        registry: Registry | None = None,
        timeline: SessionTimeline | None = None,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        if stripes < 1:
            raise ValueError(f"stripes={stripes} must be >= 1")
        if scheduler is not None and host_names is None:
            raise ValueError("a scheduler requires host_names for the tree")
        self.tree = tree
        self.stripes = stripes
        self.stripe_block = stripe_block
        self.scheduler = scheduler
        self.host_names = dict(host_names or {})
        self.source_host = source_host
        nodes = {
            self._host_label(tree.address_of(i)): tree.address_of(i)
            for i in range(len(tree))
        }
        # off-tree depots the scheduler may graft through, then the tree
        endpoints = {name: a for a, name in self.host_names.items()}
        super().__init__(
            {**endpoints, **nodes}, nodes, retry, health, max_failovers,
            source_name, registry, timeline, fault_plan,
        )

    def _host_label(self, addr: Address) -> str:
        return self.host_names.get(addr) or _label(addr)

    def _relays(self, index: int, avoided: set[str]) -> list[str]:
        """A scheduler re-graft once hosts are avoided, else the node's
        ancestors with the avoided ones pruned."""
        if self.scheduler is not None and avoided:
            dest = self._host_label(self.tree.address_of(index))
            return self._scheduled(
                self.scheduler, self.source_host, dest, avoided
            )
        ancestors = (
            self._host_label(self.tree.address_of(i))
            for i in self.tree.path_to(index)[:-1]
        )
        return [label for label in ancestors if label not in avoided]

    def _header_for(
        self, session_id: bytes, index: int, hops: list[Address], total: int
    ) -> tuple[SessionHeader, Address]:
        """Multicast park header for node ``index`` via ``hops``.

        The root's header additionally announces the whole tree as a
        :class:`~repro.lsl.options.MulticastTreeOption` — the paper's
        Section-2 header option travelling with the session.
        """
        return route_header(
            self.tree.address_of(index),
            hops,
            session_id=session_id,
            session_type=SessionType.MULTICAST,
            options=(self.tree.to_option(),) if index == 0 else (),
        )

    def stage(
        self,
        payload: bytes,
        chunk_size: int = 64 << 10,
        session_id: bytes | None = None,
    ) -> MulticastStagingReport:
        """Replicate ``payload`` to every tree node, re-grafting on failure.

        Nodes are visited parents-before-children, so a child's
        delivery finds its ancestors' ledgers complete.  Each
        branch runs its own failover loop; a failure on one branch never
        disturbs a sibling already delivered or still pending.

        Raises
        ------
        NoRouteLeft
            Some branch's re-graft budget ran out — the exception names
            the branch and the avoided hosts.
        """
        if not payload:
            raise ValueError("payload must be non-empty")
        session_id = session_id if session_id is not None else new_session_id()
        report = MulticastStagingReport(
            session=session_id.hex(),
            payload_bytes=len(payload),
            stripes=self.stripes,
        )
        avoided: set[str] = set()
        # node order is already topological: the wire format requires
        # parents before children, so ascending index visits ancestors
        # before descendants
        for index in range(len(self.tree)):
            node = self.tree.address_of(index)
            tried: list[list[str]] = []
            report.delivered[node] = self._deliver(
                index, payload, chunk_size, session_id, avoided, report,
                tried, branch=self._host_label(node), stripes=self.stripes,
                stripe_block=self.stripe_block,
            )
            report.chains[node] = [self._addresses(r) for r in tried]
        report.avoided = set(avoided)
        return report
