"""Automatic mid-transfer failover over scheduler reroutes.

PR 1 made a *route* survivable: a depot that crashes and restarts can be
resumed into, because the session ledger remembers the contiguous
acknowledged prefix.  This module makes the *transfer* survivable when a
depot stays dead: :class:`FailoverSender` wraps
:func:`~repro.lsl.socket_transport.send_session` so that when the
current route faults past its retry budget, the sender

1. diagnoses the route with :func:`~repro.lsl.health.probe_depot`
   sweeps and feeds the per-depot circuit breakers,
2. asks :meth:`repro.core.scheduler.LogisticalScheduler.reroute` for
   the best minimax route avoiding every suspect host,
3. re-issues the *same session id* over the new route's loose source
   route — the ResumeOffset handshake then continues each sublink from
   its receiver's ledger watermark, so bytes already staged along
   surviving hops are never re-sent end to end.

Those steps are written once, in :class:`RerouteLoop`; the multicast
:class:`~repro.lsl.multicast_failover.MulticastFailoverSender` runs the
same loop per tree branch and differs only in where its chains come
from and how its headers look.

The failover is visible end to end: a ``failover`` timeline event on
the source's down stream (``detail`` names the avoided hosts), an
``lsl_failovers_total`` counter, and breaker state/transition series
from :mod:`repro.lsl.health`.  The simulator mirrors the same event
sequence in :func:`repro.net.simulator.run_relay_with_failover`, which
the end-to-end equivalence test pins against this module.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Any

from repro.core.scheduler import LogisticalScheduler
from repro.lsl.faults import FaultPlan, RetryExhausted, RetryPolicy
from repro.lsl.header import SessionHeader, new_session_id
from repro.lsl.health import HealthMonitor
from repro.lsl.options import ResumeOffset
from repro.lsl.socket_transport import SendReport, route_header, send_session
from repro.obs.registry import NULL_REGISTRY, Registry
from repro.obs.timeline import DISABLED_TIMELINE, STREAM_DOWN, SessionTimeline

log = logging.getLogger(__name__)

Address = tuple[str, int]


@dataclass
class FailoverReport:
    """Outcome of one :meth:`FailoverSender.send`.

    Attributes
    ----------
    send:
        The successful attempt's :class:`SendReport`.
    session:
        Hex session id (stable across every route tried).
    routes:
        Host sequences actually attempted, in order; the last one
        carried the session to completion.
    failovers:
        Reroutes performed (``len(routes) - 1``).
    avoided:
        Hosts excluded from routing by the time the session completed.
    """

    send: SendReport
    session: str
    routes: list[list[str]] = field(default_factory=list)
    failovers: int = 0
    avoided: set[str] = field(default_factory=set)


class NoRouteLeft(ConnectionError):
    """Every reroute candidate was exhausted without completing."""


class RerouteLoop:
    """The probe → breaker → reroute → resume-same-session loop.

    Both failover senders subclass this and supply only what differs:
    :meth:`_relays`, where a chain of relay hosts comes from, and
    :meth:`_header_for`, the session header that realises it.  Relays
    are named by their :class:`~repro.lsl.health.HealthMonitor` labels;
    ``endpoints`` maps every label a chain may use to its listener
    address, and ``targets`` is what a monitor built here watches.  The
    other arguments are documented on the subclasses.
    """

    def __init__(
        self, endpoints: dict[str, Address], targets: dict[str, Address],
        retry: RetryPolicy | None, health: HealthMonitor | None,
        max_failovers: int, source_name: str, registry: Registry | None,
        timeline: SessionTimeline | None, fault_plan: FaultPlan | None,
    ) -> None:
        if max_failovers < 0:
            raise ValueError(f"max_failovers={max_failovers} must be >= 0")
        self.endpoints = dict(endpoints)
        self.retry = retry or RetryPolicy()
        self.max_failovers = max_failovers
        self.source_name = source_name
        self._obs = registry if registry is not None else NULL_REGISTRY
        self._tl = timeline if timeline is not None else DISABLED_TIMELINE
        self._fault_plan = fault_plan
        if health is None:
            health = HealthMonitor(
                targets, cooldown=self.retry, registry=self._obs
            )
        self.health = health

    # -- what each sender supplies -----------------------------------------
    def _relays(self, target: Any, avoided: set[str]) -> list[str]:
        """Relay hosts toward ``target``, none of them in ``avoided``.

        Raises :class:`ValueError` when no chain is left.
        """
        raise NotImplementedError

    def _header_for(
        self, session_id: bytes, target: Any, hops: list[Address], total: int
    ) -> tuple[SessionHeader, Address]:
        """Header and first hop of a delivery to ``target`` via ``hops``."""
        raise NotImplementedError

    def _addresses(self, hosts: list[str]) -> list[Address]:
        """Listener addresses of a chain's relay hosts."""
        for host in hosts:
            if host not in self.endpoints:
                raise ValueError(
                    f"scheduler routed via {host!r}, which has no known "
                    f"listener address"
                )
        return [self.endpoints[h] for h in hosts]

    @staticmethod
    def _scheduled(
        scheduler: LogisticalScheduler, source: str, dest: str,
        avoided: set[str],
    ) -> list[str]:
        """The relays of the scheduler's best route around ``avoided``."""
        if avoided:
            decision = scheduler.reroute(source, dest, avoided)
        else:
            decision = scheduler.decide(source, dest)
        return decision.route[1:-1]

    # -- the reroute loop --------------------------------------------------
    def _deliver(
        self, target: Any, payload: bytes, chunk_size: int,
        session_id: bytes, avoided: set[str], report: Any,
        tried: list[list[str]], branch: str = "", stripes: int = 1,
        stripe_block: int = 16 << 10,
    ) -> SendReport:
        """Deliver ``payload`` to ``target``, rerouting on failure.

        ``avoided`` grows in place and is mirrored on ``report`` with
        its failover count; ``tried`` gains each chain's relays as it
        is dialed.  ``branch`` names a multicast branch in events and
        errors.  At most ``1 + max_failovers`` chains are dialed.
        """
        where = f" branch {branch}" if branch else ""
        last_error: Exception | None = None
        attempts = 0
        while attempts <= self.max_failovers:
            try:
                relays = self._relays(target, avoided)
                hops = self._addresses(relays)
            except ValueError as exc:
                raise NoRouteLeft(
                    f"session {session_id.hex()}{where}: no route avoiding "
                    f"{sorted(avoided)}: {exc}"
                ) from exc
            watched = [h for h in relays if h in self.health.targets]
            blocked = {h for h in watched if not self.health.allow(h)}
            if blocked:
                # a breaker opened since the chain was computed: fold it
                # in and re-ask rather than knowingly dial a
                # short-circuited depot.  That is not an attempt; the
                # re-asking ends because ``avoided`` grows every round.
                avoided |= blocked
                report.avoided = set(avoided)
                continue
            attempts += 1
            tried.append(relays)
            header, first_hop = self._header_for(
                session_id, target, hops, len(payload)
            )
            try:
                sent = send_session(
                    payload, header, first_hop, chunk_size=chunk_size,
                    retry=self.retry, fault_plan=self._fault_plan,
                    source_name=self.source_name, registry=self._obs,
                    timeline=self._tl, stripes=stripes,
                    stripe_block=stripe_block,
                )
            except (RetryExhausted, ConnectionError, OSError) as exc:
                last_error = exc
                # probes feed the breakers, so a refused depot trips
                # toward OPEN here; when nothing probes dead, suspect
                # every relay so the reroute changes topology instead
                # of spinning in place
                failed = self.health.diagnose(watched) if watched else set()
                failed = failed or set(relays)
                if not failed:
                    # direct delivery with no relays to blame: give up
                    break
                avoided |= failed
                report.avoided = set(avoided)
                report.failovers += 1
                self._obs.counter(
                    "lsl_failovers_total", labels={"node": self.source_name}
                ).inc()
                prefix = f"branch={branch} " if branch else ""
                self._tl.record(
                    "failover", node=self.source_name, stream=STREAM_DOWN,
                    session=session_id.hex(),
                    detail=prefix + "avoid=" + ",".join(sorted(avoided)),
                )
                log.info(
                    "session %s%s: chain %s failed (%s); avoiding %s",
                    session_id.hex(), where, relays, exc, sorted(avoided),
                )
                continue
            # send_session returns a SendReport on the resumable path
            assert sent is not None
            for host in watched:
                self.health.breaker(host).record_success()
            return sent
        raise NoRouteLeft(
            f"session {session_id.hex()}{where} failed after "
            f"{report.failovers} failover(s), avoiding {sorted(avoided)}"
        ) from last_error


class FailoverSender(RerouteLoop):
    """A fault-tolerant sender that reroutes around dead depots.

    Parameters
    ----------
    scheduler:
        Route oracle; consulted once per attempt via
        :meth:`~repro.core.scheduler.LogisticalScheduler.decide` /
        :meth:`~repro.core.scheduler.LogisticalScheduler.reroute`.
    endpoints:
        ``host name -> (ip, port)`` listener addresses for every host
        the scheduler may route through (including the destination).
    source, dest:
        Scheduler host names of the session endpoints.
    retry:
        Per-route :class:`~repro.lsl.faults.RetryPolicy` (same-route
        reconnect budget); also paces breaker cooldowns when this
        sender builds its own :class:`~repro.lsl.health.HealthMonitor`.
    health:
        Shared monitor; one is built from ``endpoints`` when omitted.
        Depots whose breakers are open are avoided *before* a route is
        tried, not just after it fails.
    max_failovers:
        Reroute budget per send (attempts = 1 + this many).
    registry, timeline, fault_plan:
        Forwarded to :func:`send_session`; the registry also feeds the
        failover counter and the health monitor's series.
    """

    def __init__(
        self,
        scheduler: LogisticalScheduler,
        endpoints: dict[str, tuple[str, int]],
        source: str,
        dest: str,
        retry: RetryPolicy | None = None,
        health: HealthMonitor | None = None,
        max_failovers: int = 3,
        source_name: str | None = None,
        registry: Registry | None = None,
        timeline: SessionTimeline | None = None,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        if dest not in endpoints:
            raise ValueError(f"destination {dest!r} missing from endpoints")
        super().__init__(
            endpoints,
            {name: a for name, a in endpoints.items() if name != source},
            retry, health, max_failovers,
            source_name if source_name is not None else source,
            registry, timeline, fault_plan,
        )
        self.scheduler = scheduler
        self.source = source
        self.dest = dest

    def _relays(self, target: str, avoided: set[str]) -> list[str]:
        return self._scheduled(self.scheduler, self.source, target, avoided)

    def _header_for(
        self, session_id: bytes, target: str, hops: list[Address], total: int
    ) -> tuple[SessionHeader, Address]:
        """Header + first hop of the route via ``hops``; the session id
        is pinned by the caller so every attempt is the same session,
        which lets depots shared between routes resume from their
        ledgers."""
        return route_header(
            self.endpoints[target], hops, session_id=session_id,
            options=(ResumeOffset(total=total),),
        )

    def send(
        self,
        payload: bytes,
        chunk_size: int = 64 << 10,
        session_id: bytes | None = None,
    ) -> FailoverReport:
        """Deliver ``payload`` to the destination, rerouting on failure.

        Raises
        ------
        NoRouteLeft
            The failover budget ran out, or the scheduler had no route
            left that avoids every suspect host.
        """
        session_id = session_id if session_id is not None else new_session_id()
        report = FailoverReport(
            send=SendReport(payload_bytes=len(payload)),
            session=session_id.hex(),
        )
        tried: list[list[str]] = []
        report.send = self._deliver(
            self.dest, payload, chunk_size, session_id, set(), report, tried
        )
        report.routes = [[self.source, *r, self.dest] for r in tried]
        return report
