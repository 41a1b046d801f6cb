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

from repro.core.scheduler import LogisticalScheduler, ScheduleDecision
from repro.lsl.faults import FaultPlan, RetryExhausted, RetryPolicy
from repro.lsl.header import SessionHeader, new_session_id
from repro.lsl.health import HealthMonitor
from repro.lsl.options import ResumeOffset
from repro.lsl.socket_transport import SendReport, route_header, send_session
from repro.obs.registry import NULL_REGISTRY, Registry
from repro.obs.timeline import DISABLED_TIMELINE, STREAM_DOWN, SessionTimeline

log = logging.getLogger(__name__)


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


class FailoverSender:
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
        if max_failovers < 0:
            raise ValueError(f"max_failovers={max_failovers} must be >= 0")
        self.scheduler = scheduler
        self.endpoints = dict(endpoints)
        self.source = source
        self.dest = dest
        self.retry = retry or RetryPolicy()
        self.max_failovers = max_failovers
        self.source_name = source_name if source_name is not None else source
        self._obs = registry if registry is not None else NULL_REGISTRY
        self._tl = timeline if timeline is not None else DISABLED_TIMELINE
        self._fault_plan = fault_plan
        if health is None:
            probeable = {
                name: addr
                for name, addr in self.endpoints.items()
                if name != source
            }
            health = HealthMonitor(
                probeable, cooldown=self.retry, registry=self._obs
            )
        self.health = health

    # -- route plumbing ----------------------------------------------------
    def _pick_route(self, avoided: set[str]) -> ScheduleDecision:
        """Best current route around ``avoided`` (plus open breakers)."""
        if avoided:
            return self.scheduler.reroute(self.source, self.dest, avoided)
        return self.scheduler.decide(self.source, self.dest)

    def _address(self, host: str) -> tuple[str, int]:
        addr = self.endpoints.get(host)
        if addr is None:
            raise ValueError(
                f"scheduler routed via {host!r}, which has no known "
                f"listener address"
            )
        return addr

    def _header_for(
        self, session_id: bytes, route: list[str], total: int
    ) -> tuple[SessionHeader, tuple[str, int]]:
        """Build the header + first hop realising ``route``.

        The session id is pinned by the caller so every route attempt
        belongs to the same session — that is what lets depots shared
        between the old and new routes resume from their ledgers.
        """
        *depots, dst = [self._address(h) for h in route[1:]]
        return route_header(
            dst,
            depots,
            session_id=session_id,
            options=(ResumeOffset(total=total),),
        )

    def _breaker_blocked(self, route: list[str]) -> set[str]:
        """Intermediate hosts on ``route`` whose breakers deny traffic."""
        return {
            host
            for host in route[1:-1]
            if host in self.health.targets and not self.health.allow(host)
        }

    def _diagnose(self, route: list[str]) -> set[str]:
        """Probe the route's depots; returns the ones that failed.

        Probes feed the breakers, so a refused depot trips toward OPEN
        here even before its failure count crosses the threshold via
        send errors.  When every depot probes healthy (a transient
        fault already cleared, or the failure was endpoint-side) the
        sweep reports nothing and the caller retries the same topology.
        """
        candidates = [h for h in route[1:-1] if h in self.health.targets]
        return self.health.diagnose(candidates) if candidates else set()

    # -- the send loop -----------------------------------------------------
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
        avoided: set[str] = set()
        last_error: Exception | None = None
        for attempt in range(self.max_failovers + 1):
            try:
                decision = self._pick_route(avoided)
            except ValueError as exc:
                raise NoRouteLeft(
                    f"session {session_id.hex()}: no route from "
                    f"{self.source} to {self.dest} avoiding "
                    f"{sorted(avoided)}: {exc}"
                ) from exc
            blocked = self._breaker_blocked(decision.route)
            if blocked:
                # a breaker opened since the last scheduler answer;
                # fold it in and re-ask rather than knowingly dial a
                # short-circuited depot
                avoided |= blocked
                report.avoided = set(avoided)
                continue
            route = decision.route
            report.routes.append(list(route))
            header, first_hop = self._header_for(
                session_id, route, len(payload)
            )
            try:
                sent = send_session(
                    payload,
                    header,
                    first_hop,
                    chunk_size=chunk_size,
                    retry=self.retry,
                    fault_plan=self._fault_plan,
                    source_name=self.source_name,
                    registry=self._obs,
                    timeline=self._tl,
                )
            except (RetryExhausted, ConnectionError, OSError) as exc:
                last_error = exc
                failed = self._diagnose(route)
                if not failed:
                    # nothing on the route looks dead — treat every
                    # intermediate as suspect so the reroute actually
                    # changes topology instead of spinning in place
                    failed = set(route[1:-1])
                if not failed:
                    # direct route with no depots to blame: give up
                    break
                avoided |= failed
                report.avoided = set(avoided)
                report.failovers += 1
                self._obs.counter(
                    "lsl_failovers_total",
                    labels={"node": self.source_name},
                ).inc()
                self._tl.record(
                    "failover",
                    node=self.source_name,
                    stream=STREAM_DOWN,
                    session=session_id.hex(),
                    detail="avoid=" + ",".join(sorted(avoided)),
                )
                log.info(
                    "session %s: route %s failed (%s); avoiding %s",
                    session_id.hex(), route, exc, sorted(avoided),
                )
                continue
            # send_session returns a SendReport on the resumable path
            assert sent is not None
            for host in route[1:-1]:
                if host in self.health.targets:
                    self.health.breaker(host).record_success()
            report.send = sent
            report.avoided = set(avoided)
            return report
        raise NoRouteLeft(
            f"session {session_id.hex()} failed after "
            f"{report.failovers} failover(s), avoiding {sorted(avoided)}"
        ) from last_error
