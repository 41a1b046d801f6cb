"""LSL over real TCP sockets (localhost functional transport).

The paper's depots were "user-level depot processes that implement the
LSL protocol" on stock Linux.  This module is the same thing scaled to a
test box: every component runs on ``127.0.0.1`` with real sockets, real
byte streams and the real wire format from :mod:`repro.lsl.header`.

* :class:`DepotServer` — the depot: accepts a session, parses the
  header, advances the loose source route (or consults a route table
  keyed by destination IP), opens the onward connection and pumps bytes
  through a bounded user-space buffer; a session addressed to the depot
  itself is parked and served to a later pickup;
* :class:`SinkServer` — terminates sessions and stores payloads by
  session id;
* :func:`send_session` — the source side: connect, emit header, stream
  payload; :func:`route_header` builds the header and first hop of a
  session through a chain of depots;
* :func:`fetch_pickup` — claim a session parked at a depot.

Fault tolerance
---------------
A session whose header carries a :class:`~repro.lsl.options.ResumeOffset`
option is *fault-tolerant*: every receiving node replies with an 8-byte
acknowledgement point, stages the payload in a
:class:`~repro.lsl.faults.SessionLedger` that survives reconnects, and
confirms completion with a final 8-byte acknowledgement.  Senders (the
source and each depot's downstream side) retry failed sublinks under a
:class:`~repro.lsl.faults.RetryPolicy`, resuming from the byte the peer
acknowledged — recovery cost is proportional to the failed sublink only.
Servers additionally consult an optional
:class:`~repro.lsl.faults.FaultPlan` so tests can inject connection
drops, refused connects, stalls and corrupted headers deterministically.

Every fault-tolerant session takes one path, at every layer: it runs as
N parallel *striped sublinks* (GridFTP-style), and a plain session is
the ``N = 1`` case.  A header carrying a
:class:`~repro.lsl.options.StripeOption` names its stripe; a header
without one is stripe 0 of 1, so a plain session's wire bytes carry no
stripe option.  Each stripe connection transports an interleaved slice
of the payload in stripe-local order, every node stages the slices per
stripe in the shared ledger, and the resume protocol runs per stripe —
each stripe acknowledges and resumes at its own watermark.  The one
receive routine either pumps each staged chunk downstream (a
forwarding depot) or hands the completed payload over (a sink, or a
depot parking a session addressed to it).

Sessions without a resume option keep the fire-and-forget form: a
bounded forward pump and no acknowledgements.  Sessions of type
:attr:`~repro.lsl.header.SessionType.MULTICAST` retain their completed
ledgers instead of evicting them, so a staging tree's ancestors can
replay the payload toward descendants (and toward orphaned branches
after a depot death) without the source resending a byte.

Localhost has no bandwidth-delay product, so this transport verifies
*correctness* (framing, routing, integrity, back-pressure, recovery);
performance claims are the simulator's job.
"""

from __future__ import annotations

import logging
import socket
import struct
import threading
import time
from collections.abc import Sequence
from dataclasses import dataclass

from repro.lsl.faults import (
    FaultKind,
    FaultPlan,
    RetryExhausted,
    RetryPolicy,
    SessionLedger,
    StreamWatch,
)
from repro.lsl.header import (
    FIXED_HEADER_SIZE,
    SessionHeader,
    SessionType,
    new_session_id,
)
from repro.lsl.options import (
    HeaderOption,
    LooseSourceRoute,
    ResumeOffset,
    StripeOption,
)
from repro.obs.registry import NULL_REGISTRY, Registry
from repro.obs.timeline import (
    DISABLED_TIMELINE,
    STREAM_DOWN,
    STREAM_UP,
    ProgressWatermarks,
    SessionTimeline,
)
from repro.util.validation import check_positive_int

_LOG = logging.getLogger(__name__)

_BACKLOG = 16
_IO_CHUNK = 64 << 10

#: Kernel send/receive buffer cap.  Loopback autotuning otherwise grows
#: the in-flight window to megabytes, and every in-flight byte at the
#: moment of a connection failure is a byte the resume protocol must
#: retransmit — capping the buffers keeps recovery accounting tight and
#: deterministic across kernels.
_SOCK_BUF = 128 << 10

#: The 8-byte network-order acknowledgement used by the resume handshake
#: (once after the header, once after the final payload byte).
RESUME_ACK = struct.Struct("!Q")


class SessionEnded(ConnectionError):
    """The peer closed cleanly at a message boundary (no partial unit)."""


class TruncatedStream(ConnectionError):
    """The peer closed mid-unit: a header or payload was cut short."""


class ThreadLeakError(RuntimeError):
    """A server's handler thread outlived ``close()``'s join timeout."""


def _cap_buffers(sock: socket.socket) -> None:
    """Pin ``sock``'s kernel buffers to :data:`_SOCK_BUF` (best effort)."""
    for opt in (socket.SO_SNDBUF, socket.SO_RCVBUF):
        try:
            sock.setsockopt(socket.SOL_SOCKET, opt, _SOCK_BUF)
        except OSError:  # pragma: no cover - platform quirk
            pass


def _abort_socket(sock: socket.socket) -> None:
    """Close with RST so the peer fails fast instead of seeing clean EOF."""
    try:
        # struct linger is a *kernel* ABI, not wire data: it must use the
        # platform's native layout, so the '!' prefix would be wrong here.
        sock.setsockopt(
            socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)  # rpr: disable=RPR001
        )
    except OSError:
        pass
    try:
        sock.close()
    except OSError:
        pass


def _connect_with_retry(
    address: tuple[str, int], policy: RetryPolicy
) -> socket.socket:
    """Open a TCP connection under ``policy``'s timeout and retry budget.

    Only the connect itself is retried (a refused or unreachable listener
    often just restarted); once the socket is open, stream errors
    propagate to the caller untouched.
    """
    attempts = 0
    while True:
        try:
            return socket.create_connection(
                address, timeout=policy.connect_timeout
            )
        except (ConnectionError, OSError):
            attempts += 1
            if attempts > policy.max_retries:
                raise
            time.sleep(policy.delay(attempts - 1))


def _read_exact(sock: socket.socket, n: int) -> bytes:
    """Read exactly ``n`` bytes.

    Raises
    ------
    SessionEnded
        Clean EOF before the first byte — the peer finished at a unit
        boundary (e.g. no further session on this connection).
    TruncatedStream
        EOF after a partial read — the unit was cut mid-flight.

    Both are ``ConnectionError`` subclasses, so callers that only care
    about "the read failed" keep working unchanged.
    """
    buf = bytearray()
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            if not buf:
                raise SessionEnded(
                    f"clean EOF before any of {n} expected bytes"
                )
            raise TruncatedStream(
                f"peer closed after {len(buf)} of {n} expected bytes"
            )
        buf += chunk
    return bytes(buf)


def read_header(sock: socket.socket) -> SessionHeader:
    """Read and decode one session header from a connected socket.

    Raises :class:`SessionEnded` if the peer closed before sending any
    header byte and :class:`TruncatedStream` if the header was cut
    mid-flight.
    """
    fixed = _read_exact(sock, FIXED_HEADER_SIZE)
    # header length is the third u16
    hlen = int.from_bytes(fixed[4:6], "big")
    if hlen < FIXED_HEADER_SIZE:
        raise ValueError(f"header length {hlen} below fixed size")
    rest = _read_exact(sock, hlen - FIXED_HEADER_SIZE) if hlen > FIXED_HEADER_SIZE else b""
    header, _ = SessionHeader.decode(fixed + rest)
    return header


#: How a header without a :class:`~repro.lsl.options.StripeOption`
#: reads: stripe 0 of a one-stripe session.
_ONE_STRIPE = StripeOption(index=0, count=1)


def _stripe_detail(index: int, count: int) -> str:
    """Timeline ``detail`` naming a stripe; empty for a plain session."""
    return f"stripe={index}" if count > 1 else ""


def _emit_header(
    sock: socket.socket,
    header: SessionHeader,
    node: str,
    tl: SessionTimeline,
    fault_plan: FaultPlan | None,
) -> None:
    """Narrate a fresh connection and send ``header`` on it.

    ``node``'s pending ``CORRUPT_HEADER`` rule, if any, mangles the
    bytes on the way out.
    """
    tl.record(
        "connect", node=node, stream=STREAM_DOWN, session=header.hex_id,
    )
    tl.record(
        "header_tx", node=node, stream=STREAM_DOWN, session=header.hex_id,
    )
    encoded = header.encode()
    if fault_plan is not None:
        encoded = fault_plan.corrupt_header(node, encoded)
    sock.sendall(encoded)


def _open_resumable(
    address: tuple[str, int],
    header: SessionHeader,
    goal: int,
    policy: RetryPolicy,
    node: str,
    tl: SessionTimeline,
    fault_plan: FaultPlan | None,
    detail: str,
) -> tuple[socket.socket, int]:
    """One resume handshake: connect, emit ``header``, read the ack point.

    Returns the open connection and the stripe-local offset the peer
    acknowledged, which cannot exceed the stripe's ``goal`` bytes.
    Connection failures propagate for the caller's retry loop.
    """
    sock = socket.create_connection(address, timeout=policy.connect_timeout)
    try:
        sock.settimeout(policy.io_timeout)
        _cap_buffers(sock)
        _emit_header(sock, header, node, tl, fault_plan)
        ack = RESUME_ACK.unpack(_read_exact(sock, RESUME_ACK.size))[0]
        if ack > goal:
            raise ValueError(
                f"peer acknowledged {ack} of {goal} bytes {detail}".rstrip()
            )
    except BaseException:
        sock.close()
        raise
    if ack > 0:
        tl.record(
            "resume", node=node, stream=STREAM_DOWN, session=header.hex_id,
            nbytes=ack, detail=detail,
        )
    return sock, ack


def _pause_before_retry(
    policy: RetryPolicy, failures: int, sublink: str, exc: Exception
) -> None:
    """Back off before retry number ``failures``, or give up on ``sublink``."""
    if failures > policy.max_retries:
        raise RetryExhausted(
            f"{sublink} failed after {policy.max_retries} retries: {exc}"
        ) from exc
    time.sleep(policy.delay(failures - 1))


class _Server:
    """Shared accept-loop plumbing for depot and sink servers."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        name: str | None = None,
        fault_plan: FaultPlan | None = None,
        registry: Registry | None = None,
        timeline: SessionTimeline | None = None,
    ) -> None:
        self.name = name or type(self).__name__.lower()
        self.fault_plan = fault_plan
        #: metric series sink; defaults to the shared no-op registry
        self.obs = registry if registry is not None else NULL_REGISTRY
        #: session event log; defaults to the shared disabled timeline
        self.timeline = timeline if timeline is not None else DISABLED_TIMELINE
        if not hasattr(self, "errors"):
            self.errors: list = []
        self.leaked_threads: list[threading.Thread] = []
        #: staging ledgers of in-flight fault-tolerant sessions
        self._ledgers: dict[str, SessionLedger] = {}
        self._ledger_lock = threading.Lock()
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        _cap_buffers(self._sock)  # inherited by accepted connections
        self._sock.bind((host, port))
        self._sock.listen(_BACKLOG)
        self.host, self.port = self._sock.getsockname()
        self._stop = threading.Event()
        self._threads: list[threading.Thread] = []
        self._handler_seq = 0
        self._conns: set[socket.socket] = set()
        self._conn_lock = threading.Lock()
        #: guards the thread registry (_threads, _handler_seq) and the
        #: errors list, both shared between handler threads and close()
        self._reg_lock = threading.Lock()
        #: serialises close() bodies so concurrent callers cannot race
        #: the teardown; _closed makes repeat calls cheap no-ops
        self._close_lock = threading.Lock()
        self._closed = False
        self._accept_thread = threading.Thread(
            target=self._accept_loop,
            name=f"lsl:{self.name}:accept",
            daemon=True,
        )
        self._accept_thread.start()

    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self.port)

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                conn, peer = self._sock.accept()
            except OSError:
                return  # listener closed
            with self._reg_lock:
                self._handler_seq += 1
                seq = self._handler_seq
            thread = threading.Thread(
                target=self._safe_handle,
                args=(conn,),
                name=f"lsl:{self.name}:h{seq}:{peer[0]}:{peer[1]}",
                daemon=True,
            )
            thread.start()
            with self._reg_lock:
                self._threads.append(thread)

    def _safe_handle(self, conn: socket.socket) -> None:
        with self._conn_lock:
            self._conns.add(conn)
        try:
            if self.fault_plan is not None and self.fault_plan.should_refuse(
                self.name
            ):
                _abort_socket(conn)
                return
            self.handle(conn)
        except SessionEnded:
            # Clean EOF before any header byte: a probe or an idle
            # connection closing at the unit boundary, not a failure.
            # A header or payload cut mid-unit still raises
            # TruncatedStream and lands in ``errors`` below.
            _LOG.debug("%s: peer closed before sending a header", self.name)
        except (ConnectionError, OSError, ValueError) as exc:
            with self._reg_lock:
                self.errors.append(exc)
            self.timeline.record(
                "error", node=self.name, stream=STREAM_UP, detail=str(exc)
            )
            self.obs.counter(
                "lsl_handler_errors_total", labels={"node": self.name}
            ).inc()
        finally:
            with self._conn_lock:
                self._conns.discard(conn)
            try:
                conn.close()
            except OSError:
                pass

    def handle(self, conn: socket.socket) -> None:  # pragma: no cover
        raise NotImplementedError

    # -- inbound streams -----------------------------------------------------
    def _stream_watch(self) -> StreamWatch | None:
        """A fresh per-connection ``DROP``/``STALL`` counter, if planned."""
        if self.fault_plan is None:
            return None
        return self.fault_plan.stream_watch(self.name)

    def _apply_stream_faults(
        self, watch: StreamWatch | None, conn: socket.socket, nbytes: int
    ) -> None:
        """Count ``nbytes`` just received against ``watch``; stall or drop.

        A ``STALL`` pauses before the chunk is consumed (closing the
        server cuts the pause short); a ``DROP`` resets ``conn`` and
        raises :class:`TruncatedStream`, so the chunk is never stored.
        """
        rule = None if watch is None else watch.advance(nbytes)
        if rule is None:
            return
        if rule.kind is FaultKind.STALL:
            self._stop.wait(rule.delay)
        elif rule.kind is FaultKind.DROP:
            _abort_socket(conn)
            raise TruncatedStream(f"injected drop at {self.name}")

    def _read_to_eof(self, conn: socket.socket, header: SessionHeader) -> bytes:
        """Receive a fire-and-forget session's payload up to the EOF."""
        watch = self._stream_watch()
        rx = self.obs.counter("lsl_rx_bytes_total", labels={"node": self.name})
        chunks = bytearray()
        while True:
            data = conn.recv(_IO_CHUNK)
            if not data:
                break
            self._apply_stream_faults(watch, conn, len(data))
            if not chunks:
                self.timeline.record(
                    "first_byte", node=self.name, stream=STREAM_UP,
                    session=header.hex_id, nbytes=len(data),
                )
            chunks += data
            rx.inc(len(data))
        self.timeline.record(
            "eof", node=self.name, stream=STREAM_UP,
            session=header.hex_id, nbytes=len(chunks),
        )
        return bytes(chunks)

    # -- the resume protocol, receiving side ---------------------------------
    @staticmethod
    def _resume_of(header: SessionHeader) -> ResumeOffset | None:
        """The header's resume option; a stripe needs one to reassemble."""
        resume = header.option(ResumeOffset)
        if resume is None and header.option(StripeOption) is not None:
            raise ValueError(
                f"striped session {header.hex_id} lacks a resume option"
            )
        return resume

    def _ledger_for(
        self, hex_id: str, total: int, stripe: StripeOption
    ) -> tuple[SessionLedger, int, int]:
        """Claim ``stripe`` of session ``hex_id``, creating its ledger.

        Returns ``(ledger, generation, stripe_acked)``.  A connection
        that claims a stripe claimed before is a resume.  Raises
        ``ValueError`` when the connection's stripe layout disagrees
        with the ledger's.
        """
        with self._ledger_lock:
            ledger = self._ledgers.get(hex_id)
            if ledger is None:
                ledger = SessionLedger(
                    total, stripes=stripe.count, block=stripe.block
                )
                self._ledgers[hex_id] = ledger
            elif not ledger.matches(stripe.count, stripe.block):
                raise ValueError(
                    f"session {hex_id} stripe layout mismatch: ledger "
                    f"x{ledger.stripes}/block {ledger.block}, connection "
                    f"x{stripe.count}/block {stripe.block}"
                )
            generation, acked = ledger.claim_stripe(stripe.index)
            if generation > 1:
                # a depot's _stats_lock nests inside _ledger_lock here; no
                # other path takes them in the opposite order
                self._note_resumed()
            return ledger, generation, acked

    def _note_resumed(self) -> None:
        """Count a resumed stripe connection (depots keep the counter)."""

    def _evict_ledger(self, hex_id: str) -> None:
        with self._ledger_lock:
            self._ledgers.pop(hex_id, None)

    def _receive_resumable(
        self,
        conn: socket.socket,
        header: SessionHeader,
        resume: ResumeOffset,
        on_complete,
        forward_to: tuple[tuple[str, int], SessionHeader] | None = None,
    ) -> None:
        """Serve one connection of a fault-tolerant session: one stripe.

        Claims the stripe, replies with its acknowledgement point, and
        stages inbound bytes (under the fault plan) until the stripe is
        in.  With ``forward_to`` (next hop, onward header) a
        :class:`_DownstreamPump` pushes each staged chunk on at once.
        The connection whose stripe completes the ledger calls
        ``on_complete(ledger)`` once; every stripe then sends its final
        acknowledgement.  A connection superseded by a newer claim of its
        stripe returns quietly; one cut short raises for the upstream to
        resume.
        """
        stripe = header.option(StripeOption) or _ONE_STRIPE
        index = stripe.index
        ledger, generation, acked = self._ledger_for(
            header.hex_id, resume.total, stripe
        )
        detail = _stripe_detail(index, stripe.count)
        conn.sendall(RESUME_ACK.pack(acked))
        if acked > 0:
            self.timeline.record(
                "resume", node=self.name, stream=STREAM_UP,
                session=header.hex_id, nbytes=acked, detail=detail,
            )
        goal = ledger.stripe_total(index)
        progress = _RxProgress(self, header.hex_id, goal, acked)
        watch = self._stream_watch()
        pump = None
        if forward_to is not None:
            pump = _DownstreamPump(self, *forward_to, ledger, index)
        position = acked
        try:
            while position < goal:
                data = conn.recv(_IO_CHUNK)
                if not data:
                    raise TruncatedStream(
                        f"session {header.hex_id} interrupted at "
                        f"{position}/{goal} bytes; awaiting resume {detail}"
                        .rstrip()
                    )
                self._apply_stream_faults(watch, conn, len(data))
                if not ledger.append_stripe(index, generation, data):
                    return  # a newer connection took over this stripe
                position += len(data)
                progress.note(position, len(data))
                if pump is not None:
                    pump.stage(len(data), position)
            if ledger.stripe_generation(index) != generation:
                return  # superseded after its last byte arrived
            progress.eof()
            if pump is not None:
                pump.finish()
            if ledger.claim_completion():
                on_complete(ledger)
            conn.sendall(RESUME_ACK.pack(goal))
        finally:
            if pump is not None:
                pump.close()

    def close(self, timeout: float = 5.0, abort: bool = False) -> None:
        """Stop accepting and wait for in-flight sessions to finish.

        ``timeout`` bounds the *total* wait across all handler threads.
        Threads still alive afterwards are reported loudly: a warning
        naming each leaked thread (and the handler it runs) is logged, a
        :class:`ThreadLeakError` carrying those names is appended to
        ``errors`` and the threads are listed in ``leaked_threads`` — a
        silent leak is a bug, a loud one is a diagnosable event.  With
        ``abort=True`` every live connection is reset first (simulating
        a crashed depot), which unblocks handlers stuck in ``recv``.

        Idempotent and safe under concurrent callers: the teardown is
        serialised, a repeat ``close()`` returns immediately, and a
        ``kill()`` *after* a graceful close still aborts any handler
        that outlived the first call.
        """
        with self._close_lock:
            if self._closed and not abort:
                return
            self._closed = True
            self._close_locked(timeout, abort)

    def _close_locked(self, timeout: float, abort: bool) -> None:
        self._stop.set()
        try:
            # shutdown() (not just close()) is what actually wakes a
            # thread blocked in accept() on Linux.
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass
        if abort:
            with self._conn_lock:
                conns = list(self._conns)
            for conn in conns:
                try:
                    # shutdown() wakes a handler blocked in recv() on
                    # this connection; close() alone would not.
                    conn.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
                _abort_socket(conn)
        deadline = time.monotonic() + timeout
        self._accept_thread.join(timeout=timeout)
        leaked: list[threading.Thread] = []
        if self._accept_thread.is_alive():  # pragma: no cover - defensive
            leaked.append(self._accept_thread)
        with self._reg_lock:
            threads = list(self._threads)
        for thread in threads:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
            if thread.is_alive():
                leaked.append(thread)
        with self._reg_lock:
            self._threads = [t for t in self._threads if t.is_alive()]
        if leaked:
            self.leaked_threads = leaked
            detail = ", ".join(
                self._describe_thread(thread) for thread in leaked
            )
            message = (
                f"{self.name}: {len(leaked)} handler thread(s) still alive "
                f"after close(timeout={timeout}): {detail}"
            )
            _LOG.warning(message)
            with self._reg_lock:
                self.errors.append(ThreadLeakError(message))

    def _describe_thread(self, thread: threading.Thread) -> str:
        """``name (target=...)`` for the leak report.

        Thread names encode the server and peer (``lsl:<server>:h<seq>:
        <ip>:<port>``); the target is recovered from which loop the
        thread runs, so the report says *which* handler wedged, not just
        how many.
        """
        if thread is self._accept_thread:
            target = type(self)._accept_loop.__qualname__
        else:
            target = type(self).handle.__qualname__
        return f"{thread.name} (target={target})"

    def kill(self) -> None:
        """Simulate a crash: reset live connections, stop listening."""
        self.close(timeout=0.5, abort=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False




class _DownstreamPump:
    """A depot's fault-tolerant downstream side for one stripe of a session.

    Lazily connects toward ``next_hop``, performs the resume handshake,
    streams newly staged stripe bytes from the ledger, and transparently
    reconnects (bounded by the depot's
    :class:`~repro.lsl.faults.RetryPolicy`) when the sublink fails —
    resending only bytes the downstream node had not acknowledged.
    Offsets are stripe-local, and the final acknowledgement must equal
    the stripe's share of the payload (all of it, for a plain session).
    """

    def __init__(
        self,
        depot: "DepotServer",
        next_hop: tuple[str, int],
        header: SessionHeader,
        ledger: SessionLedger,
        index: int,
    ) -> None:
        self._depot = depot
        self._next_hop = next_hop
        self._header = header
        self._ledger = ledger
        self._index = index
        self._goal = ledger.stripe_total(index)
        self._detail = _stripe_detail(index, ledger.stripes)
        self._sock: socket.socket | None = None
        self._fwd = 0  # next stripe-local offset to send downstream
        self._attempts = 0
        self._tx = depot.obs.counter(
            "lsl_tx_bytes_total", labels={"node": depot.name}
        )

    def _backoff(self, exc: Exception) -> None:
        self._drop_socket()
        self._attempts += 1
        _pause_before_retry(
            self._depot.retry, self._attempts,
            f"downstream {self._next_hop}", exc,
        )

    def _drop_socket(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def _connect(self) -> None:
        depot = self._depot
        while self._sock is None:
            try:
                self._sock, self._fwd = _open_resumable(
                    self._next_hop, self._header, self._goal, depot.retry,
                    depot.name, depot.timeline, depot.fault_plan,
                    self._detail,
                )
            except (ConnectionError, OSError) as exc:
                self._backoff(exc)

    def stage(self, nbytes: int, staged: int) -> None:
        """Count ``nbytes`` newly staged, then push up to ``staged``."""
        self._depot._note_forwarded(nbytes)
        self.flush(staged)

    def flush(self, staged: int) -> None:
        """Push the staged stripe bytes beyond the forward point downstream."""
        while True:
            if self._sock is None:
                self._connect()
                continue
            if self._fwd >= staged:
                return
            chunk = self._ledger.read_stripe(self._index, self._fwd, staged)
            try:
                self._sock.sendall(chunk)
            except (ConnectionError, OSError) as exc:
                self._backoff(exc)
                continue
            end = self._fwd + len(chunk)
            self._tx.inc(len(chunk))
            self._depot._note_retransmitted(
                self._ledger.note_stripe_sent(self._index, self._fwd, end)
            )
            self._fwd = end

    def finish(self) -> None:
        """Flush, half-close, and insist on the downstream final ack."""
        while True:
            try:
                self.flush(self._goal)
                assert self._sock is not None
                self._sock.shutdown(socket.SHUT_WR)
                final = RESUME_ACK.unpack(
                    _read_exact(self._sock, RESUME_ACK.size)
                )[0]
                if final != self._goal:
                    raise TruncatedStream(
                        f"downstream acknowledged {final} of "
                        f"{self._goal} bytes"
                    )
                self._depot.timeline.record(
                    "complete",
                    node=self._depot.name,
                    stream=STREAM_DOWN,
                    session=self._header.hex_id,
                    nbytes=final,
                    detail=self._detail,
                )
                return
            except (ConnectionError, OSError) as exc:
                self._backoff(exc)

    def close(self) -> None:
        self._drop_socket()


def _parse_route(dst: str, hop: str) -> tuple[str, int]:
    """``"ip:port"`` -> ``(ip, port)`` for the route-table entry ``dst``."""
    ip, _, port = hop.rpartition(":")
    if not (ip and port.isascii() and port.isdigit() and 0 < int(port) < 65536):
        raise ValueError(
            f"route_table entry {dst!r}: {hop!r}: expected 'ip:port' "
            f"with a port in 1-65535"
        )
    return ip, int(port)


class DepotServer(_Server):
    """The LSL depot on real sockets: forwards, parks, serves pickups.

    Parameters
    ----------
    host, port:
        Listen address (port 0 picks an ephemeral port).
    route_table:
        Optional ``dest_ip -> "next_hop_ip:port"`` mapping used when a
        session's loose source route is absent or exhausted.  Each value
        is parsed once, here; a value without an integer port in
        1-65535 raises :class:`ValueError` naming the entry.
    buffer_size:
        User-space relay buffer per session, in bytes (the store in
        store-and-forward).  Fault-tolerant sessions instead stage up to
        the full payload in a :class:`~repro.lsl.faults.SessionLedger` —
        that retained copy is what makes depot-resume possible.
    name:
        Label used by :class:`~repro.lsl.faults.FaultPlan` rules and
        diagnostics (defaults to ``"depotserver"``).
    fault_plan:
        Optional injected-fault schedule this depot consults.
    retry:
        Backoff policy for this depot's downstream reconnects.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        route_table: dict[str, str] | None = None,
        buffer_size: int = 1 << 20,
        name: str | None = None,
        fault_plan: FaultPlan | None = None,
        retry: RetryPolicy | None = None,
        registry: Registry | None = None,
        timeline: SessionTimeline | None = None,
    ) -> None:
        # An integer check, not just positivity: a fractional size like
        # 0.5 used to truncate to recv(0), which reads as instant EOF
        # and silently drops the session payload.
        check_positive_int("buffer_size", buffer_size)
        #: ``dest_ip -> (next_hop_ip, port)``, parsed from ``route_table``
        self.route_table = {
            dst: _parse_route(dst, hop)
            for dst, hop in (route_table or {}).items()
        }
        self.buffer_size = buffer_size
        self.retry = retry or RetryPolicy()
        self.sessions_forwarded = 0
        self.bytes_forwarded = 0
        #: bytes this depot sent downstream more than once (recovery cost)
        self.retransmitted_bytes = 0
        #: fault-tolerant sessions that resumed after an interruption
        self.sessions_resumed = 0
        #: guards the forwarding counters, which concurrent session
        #: handlers update
        self._stats_lock = threading.Lock()
        self.errors: list = []
        #: asynchronous sessions parked here, keyed by hex session id
        self.held: dict[str, bytes] = {}
        self._held_lock = threading.Lock()
        super().__init__(
            host,
            port,
            name=name,
            fault_plan=fault_plan,
            registry=registry,
            timeline=timeline,
        )

    def _next_hop(self, header: SessionHeader) -> tuple[tuple[str, int], SessionHeader]:
        lsrr = header.option(LooseSourceRoute)
        if lsrr is not None:
            hop, remaining = lsrr.advance()
            if hop is not None:
                options = tuple(
                    remaining if opt is lsrr else opt for opt in header.options
                )
                return hop, header.with_options(options)
        hop = self.route_table.get(header.dst_ip)
        if hop is not None:
            return hop, header
        return (header.dst_ip, header.dst_port), header

    def snapshot(self) -> dict[str, int]:
        """A consistent view of the traffic counters, under the lock.

        Every out-of-thread read of the forwarding counters (CLI status
        loops, metric exports, tests polling for completion) must come
        through here: the attributes themselves are only coherent while
        ``_stats_lock`` is held.
        """
        with self._stats_lock:
            return {
                "sessions_forwarded": self.sessions_forwarded,
                "bytes_forwarded": self.bytes_forwarded,
                "retransmitted_bytes": self.retransmitted_bytes,
                "sessions_resumed": self.sessions_resumed,
            }

    def fill_registry(self, registry: Registry | None = None) -> Registry:
        """Publish the locked :meth:`snapshot` as labelled gauges.

        Routes the legacy attribute counters through the obs layer:
        gauges named ``lsl_depot_<counter>`` carry a ``node`` label so
        exports from several depots can share one registry.  Uses the
        server's own registry when none is given; returns the registry
        written to.
        """
        target = registry if registry is not None else self.obs
        for key, value in self.snapshot().items():
            target.gauge(
                f"lsl_depot_{key}", labels={"node": self.name}
            ).set(value)
        return target

    def _note_retransmitted(self, nbytes: int) -> None:
        """Count downstream bytes sent more than once (recovery cost)."""
        with self._stats_lock:
            self.retransmitted_bytes += nbytes

    def _note_forwarded(self, nbytes: int) -> None:
        """Count payload bytes received for forwarding."""
        with self._stats_lock:
            self.bytes_forwarded += nbytes

    def _note_resumed(self) -> None:
        with self._stats_lock:
            self.sessions_resumed += 1

    def handle(self, conn: socket.socket) -> None:
        """Serve one inbound session: park, pick up, resume, or forward."""
        header = read_header(conn)
        self.timeline.record(
            "header_rx", node=self.name, stream=STREAM_UP,
            session=header.hex_id,
        )
        self.obs.counter(
            "lsl_sessions_total", labels={"node": self.name}
        ).inc()
        # asynchronous pickup: stream a held session back to the caller
        if header.session_type == SessionType.PICKUP:
            with self._held_lock:
                payload = self.held.pop(header.hex_id, None)
            if payload is None:
                # reset, not EOF: a clean close reads as an empty payload
                _abort_socket(conn)
                raise ValueError(f"no held session {header.hex_id}")
            conn.sendall(payload)
            return
        resume = self._resume_of(header)
        # sessions addressed to this depot are parked, not forwarded
        parked = (header.dst_ip, header.dst_port) == (self.host, self.port)
        if resume is not None:
            self._receive_resumable(
                conn,
                header,
                resume,
                lambda ledger: self._stage_complete(header, ledger, parked),
                forward_to=None if parked else self._next_hop(header),
            )
            return
        if parked:
            payload = self._read_to_eof(conn, header)
            with self._held_lock:
                self.held[header.hex_id] = payload
            return
        next_hop, out_header = self._next_hop(header)
        watch = self._stream_watch()
        rx = self.obs.counter(
            "lsl_rx_bytes_total", labels={"node": self.name}
        )
        tx = self.obs.counter(
            "lsl_tx_bytes_total", labels={"node": self.name}
        )
        with _connect_with_retry(next_hop, self.retry) as out:
            _emit_header(out, out_header, self.name, self.timeline,
                         self.fault_plan)
            # bounded store-and-forward pump
            received = 0
            while True:
                data = conn.recv(min(_IO_CHUNK, self.buffer_size))
                if not data:
                    break
                if received == 0:
                    self.timeline.record(
                        "first_byte", node=self.name, stream=STREAM_UP,
                        session=header.hex_id, nbytes=len(data),
                    )
                self._apply_stream_faults(watch, conn, len(data))
                out.sendall(data)
                received += len(data)
                rx.inc(len(data))
                tx.inc(len(data))
                self._note_forwarded(len(data))
        self.timeline.record(
            "eof", node=self.name, stream=STREAM_UP,
            session=header.hex_id, nbytes=received,
        )
        self.timeline.record(
            "complete", node=self.name, stream=STREAM_DOWN,
            session=header.hex_id, nbytes=received,
        )
        with self._stats_lock:
            self.sessions_forwarded += 1

    def _retains_ledger(self, header: SessionHeader) -> bool:
        """Multicast sessions keep their completed ledgers.

        A retained ledger is what lets this depot later *replay* the
        payload toward tree descendants (and re-graft orphaned branches
        after a downstream depot dies) without the source resending: a
        new delivery through this depot claims the complete ledger, acks
        the full total upstream, and pumps from local bytes only.
        """
        return header.session_type == SessionType.MULTICAST

    def _stage_complete(
        self, header: SessionHeader, ledger: SessionLedger, parked: bool
    ) -> None:
        """Park or count a completed fault-tolerant session, once.

        A forward counts before the final ack goes upstream: once the
        ack is out the whole chain unwinds, and callers joining on it
        must observe the forward as complete.  A multicast replay from a
        retained ledger does not count again.
        """
        if parked:
            with self._held_lock:
                self.held[header.hex_id] = ledger.data
        else:
            with self._stats_lock:
                self.sessions_forwarded += 1
        if not self._retains_ledger(header):
            self._evict_ledger(header.hex_id)


class _RxProgress:
    """Receiver-side instrumentation shared by the resume-protocol paths.

    Emits the canonical up-stream sequence (``first_byte`` →
    ``progress`` watermarks → ``eof``) plus the received-byte counter
    and, at EOF, the session's duration/throughput series.  Every call
    degrades to a no-op when the server runs with the null registry and
    disabled timeline.
    """

    def __init__(
        self, server: _Server, session: str, total: int, acked: int
    ) -> None:
        self._server = server
        self._session = session
        self._total = total
        self._rx = server.obs.counter(
            "lsl_rx_bytes_total", labels={"node": server.name}
        )
        self._marks = ProgressWatermarks(total)
        self._marks.advance(acked)  # staged bytes crossed these already
        self._seen_first = acked > 0
        self._t0 = time.monotonic()

    def note(self, position: int, nbytes: int) -> None:
        """Record a chunk of ``nbytes`` ending at cumulative ``position``."""
        self._rx.inc(nbytes)
        timeline = self._server.timeline
        if not self._seen_first:
            self._seen_first = True
            timeline.record(
                "first_byte", node=self._server.name, stream=STREAM_UP,
                session=self._session, nbytes=position,
            )
        for fraction, threshold in self._marks.advance(position):
            timeline.record(
                "progress", node=self._server.name, stream=STREAM_UP,
                session=self._session, nbytes=threshold,
                detail=f"{fraction:g}",
            )

    def eof(self) -> None:
        """Record session end plus its duration/throughput series."""
        self._server.timeline.record(
            "eof", node=self._server.name, stream=STREAM_UP,
            session=self._session, nbytes=self._total,
        )
        elapsed = time.monotonic() - self._t0
        labels = {"node": self._server.name}
        self._server.obs.histogram(
            "lsl_session_seconds", labels=labels
        ).observe(elapsed)
        if elapsed > 0:
            self._server.obs.gauge(
                "lsl_session_throughput_bytes_per_sec", labels=labels
            ).set(self._total / elapsed)


class SinkServer(_Server):
    """Terminates LSL sessions; stores payloads keyed by session id."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        name: str | None = None,
        fault_plan: FaultPlan | None = None,
        registry: Registry | None = None,
        timeline: SessionTimeline | None = None,
    ) -> None:
        self.payloads: dict[str, bytes] = {}
        self.headers: dict[str, SessionHeader] = {}
        self._lock = threading.Lock()
        self.errors: list = []
        super().__init__(
            host,
            port,
            name=name,
            fault_plan=fault_plan,
            registry=registry,
            timeline=timeline,
        )

    def handle(self, conn: socket.socket) -> None:
        """Terminate one session and store its payload."""
        header = read_header(conn)
        self.timeline.record(
            "header_rx", node=self.name, stream=STREAM_UP,
            session=header.hex_id,
        )
        self.obs.counter(
            "lsl_sessions_total", labels={"node": self.name}
        ).inc()
        resume = self._resume_of(header)
        if resume is None:
            self._store(header, self._read_to_eof(conn, header))
            return

        def complete(ledger: SessionLedger) -> None:
            self._store(header, ledger.data)
            self._evict_ledger(header.hex_id)

        self._receive_resumable(conn, header, resume, complete)

    def _store(self, header: SessionHeader, payload: bytes) -> None:
        with self._lock:
            self.payloads[header.hex_id] = payload
            self.headers[header.hex_id] = header

    def staged_bytes(self, session_id_hex: str) -> int:
        """Bytes durably received for an (incomplete) session."""
        with self._ledger_lock:
            ledger = self._ledgers.get(session_id_hex)
        return ledger.acked if ledger is not None else 0

    def wait_for(self, session_id_hex: str, timeout: float = 10.0) -> bytes:
        """Block until the payload for a session arrives (tests helper)."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with self._lock:
                if session_id_hex in self.payloads:
                    return self.payloads[session_id_hex]
            time.sleep(0.005)
        raise TimeoutError(f"session {session_id_hex} never arrived")


def _stripe_slice(
    payload: bytes, index: int, count: int, block: int
) -> bytes:
    """Stripe ``index``'s interleaved slice of ``payload``.

    Every ``block``-sized block ``j`` with ``j % count == index``, in
    order — the layout :class:`SessionLedger` interleaves back.  A
    single stripe is the payload itself, not a copy.
    """
    if count == 1:
        return payload
    out = bytearray()
    for start in range(index * block, len(payload), count * block):
        out += payload[start : start + block]
    return bytes(out)


@dataclass
class SendReport:
    """Outcome of a fault-tolerant :func:`send_session`.

    Attributes
    ----------
    attempts:
        Connection attempts, summed over stripes: each stripe's failed
        attempts plus its one that succeeded (``stripes`` = no failure).
    retransmitted:
        Payload bytes this source sent more than once.
    payload_bytes:
        Total payload size.
    """

    attempts: int = 0
    retransmitted: int = 0
    payload_bytes: int = 0
    high_water: int = 0


def route_header(
    dst: tuple[str, int],
    depots: Sequence[tuple[str, int]] = (),
    *,
    session_id: bytes | None = None,
    session_type: SessionType = SessionType.POINT_TO_POINT,
    options: tuple[HeaderOption, ...] = (),
) -> tuple[SessionHeader, tuple[str, int]]:
    """The header and first hop of a session to ``dst`` via ``depots``.

    The source connects to the first depot (or straight to ``dst``), so
    as with IP's LSRR the :class:`~repro.lsl.options.LooseSourceRoute`
    carries only the depots beyond the first; it stops at the last
    depot, because the destination lives in the fixed header.  The
    source route follows ``options`` on the wire.
    """
    if len(depots) > 1:
        options += (LooseSourceRoute(hops=tuple(depots[1:])),)
    header = SessionHeader(
        session_id=session_id if session_id is not None else new_session_id(),
        src_ip="127.0.0.1",
        dst_ip=dst[0],
        src_port=0,
        dst_port=dst[1],
        session_type=session_type,
        options=options,
    )
    return header, (depots[0] if depots else dst)


def send_session(
    payload: bytes,
    header: SessionHeader,
    first_hop: tuple[str, int],
    chunk_size: int = _IO_CHUNK,
    retry: RetryPolicy | None = None,
    fault_plan: FaultPlan | None = None,
    source_name: str = "source",
    registry: Registry | None = None,
    timeline: SessionTimeline | None = None,
    stripes: int = 1,
    stripe_block: int = 16 << 10,
) -> SendReport | None:
    """Open a session toward ``first_hop`` and stream the payload.

    ``first_hop`` is the first depot of the loose source route, or the
    sink itself for a direct session.

    With ``retry`` given (or a :class:`~repro.lsl.options.ResumeOffset`
    option already on the header) the send is *fault-tolerant*: the
    header gains a resume option carrying the payload length, each
    connection starts with the receiver's acknowledgement point and ends
    with a final acknowledgement, and failures are retried with backoff,
    resuming from the acknowledged byte.  Returns a :class:`SendReport`
    in that mode, ``None`` for a legacy fire-and-forget send.

    With ``stripes > 1`` the session runs as that many parallel striped
    sublinks (always fault-tolerant): the per-stripe resume handshakes
    happen serially — one blocking header+ack round trip each — and the
    interleaved slices then stream concurrently, each stripe retrying
    and resuming at its own watermark.  A plain fault-tolerant send is
    the one-stripe case and runs on the caller's thread.

    Raises
    ------
    RetryExhausted
        The fault-tolerant path failed more times than the policy allows.
    """
    check_positive_int("chunk_size", chunk_size)
    check_positive_int("stripes", stripes)
    check_positive_int("stripe_block", stripe_block)
    obs = registry if registry is not None else NULL_REGISTRY
    tl = timeline if timeline is not None else DISABLED_TIMELINE
    resume = header.option(ResumeOffset)
    if stripes > 1 and header.option(StripeOption) is not None:
        raise ValueError(
            "send_session attaches stripe options itself; the header "
            "must not already carry one"
        )
    if stripes == 1 and retry is None and resume is None:
        # legacy fire-and-forget: no resume protocol, but the initial
        # connect still gets the default policy's timeout and budget
        tx = obs.counter("lsl_tx_bytes_total", labels={"node": source_name})
        with _connect_with_retry(first_hop, RetryPolicy()) as sock:
            _emit_header(sock, header, source_name, tl, fault_plan)
            for off in range(0, len(payload), chunk_size):
                chunk = payload[off : off + chunk_size]
                sock.sendall(chunk)
                tx.inc(len(chunk))
        tl.record(
            "complete", node=source_name, stream=STREAM_DOWN,
            session=header.hex_id, nbytes=len(payload),
        )
        return None
    if resume is None:
        header = header.with_options(
            header.options + (ResumeOffset(total=len(payload)),)
        )
    elif resume.total != len(payload):
        raise ValueError(
            f"resume option total {resume.total} != payload "
            f"{len(payload)} bytes"
        )
    return _striped_send(
        payload, header, first_hop, chunk_size, retry or RetryPolicy(),
        fault_plan, source_name, obs, tl, stripes, stripe_block,
    )


class _StripeWorker:
    """Source side of one stripe of a fault-tolerant session.

    :meth:`handshake` opens the connection and performs the header+ack
    round trip; :meth:`run` streams the slice from the acknowledged
    offset, transparently re-handshaking on failure under the retry
    policy.
    """

    def __init__(
        self,
        payload_slice: bytes,
        header: SessionHeader,
        first_hop: tuple[str, int],
        chunk_size: int,
        policy: RetryPolicy,
        fault_plan: FaultPlan | None,
        source_name: str,
        obs: Registry,
        tl: SessionTimeline,
        index: int,
        count: int,
    ) -> None:
        self._slice = payload_slice
        self._header = header
        self._first_hop = first_hop
        self._chunk = chunk_size
        self._policy = policy
        self._fault_plan = fault_plan
        self._source_name = source_name
        self._tl = tl
        self._tx = obs.counter(
            "lsl_tx_bytes_total", labels={"node": source_name}
        )
        self.index = index
        self._detail = _stripe_detail(index, count)
        #: failed connection attempts, each followed by a backoff
        self.failures = 0
        self.retransmitted = 0
        self.high_water = 0
        self.error: Exception | None = None
        self._sock: socket.socket | None = None
        self._start = 0

    def _drop(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def _failure(self, exc: Exception) -> None:
        self._drop()
        self.failures += 1
        where = f" stripe {self.index}" if self._detail else ""
        _pause_before_retry(
            self._policy, self.failures,
            f"session {self._header.hex_id}{where}", exc,
        )

    def handshake(self) -> None:
        """Connect and complete the header+ack round trip (with retry)."""
        while self._sock is None:
            try:
                self._sock, self._start = _open_resumable(
                    self._first_hop, self._header, len(self._slice),
                    self._policy, self._source_name, self._tl,
                    self._fault_plan, self._detail,
                )
            except (ConnectionError, OSError) as exc:
                self._failure(exc)

    def run(self) -> None:
        """Stream the slice to completion; stores a failure in ``error``."""
        try:
            while True:
                self.handshake()
                sock = self._sock
                try:
                    for off in range(self._start, len(self._slice),
                                     self._chunk):
                        chunk = self._slice[off : off + self._chunk]
                        sock.sendall(chunk)
                        self._tx.inc(len(chunk))
                        end = off + len(chunk)
                        self.retransmitted += max(
                            0, min(end, self.high_water) - off
                        )
                        self.high_water = max(self.high_water, end)
                    sock.shutdown(socket.SHUT_WR)
                    final = RESUME_ACK.unpack(
                        _read_exact(sock, RESUME_ACK.size)
                    )[0]
                    if final != len(self._slice):
                        raise TruncatedStream(
                            f"peer acknowledged {final} of "
                            f"{len(self._slice)} bytes {self._detail}".rstrip()
                        )
                    return
                except (ConnectionError, OSError) as exc:
                    self._failure(exc)
        except Exception as exc:
            # held for _striped_send to re-raise once every stripe ended
            self.error = exc
            detail = f"{self._detail}: {exc}" if self._detail else str(exc)
            self._tl.record(
                "error", node=self._source_name, stream=STREAM_DOWN,
                session=self._header.hex_id, detail=detail,
            )
        finally:
            self._drop()


def _striped_send(
    payload: bytes,
    header: SessionHeader,
    first_hop: tuple[str, int],
    chunk_size: int,
    policy: RetryPolicy,
    fault_plan: FaultPlan | None,
    source_name: str,
    obs: Registry,
    tl: SessionTimeline,
    stripes: int,
    block: int,
) -> SendReport:
    """Drive one fault-tolerant session over ``stripes`` sublinks.

    A plain session is one stripe, run on the caller's thread; more
    stripes get one thread each once their handshakes are done.
    """
    workers = [
        _StripeWorker(
            _stripe_slice(payload, k, stripes, block),
            header if stripes == 1 else header.with_options(
                header.options
                + (StripeOption(index=k, count=stripes, block=block),)
            ),
            first_hop, chunk_size, policy, fault_plan, source_name,
            obs, tl, k, stripes,
        )
        for k in range(stripes)
    ]
    t0 = time.monotonic()
    if stripes == 1:
        workers[0].run()
    else:
        try:
            # Serialized handshakes: one blocking header+ack round trip
            # per stripe, the setup cost the striped transfer-time model
            # prices.
            for worker in workers:
                worker.handshake()
        except BaseException:
            for worker in workers:
                worker._drop()
            raise
        threads = [
            threading.Thread(
                target=worker.run,
                name=f"lsl:{source_name}:stripe{worker.index}",
                daemon=True,
            )
            for worker in workers
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    errors = [w.error for w in workers if w.error is not None]
    if errors:
        # each failed stripe already recorded its own "error" event
        raise errors[0]
    report = SendReport(
        attempts=sum(w.failures + 1 for w in workers),
        retransmitted=sum(w.retransmitted for w in workers),
        payload_bytes=len(payload),
        high_water=sum(w.high_water for w in workers),
    )
    tl.record(
        "complete", node=source_name, stream=STREAM_DOWN,
        session=header.hex_id, nbytes=len(payload),
        detail=f"stripes={stripes}" if stripes > 1 else "",
    )
    elapsed = time.monotonic() - t0
    obs.histogram(
        "lsl_session_seconds", labels={"node": source_name}
    ).observe(elapsed)
    if elapsed > 0:
        obs.gauge(
            "lsl_session_throughput_bytes_per_sec",
            labels={"node": source_name},
        ).set(len(payload) / elapsed)
    return report


def pickup_header(
    depot_ip: str, depot_port: int, session_id: bytes
) -> SessionHeader:
    """The wire header a receiver sends to claim a held session."""
    return SessionHeader(
        session_id=session_id,
        src_ip="0.0.0.0",
        dst_ip=depot_ip,
        src_port=0,
        dst_port=depot_port,
        session_type=SessionType.PICKUP,
    )


def fetch_pickup(
    depot: tuple[str, int], session_id: bytes, timeout: float = 10.0
) -> bytes:
    """Claim an asynchronously parked session from a depot.

    Sends a :attr:`~repro.lsl.header.SessionType.PICKUP` header carrying
    the session id and reads the stored payload until EOF.  A depot
    holding no such session resets the connection; that raises
    :class:`ValueError`, while an empty parked payload returns ``b""``.
    """
    header = pickup_header(depot[0], depot[1], session_id)
    chunks = bytearray()
    with socket.create_connection(depot, timeout=timeout) as sock:
        try:
            sock.sendall(header.encode())
            # the reset may already have arrived (ENOTCONN here)
            sock.shutdown(socket.SHUT_WR)
            while data := sock.recv(_IO_CHUNK):
                chunks += data
        except TimeoutError:
            raise  # a slow depot, not a refusal
        except OSError as exc:
            if chunks:
                raise
            raise ValueError(
                f"depot {depot[0]}:{depot[1]} refused the claim for "
                f"session {session_id.hex()}"
            ) from exc
    return bytes(chunks)
