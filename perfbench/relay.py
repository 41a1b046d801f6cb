"""Loopback relay workloads: ``relay_bulk`` and ``relay_small``.

Both are closed loops with one client thread: the next session starts
only after the previous one's payload was verified byte for byte at the
sink.  Depots and sink run in-process on ``127.0.0.1``, so the traffic
crosses the host's loopback interface, not a real link.

A session is timed from the call that starts the send until the sink's
copy has been compared with what was sent.  Resumable and striped sends
return only after the sink's final acknowledgement, which the sink sends
after storing the payload; a legacy send returns once its bytes are
written, so the sink signals each stored payload through a condition
variable (:class:`Sink`) instead of being polled.
"""

from __future__ import annotations

import itertools
import random
import resource
import socket
import statistics
import threading
import time
from dataclasses import dataclass, field

from repro.lsl import socket_transport
from repro.lsl.faults import RetryPolicy
from repro.lsl.header import SessionHeader
from repro.lsl.options import LooseSourceRoute

LOCAL = "127.0.0.1"
#: the transport's own I/O chunk and kernel buffer cap, so the raw
#: loopback calibration moves bytes the way the relay does
CHUNK = 64 << 10
SOCK_BUF = 128 << 10
BULK_SIZE = 32 << 20
BULK_MODES = ("legacy", "resumable", "striped")
SMALL_MIN, SMALL_MAX = 1 << 10, 256 << 10
#: extra bytes in the payload buffer, so sessions can start at different
#: offsets and no two neighbouring sessions carry the same bytes
SLACK = 1 << 20
TIMEOUT = 30.0
#: sessions after which a relay loop reads its peak memory.  The servers
#: keep every handler thread they started until they close, so memory
#: grows by about 5 KB a session and, read at the end of a timed loop,
#: would follow how fast the host ran (relay_small: 150-230 MB for
#: 18k-34k sessions).  Both counts are reached well before a 25 s loop ends.
RSS_AFTER = {"relay_bulk": 30, "relay_small": 10_000}


@dataclass
class Measured:
    """What one timed loop observed."""

    attempted: int = 0
    failed: int = 0
    latencies: list[float] = field(default_factory=list)
    #: when each timed operation started (``time.perf_counter``)
    starts: list[float] = field(default_factory=list)
    #: verified sessions, or transfers priced by successful campaign runs
    items: int = 0
    payload_bytes: int = 0
    wall: float = 0.0
    #: campaign runs (zero for relay loops)
    runs: int = 0
    #: peak memory once the workload's RSS_AFTER sessions were attempted
    #: (0: the loop ended sooner, or has no such count)
    rss_MB: float = 0.0
    #: resume-protocol outcome of the non-legacy sends
    attempts: int = 0
    stripes: int = 0
    retransmitted: int = 0
    errors: list[str] = field(default_factory=list)

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(reason)


class Sink(socket_transport.SinkServer):
    """A sink that signals every stored payload and hands each over once.

    ``SinkServer`` keeps every payload forever; an application consumes
    them, so :meth:`take` removes the payload it returns.
    """

    def __init__(self, **kwargs) -> None:
        self._arrived = threading.Condition()
        super().__init__(**kwargs)

    def handle(self, conn: socket.socket) -> None:
        super().handle(conn)
        with self._arrived:
            self._arrived.notify_all()

    def take(self, hex_id: str, timeout: float) -> bytes:
        with self._arrived:
            if not self._arrived.wait_for(
                lambda: hex_id in self.payloads, timeout
            ):
                raise TimeoutError(f"session {hex_id} never reached the sink")
        with self._lock:
            self.headers.pop(hex_id, None)
            return self.payloads.pop(hex_id)


class Topology:
    """A sink plus ``depots`` forwarding depots on ephemeral ports."""

    def __init__(self, depots: int) -> None:
        self.sink = Sink(name="bench-sink")
        self.depots = [
            socket_transport.DepotServer(name=f"bench-depot{i}")
            for i in range(depots)
        ]

    def close(self) -> list[str]:
        """Stop every server; returns the errors they recorded."""
        errors = []
        for server in (*self.depots, self.sink):
            server.close()
            errors += [f"{server.name}: {exc!r}" for exc in server.errors]
        return errors


def send(
    topo: Topology,
    session_id: bytes,
    payload: memoryview,
    mode: str,
    depots: int,
    out: Measured,
) -> None:
    """Run one session through the first ``depots`` depots and verify it."""
    options = ()
    if depots > 1:
        options = (
            LooseSourceRoute(hops=tuple(d.address for d in topo.depots[1:depots])),
        )
    header = SessionHeader(
        session_id=session_id,
        src_ip=LOCAL,
        dst_ip=LOCAL,
        src_port=0,
        dst_port=topo.sink.port,
        options=options,
    )
    first_hop = topo.depots[0].address if depots else topo.sink.address
    out.attempted += 1
    t0 = time.perf_counter()
    try:
        if mode == "legacy":
            report = socket_transport.send_session(
                payload, header, first_hop, chunk_size=CHUNK
            )
        else:
            report = socket_transport.send_session(
                payload,
                header,
                first_hop,
                chunk_size=CHUNK,
                retry=RetryPolicy(),
                stripes=2 if mode == "striped" else 1,
            )
        got = topo.sink.take(header.hex_id, TIMEOUT)
    except Exception as exc:  # noqa: BLE001 - a failed session is a data point
        out.fail(f"{mode} session over {depots} depot(s): {exc!r}")
        return
    if got != payload:
        out.fail(f"{mode} session over {depots} depot(s): payload corrupted")
        return
    out.starts.append(t0)
    out.latencies.append(time.perf_counter() - t0)
    out.items += 1
    out.payload_bytes += len(payload)
    if report is not None:
        out.attempts += report.attempts
        out.stripes += 2 if mode == "striped" else 1
        out.retransmitted += report.retransmitted


class RelayWorkload:
    """``relay_bulk`` (``bulk=True``) or ``relay_small``.

    relay_bulk: back-to-back 32 MiB sessions, source -> one depot -> sink,
    send mode rotating legacy, resumable, two-stripe.  relay_small:
    sessions of 1 KiB to 256 KiB (log-uniform) across 0, 1 or 2 depots by
    loose source route, legacy or resumable, drawn from the seed.
    """

    def __init__(self, seed: int, bulk: bool) -> None:
        self.seed = seed
        self.bulk = bulk
        self.size = BULK_SIZE if bulk else SMALL_MAX

    def sessions(self):
        """The seeded session stream: (id, offset, size, mode, depots)."""
        rng = random.Random(f"{self.seed}/sessions")
        for i in itertools.count():
            if self.bulk:
                mode, depots, size = BULK_MODES[i % 3], 1, BULK_SIZE
            else:
                mode = rng.choice(("legacy", "resumable"))
                depots = rng.randrange(3)
                size = int(
                    SMALL_MIN * (SMALL_MAX / SMALL_MIN) ** rng.random()
                )
            yield rng.randbytes(16), rng.randrange(SLACK), size, mode, depots

    def setup(self):
        """Servers up, payload generated, one warm-up session per kind."""
        topo = Topology(depots=1 if self.bulk else 2)
        buffer = memoryview(
            random.Random(f"{self.seed}/payload").randbytes(self.size + SLACK)
        )
        warm = Measured()
        kinds = (
            [(mode, 1) for mode in BULK_MODES]
            if self.bulk
            else [(m, d) for m in ("legacy", "resumable") for d in range(3)]
        )
        rng = random.Random(f"{self.seed}/warm-up")
        for mode, depots in kinds:
            send(topo, rng.randbytes(16), buffer[: 64 << 10], mode, depots, warm)
        if warm.failed:
            topo.close()
            raise RuntimeError(f"warm-up failed: {warm.errors}")
        return topo, buffer

    def measure(self, state, seconds: float) -> Measured:
        topo, buffer = state
        out = Measured()
        sessions = self.sessions()
        t0 = time.perf_counter()
        deadline = t0 + seconds
        rss_after = RSS_AFTER["relay_bulk" if self.bulk else "relay_small"]
        while time.perf_counter() < deadline:
            sid, offset, size, mode, depots = next(sessions)
            send(topo, sid, buffer[offset : offset + size], mode, depots, out)
            if out.attempted == rss_after:
                out.rss_MB = peak_rss_MB()
        out.wall = time.perf_counter() - t0
        return out

    def close(self, state) -> list[str]:
        return state[0].close()


def peak_rss_MB() -> float:
    """The process's peak resident memory so far, in MB (1e6 B)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def _cap_buffers(sock: socket.socket) -> None:
    for option in (socket.SO_SNDBUF, socket.SO_RCVBUF):
        sock.setsockopt(socket.SOL_SOCKET, option, SOCK_BUF)


def loopback_MBps(size: int = BULK_SIZE, reps: int = 5) -> float:
    """Raw loopback ``sendall``/``recv_into`` rate with no LSL (MB/s).

    Same payload size, chunk size and kernel buffer cap as the relay;
    the median of ``reps`` transfers over one connection.
    """
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    _cap_buffers(listener)  # inherited by the accepted connection
    listener.bind((LOCAL, 0))
    listener.listen(1)
    src = memoryview(bytes(size))
    dst = memoryview(bytearray(size))
    done = threading.Semaphore(0)
    failure: list[BaseException] = []

    def receive(conn: socket.socket) -> None:
        try:
            for _ in range(reps):
                got = 0
                while got < size:
                    n = conn.recv_into(dst[got : got + CHUNK])
                    if not n:
                        raise ConnectionError("loopback peer closed early")
                    got += n
                done.release()
        except OSError as exc:
            failure.append(exc)
            done.release()

    with listener, socket.create_connection(listener.getsockname()) as out:
        _cap_buffers(out)
        conn, _ = listener.accept()
        with conn:
            receiver = threading.Thread(target=receive, args=(conn,))
            receiver.start()
            rates = []
            try:
                for _ in range(reps):
                    t0 = time.perf_counter()
                    for off in range(0, size, CHUNK):
                        out.sendall(src[off : off + CHUNK])
                    if not done.acquire(timeout=TIMEOUT):
                        raise TimeoutError("loopback receiver stalled")
                    if failure:
                        raise failure[0]
                    rates.append(size / (time.perf_counter() - t0) / 1e6)
            finally:
                out.shutdown(socket.SHUT_RDWR)
                receiver.join(TIMEOUT)
    return statistics.median(rates)
