"""Session tests: the source-route convention of :func:`route_header`
(connect to the first depot, carry the rest), and whole sessions from a
source through loopback depots to a sink."""

import hashlib
import time

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lsl.header import SessionType
from repro.lsl.options import LooseSourceRoute, ResumeOffset
from repro.lsl.socket_transport import (
    DepotServer,
    SinkServer,
    route_header,
    send_session,
)
from repro.util.rng import RngStream


DEPOT_A = ("10.1.0.1", 9000)
DEPOT_B = ("10.1.0.2", 9000)
DEPOT_C = ("10.1.0.3", 9000)
SINK = ("10.9.9.9", 7777)


class TestHeaderBuilding:
    def test_no_route_no_option(self):
        h, first_hop = route_header(SINK)
        assert h.option(LooseSourceRoute) is None
        assert first_hop == SINK

    def test_single_depot_route_has_no_lsrr(self):
        # the source connects to the sole depot directly
        h, first_hop = route_header(SINK, [DEPOT_A])
        assert h.option(LooseSourceRoute) is None
        assert first_hop == DEPOT_A

    def test_multi_depot_route_lists_downstream_hops(self):
        # the route stops at the last depot: the destination lives in
        # the fixed header, not in the option
        h, first_hop = route_header(SINK, [DEPOT_A, DEPOT_B, DEPOT_C])
        assert first_hop == DEPOT_A
        assert h.option(LooseSourceRoute).hops == (DEPOT_B, DEPOT_C)
        assert (h.dst_ip, h.dst_port) == SINK

    def test_type_is_point_to_point(self):
        h, _ = route_header(SINK)
        assert h.session_type is SessionType.POINT_TO_POINT

    def test_pinned_session_type_and_options(self):
        resume = ResumeOffset(total=10)
        h, _ = route_header(
            SINK,
            [DEPOT_A, DEPOT_B],
            session_id=b"\x07" * 16,
            session_type=SessionType.MULTICAST,
            options=(resume,),
        )
        assert h.session_id == b"\x07" * 16
        assert h.session_type is SessionType.MULTICAST
        # caller options first, the source route last
        assert h.options == (resume, LooseSourceRoute(hops=(DEPOT_B,)))

    def test_fresh_session_id_per_header(self):
        assert route_header(SINK)[0].session_id != route_header(SINK)[0].session_id


def run_session(payload, sink, depots=()):
    """Send ``payload`` to ``sink`` through ``depots``, in order; returns
    what the sink recorded: ``(header, payload)``."""
    header, first_hop = route_header(
        sink.address, [depot.address for depot in depots]
    )
    send_session(payload, header, first_hop)
    delivered = sink.wait_for(header.hex_id)
    return sink.headers[header.hex_id], delivered


def forwarded(depot, sessions=1, timeout=10.0):
    """The depot's counters once it has forwarded ``sessions`` sessions."""
    deadline = time.monotonic() + timeout
    while (counters := depot.snapshot())["sessions_forwarded"] < sessions:
        assert time.monotonic() < deadline, "depot never finished forwarding"
        time.sleep(0.01)
    return counters


class TestRunSessionDirect:
    def test_direct_delivery(self):
        with SinkServer() as sink:
            _, delivered = run_session(b"direct payload", sink)
        assert delivered == b"direct payload"

    def test_sink_sees_header(self):
        with SinkServer() as sink:
            header, _ = run_session(b"x", sink)
            assert len(sink.headers) == 1
            assert (header.dst_ip, header.dst_port) == sink.address


class TestRunSessionRelayed:
    def test_single_depot_integrity(self):
        payload = RngStream(1).generator.bytes(300_000)
        with SinkServer() as sink, DepotServer() as depot:
            _, delivered = run_session(payload, sink, [depot])
        assert (
            hashlib.sha256(delivered).hexdigest()
            == hashlib.sha256(payload).hexdigest()
        )

    def test_two_depot_integrity(self):
        payload = RngStream(2).generator.bytes(500_000)
        with SinkServer() as sink, DepotServer() as a, DepotServer() as b:
            _, delivered = run_session(payload, sink, [a, b])
            counters = [forwarded(a), forwarded(b)]
        assert delivered == payload
        # both depots saw the full byte count
        assert [c["bytes_forwarded"] for c in counters] == [len(payload)] * 2

    def test_sink_header_has_exhausted_route(self):
        with SinkServer() as sink, DepotServer() as a, DepotServer() as b:
            header, _ = run_session(b"y", sink, [a, b])
        lsrr = header.option(LooseSourceRoute)
        assert lsrr is None or lsrr.hops == ()

    def test_tiny_buffers_still_deliver(self):
        """Small depot relay buffers force many receive/send cycles;
        bytes must still arrive intact and in order."""
        payload = bytes(range(256)) * 2000  # 512 KB
        with (
            SinkServer() as sink,
            DepotServer(buffer_size=3_000) as a,
            DepotServer(buffer_size=3_000) as b,
        ):
            _, delivered = run_session(payload, sink, [a, b])
        assert delivered == payload

    def test_depot_buffers_empty_after_session(self):
        with SinkServer() as sink, DepotServer() as depot:
            run_session(b"z" * 10_000, sink, [depot])
            assert forwarded(depot)["bytes_forwarded"] == 10_000
            assert depot.held == {}
            assert depot._ledgers == {}

    @given(st.integers(min_value=1, max_value=200_000))
    @settings(max_examples=10, deadline=None)
    def test_any_size_is_conserved(self, size):
        payload = b"\xab" * size
        with SinkServer() as sink, DepotServer() as depot:
            _, delivered = run_session(payload, sink, [depot])
        assert len(delivered) == size
