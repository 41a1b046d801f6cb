"""Depot tests over loopback sockets: admission, forwarding decisions,
route-table parsing, the data path and the session lifecycle of
:class:`DepotServer`."""

import socket
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli.main import main
from repro.lsl.faults import RetryPolicy
from repro.lsl.header import SessionHeader, new_session_id
from repro.lsl.options import LooseSourceRoute
from repro.lsl.socket_transport import (
    DepotServer,
    SinkServer,
    fetch_pickup,
    read_header,
    send_session,
)
from repro.util.rng import RngStream

#: a destination no depot can reach directly; only a route gets there
UNREACHABLE = ("10.0.0.9", 7000)


def make_header(dst=UNREACHABLE, options=()):
    return SessionHeader(
        session_id=new_session_id(),
        src_ip="10.0.0.1",
        dst_ip=dst[0],
        src_port=5000,
        dst_port=dst[1],
        options=tuple(options),
    )


class Tap:
    """A bare listener standing in for a depot's next hop: it accepts
    one connection and returns the header and payload it carried."""

    def __init__(self):
        self.sock = socket.create_server(("127.0.0.1", 0))
        self.sock.settimeout(10)
        self.address = self.sock.getsockname()

    def receive(self) -> tuple[SessionHeader, bytes]:
        conn, _ = self.sock.accept()
        with conn:
            conn.settimeout(10)
            header = read_header(conn)
            payload = bytearray()
            while data := conn.recv(1 << 16):
                payload += data
        return header, bytes(payload)

    def close(self):
        self.sock.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.01)


class TestAdmission:
    def test_admit_returns_final_decision_without_routing(self):
        # no source route and no route table: the depot delivers straight
        # to the session's destination, header unchanged
        with Tap() as tap, DepotServer() as depot:
            header = make_header(dst=tap.address)
            send_session(b"x", header, depot.address)
            out, payload = tap.receive()
        assert payload == b"x"
        assert out == header
        assert out.option(LooseSourceRoute) is None


class TestForwardingDecision:
    def test_lsrr_advanced(self):
        with Tap() as tap, DepotServer() as depot:
            lsrr = LooseSourceRoute(hops=(tap.address, ("10.0.0.6", 7200)))
            send_session(b"x", make_header(options=[lsrr]), depot.address)
            out, payload = tap.receive()
        assert payload == b"x"
        assert (out.dst_ip, out.dst_port) == UNREACHABLE
        assert out.option(LooseSourceRoute).hops == (("10.0.0.6", 7200),)

    def test_exhausted_lsrr_goes_to_destination(self):
        with Tap() as tap, DepotServer() as depot:
            header = make_header(
                dst=tap.address, options=[LooseSourceRoute(hops=())]
            )
            send_session(b"x", header, depot.address)
            out, payload = tap.receive()
        assert payload == b"x"
        assert out.session_id == header.session_id
        assert out.option(LooseSourceRoute).hops == ()

    def test_route_table_consulted_without_lsrr(self):
        with Tap() as tap:
            host, port = tap.address
            table = {UNREACHABLE[0]: f"{host}:{port}"}
            with DepotServer(route_table=table) as depot:
                header = make_header()
                send_session(b"x", header, depot.address)
                out, payload = tap.receive()
        assert payload == b"x"
        # the header travels unchanged; only the connection is redirected
        assert out == header

    def test_route_table_default_is_direct(self):
        with Tap() as tap:
            table = {"10.0.0.8": "127.0.0.1:9"}  # no entry for this dst
            with DepotServer(route_table=table) as depot:
                header = make_header(dst=tap.address)
                send_session(b"x", header, depot.address)
                out, payload = tap.receive()
        assert payload == b"x"
        assert out == header

    def test_hold_for_pickup(self):
        with DepotServer() as depot:
            header = make_header(dst=depot.address)
            send_session(b"parked", header, depot.address)
            wait_until(lambda: header.hex_id in depot.held)
            assert depot.held == {header.hex_id: b"parked"}
            assert depot.snapshot()["sessions_forwarded"] == 0


class TestRouteTableEntries:
    def test_entries_parsed_once_into_addresses(self):
        with DepotServer(route_table={"10.9.9.9": "127.0.0.1:7001"}) as d:
            assert d.route_table == {"10.9.9.9": ("127.0.0.1", 7001)}

    @pytest.mark.parametrize(
        "hop",
        ["127.0.0.1", "127.0.0.1:", ":7001", "127.0.0.1:x", "127.0.0.1:0",
         "127.0.0.1:65536", "127.0.0.1:-1"],
    )
    def test_malformed_entry_rejected_naming_it(self, hop):
        with pytest.raises(ValueError, match="10.9.9.9") as caught:
            DepotServer(route_table={"10.9.9.9": hop})
        assert repr(hop) in str(caught.value)

    def test_cli_depot_route_without_port_exits_2(self, capsys):
        code = main(["depot", "--port", "0", "--route", "10.9.9.9=127.0.0.1"])
        assert code == 2
        assert "10.9.9.9" in capsys.readouterr().err


class TestDataPath:
    def test_write_read_roundtrip(self):
        # a session addressed to the depot is written into it (parked)
        # and read back whole by a pickup, on either session path
        with DepotServer() as depot:
            legacy, resumable = (make_header(dst=depot.address) for _ in "lr")
            send_session(b"hello world", legacy, depot.address)
            send_session(
                b"hello again", resumable, depot.address, retry=RetryPolicy()
            )
            wait_until(lambda: len(depot.held) == 2)
            assert fetch_pickup(depot.address, legacy.session_id) == (
                b"hello world"
            )
            assert fetch_pickup(depot.address, resumable.session_id) == (
                b"hello again"
            )
            assert depot.held == {}

    def test_unknown_session_raises(self):
        unknown = b"\x00" * 16
        with DepotServer() as depot:
            with pytest.raises(ValueError, match=unknown.hex()):
                fetch_pickup(depot.address, unknown)
            wait_until(lambda: depot.errors)
            [error] = depot.errors
        assert isinstance(error, ValueError)
        assert unknown.hex() in str(error)

    def test_byte_order_preserved_across_chunking(self):
        payload = bytes(range(256)) * 10
        with SinkServer() as sink, DepotServer(buffer_size=37) as depot:
            header = make_header(dst=sink.address)
            send_session(payload, header, depot.address, chunk_size=101)
            assert sink.wait_for(header.hex_id) == payload

    def test_depot_holds_nothing_after_forwarding(self):
        with SinkServer() as sink, DepotServer() as depot:
            legacy, resumable = (make_header(dst=sink.address) for _ in "lr")
            send_session(b"z" * 10_000, legacy, depot.address)
            send_session(
                b"r" * 10_000, resumable, depot.address, retry=RetryPolicy()
            )
            wait_until(lambda: depot.snapshot()["sessions_forwarded"] == 2)
            assert depot.held == {}
            assert depot._ledgers == {}

    @given(st.integers(min_value=1, max_value=200_000))
    @settings(max_examples=10)
    def test_any_size_is_conserved(self, size):
        payload = RngStream(size).generator.bytes(size)
        with SinkServer() as sink, DepotServer() as depot:
            header = make_header(dst=sink.address)
            send_session(payload, header, depot.address)
            assert sink.wait_for(header.hex_id) == payload


class TestLifecycle:
    def test_evict_forgets(self):
        # a completed resumable session leaves no ledger behind, and a
        # pickup evicts the parked copy: a second claim finds nothing
        with DepotServer() as depot:
            header = make_header(dst=depot.address)
            send_session(b"data", header, depot.address, retry=RetryPolicy())
            wait_until(
                lambda: header.hex_id in depot.held and not depot._ledgers
            )
            assert fetch_pickup(depot.address, header.session_id) == b"data"
            with pytest.raises(ValueError, match=header.hex_id):
                fetch_pickup(depot.address, header.session_id)
            wait_until(lambda: depot.errors)
            assert depot.held == {}
        assert "no held session" in str(depot.errors[0])
