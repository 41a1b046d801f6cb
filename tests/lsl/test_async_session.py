"""Asynchronous session tests: park at a depot, claim by session id."""

import time

import pytest

from repro.lsl import pickup_header
from repro.lsl.header import SessionType
from repro.lsl.socket_transport import (
    DepotServer,
    fetch_pickup,
    route_header,
    send_session,
)
from repro.util.rng import RngStream


def park(depot, payload):
    """Park ``payload`` at ``depot``; returns the header (claim ticket)."""
    header, first_hop = route_header(depot.address)
    send_session(payload, header, first_hop)
    deadline = time.monotonic() + 10
    while header.hex_id not in depot.held:
        assert time.monotonic() < deadline, "session never parked"
        time.sleep(0.01)
    return header


class TestDepositPickupInMemory:
    """A session parked in a depot's memory, claimed back by its id."""

    def test_roundtrip(self):
        payload = RngStream(1).generator.bytes(200_000)
        with DepotServer() as depot:
            header = park(depot, payload)
            assert fetch_pickup(depot.address, header.session_id) == payload

    def test_unknown_id_raises(self):
        unknown = b"\x00" * 16
        with DepotServer() as depot:
            kept = park(depot, b"kept")
            with pytest.raises(ValueError, match=unknown.hex()):
                fetch_pickup(depot.address, unknown)
            deadline = time.monotonic() + 10
            while not depot.errors:
                assert time.monotonic() < deadline, "no error recorded"
                time.sleep(0.01)
            [error] = depot.errors
            # the failed claim leaves the parked session alone
            assert depot.held == {kept.hex_id: b"kept"}
        assert isinstance(error, ValueError)
        assert unknown.hex() in str(error)


class TestPickupHeader:
    def test_type_is_pickup(self):
        h = pickup_header("10.0.0.1", 9000, b"\x01" * 16)
        assert h.session_type is SessionType.PICKUP
        assert h.session_id == b"\x01" * 16

    def test_roundtrips_on_the_wire(self):
        from repro.lsl.header import SessionHeader

        h = pickup_header("10.0.0.1", 9000, b"\x02" * 16)
        decoded, _ = SessionHeader.decode(h.encode())
        assert decoded.session_type is SessionType.PICKUP


class TestAsyncOverSockets:
    def test_park_and_fetch(self):
        payload = RngStream(5).generator.bytes(300_000)
        with DepotServer() as depot:
            # address the session at the depot itself: park, don't forward
            from repro.lsl.header import SessionHeader, new_session_id

            header = SessionHeader(
                session_id=new_session_id(),
                src_ip="127.0.0.1",
                dst_ip=depot.host,
                src_port=0,
                dst_port=depot.port,
            )
            send_session(payload, header, depot.address)

            import time

            deadline = time.monotonic() + 10
            while header.hex_id not in depot.held:
                assert time.monotonic() < deadline, "session never parked"
                time.sleep(0.01)

            got = fetch_pickup(depot.address, header.session_id)
            assert got == payload
            assert header.hex_id not in depot.held  # consumed

    def test_session_id_is_the_claim_ticket(self):
        with DepotServer() as depot:
            first = park(depot, b"first")
            second = park(depot, b"second")
            assert fetch_pickup(depot.address, second.session_id) == b"second"
            assert fetch_pickup(depot.address, first.session_id) == b"first"

    def test_pickup_consumes(self):
        with DepotServer() as depot:
            header = park(depot, b"once")
            assert fetch_pickup(depot.address, header.session_id) == b"once"
            # the spent ticket is refused, not answered with no bytes
            with pytest.raises(ValueError, match=header.hex_id):
                fetch_pickup(depot.address, header.session_id)
            assert depot.held == {}

    def test_fetch_unknown_session_errors_server_side(self):
        with DepotServer() as depot:
            # the depot resets the connection instead of closing it
            with pytest.raises(ValueError, match="refused the claim"):
                fetch_pickup(depot.address, b"\x09" * 16)
            deadline = time.monotonic() + 10
            while not depot.errors:
                assert time.monotonic() < deadline, "no error recorded"
                time.sleep(0.01)
            assert any("no held session" in str(e) for e in depot.errors)

    def test_empty_parked_session_yields_no_bytes(self):
        # an empty payload is parked and claimed like any other: only
        # a refused claim raises
        with DepotServer() as depot:
            header = park(depot, b"")
            assert fetch_pickup(depot.address, header.session_id) == b""
            assert depot.held == {}

    def test_relay_then_park_at_last_depot(self):
        """The full asynchronous story: the sender pushes through one
        forwarding depot to a terminal depot, where the receiver later
        collects by session id."""
        payload = RngStream(6).generator.bytes(150_000)
        with DepotServer() as terminal, DepotServer() as relay:
            from repro.lsl.header import SessionHeader, new_session_id

            header = SessionHeader(
                session_id=new_session_id(),
                src_ip="127.0.0.1",
                dst_ip=terminal.host,
                src_port=0,
                dst_port=terminal.port,
            )
            # connect to the relay; it forwards to the terminal depot,
            # which parks because the session is addressed to it
            send_session(payload, header, relay.address)

            import time

            deadline = time.monotonic() + 10
            while header.hex_id not in terminal.held:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            assert fetch_pickup(terminal.address, header.session_id) == payload
