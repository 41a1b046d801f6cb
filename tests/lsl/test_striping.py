"""Striped sublinks: ledger staging/interleave units and socket e2e.

GridFTP-style striping opens N parallel connections per hop, each
carrying the interleaved block slice ``j % count == index``.  The
ledger stages each slice per stripe and interleaves them back once the
session is complete, so these tests hammer the slice and interleave
arithmetic first, then run real striped sessions through
a loopback relay — including a mid-stream stripe kill that must resume
from that stripe's own watermark without disturbing its siblings.
"""

import sys
import threading
import tracemalloc

import pytest

from repro.lsl.faults import (
    FaultKind,
    FaultPlan,
    FaultRule,
    RetryPolicy,
    SessionLedger,
)
from repro.lsl.header import SessionHeader, new_session_id
from repro.lsl.options import LooseSourceRoute, StripeOption
from repro.lsl.socket_transport import (
    DepotServer,
    SinkServer,
    _stripe_slice,
    send_session,
)
from repro.util.rng import RngStream

POLICY = RetryPolicy(
    max_retries=2,
    base_delay=0.01,
    multiplier=1.5,
    max_delay=0.05,
    jitter=0.0,
    io_timeout=5.0,
    connect_timeout=2.0,
)


def payload_bytes(size, seed=23):
    return RngStream(seed, "striping/payload").generator.bytes(size)


class TestStripeSlice:
    def test_slices_partition_the_payload(self):
        payload = payload_bytes(100_000)
        block = 1 << 10
        count = 4
        slices = [
            _stripe_slice(payload, k, count, block) for k in range(count)
        ]
        assert sum(len(s) for s in slices) == len(payload)
        # reassemble positionally and compare
        out = bytearray(len(payload))
        for k, data in enumerate(slices):
            src = 0
            for start in range(k * block, len(payload), count * block):
                run = min(block, len(payload) - start)
                out[start : start + run] = data[src : src + run]
                src += run
        assert bytes(out) == payload

    def test_single_stripe_is_identity(self):
        payload = payload_bytes(5_000)
        assert _stripe_slice(payload, 0, 1, 1 << 10) == payload

    def test_short_payload_leaves_late_stripes_empty(self):
        payload = b"ab"
        assert _stripe_slice(payload, 0, 4, 1 << 10) == payload
        for k in (1, 2, 3):
            assert _stripe_slice(payload, k, 4, 1 << 10) == b""


class TestStripedLedger:
    def make(self, total=10_000, stripes=3, block=1 << 10):
        return SessionLedger(total, stripes=stripes, block=block)

    def test_stripe_totals_partition_the_session(self):
        ledger = self.make()
        assert sum(ledger.stripe_total(k) for k in range(3)) == 10_000

    def test_scatter_gather_roundtrip(self):
        payload = payload_bytes(10_000)
        ledger = self.make()
        for k in range(3):
            data = _stripe_slice(payload, k, 3, 1 << 10)
            gen, start = ledger.claim_stripe(k)
            assert start == 0
            assert ledger.append_stripe(k, gen, data)
        assert ledger.complete
        assert bytes(ledger.data) == payload
        for k in range(3):
            data = _stripe_slice(payload, k, 3, 1 << 10)
            assert ledger.read_stripe(k, 0, len(data)) == data

    def test_stale_generation_append_is_dropped(self):
        ledger = self.make()
        gen, _ = ledger.claim_stripe(0)
        ledger.claim_stripe(0)  # supersedes the first connection
        assert not ledger.append_stripe(0, gen, b"x" * 100)
        assert ledger.stripe_acked(0) == 0

    def test_resume_appends_from_stripe_watermark(self):
        payload = payload_bytes(10_000)
        data = _stripe_slice(payload, 1, 3, 1 << 10)
        ledger = self.make()
        gen, _ = ledger.claim_stripe(1)
        ledger.append_stripe(1, gen, data[:1500])
        gen2, start = ledger.claim_stripe(1)
        assert gen2 > gen
        assert start == 1500
        ledger.append_stripe(1, gen2, data[1500:])
        assert ledger.stripe_acked(1) == len(data)
        assert ledger.read_stripe(1, 0, len(data)) == data

    def test_note_stripe_sent_counts_retransmissions(self):
        ledger = self.make()
        assert ledger.note_stripe_sent(0, 0, 1000) == 0
        assert ledger.note_stripe_sent(0, 500, 1500) == 500

    def test_plain_api_raises_on_striped_ledger(self):
        ledger = self.make()
        with pytest.raises(ValueError):
            ledger.claim()
        with pytest.raises(ValueError):
            ledger.append(0, b"x")

    def test_memory_follows_bytes_received(self):
        """A header's claimed total reserves nothing: a 64 MiB two-stripe
        ledger that has received 4 KiB per stripe holds about 8 KiB."""
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            ledger = SessionLedger(64 << 20, stripes=2)
            for k in range(2):
                gen, _ = ledger.claim_stripe(k)
                assert ledger.append_stripe(k, gen, b"x" * (4 << 10))
            used = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert ledger.acked == 8 << 10
        assert used < 1 << 20

    def test_concurrent_stripe_appends_reassemble(self):
        """One thread per stripe, each reconnecting midway, with a short
        switch interval: no append is lost or misplaced."""
        stripes, block = 6, 512
        payload = payload_bytes(200_000)
        ledger = SessionLedger(len(payload), stripes=stripes, block=block)

        def deliver(k):
            data = _stripe_slice(payload, k, stripes, block)
            half = len(data) // 2
            gen, _ = ledger.claim_stripe(k)
            for off in range(0, half, 700):
                assert ledger.append_stripe(k, gen, data[off : min(off + 700, half)])
            gen, acked = ledger.claim_stripe(k)
            assert acked == half
            for off in range(acked, len(data), 700):
                assert ledger.append_stripe(k, gen, data[off : off + 700])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=deliver, args=(k,))
                for k in range(stripes)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert ledger.acked == len(payload)
        assert ledger.data == payload

    def test_stripe_index_bounds_checked(self):
        ledger = self.make(stripes=2)
        with pytest.raises(ValueError):
            ledger.claim_stripe(2)

    def test_matches_compares_layout(self):
        ledger = self.make(stripes=3, block=1 << 10)
        assert ledger.matches(3, 1 << 10)
        assert not ledger.matches(4, 1 << 10)
        assert not ledger.matches(3, 2 << 10)

    def test_claim_completion_latches_once(self):
        payload = payload_bytes(3_000)
        ledger = self.make(total=3_000)
        for k in range(3):
            gen, _ = ledger.claim_stripe(k)
            ledger.append_stripe(
                k, gen, _stripe_slice(payload, k, 3, 1 << 10)
            )
        assert ledger.claim_completion()
        assert not ledger.claim_completion()


def make_header(sink, hops=()):
    return SessionHeader(
        session_id=new_session_id(),
        src_ip="127.0.0.1",
        dst_ip="127.0.0.1",
        src_port=0,
        dst_port=sink.port,
        options=(LooseSourceRoute(hops=tuple(hops)),) if hops else (),
    )


class TestStripedSocketTransport:
    def test_direct_striped_session_is_byte_exact(self):
        payload = payload_bytes(300_000)
        sink = SinkServer(name="stripe-sink")
        try:
            header = make_header(sink)
            report = send_session(
                payload,
                header,
                sink.address,
                chunk_size=16 << 10,
                retry=POLICY,
                stripes=3,
                stripe_block=4 << 10,
            )
            got = sink.wait_for(header.hex_id)
        finally:
            sink.kill()
        assert got == payload
        assert report.attempts == 3  # one connect per stripe
        assert report.retransmitted == 0
        assert report.high_water == len(payload)

    def test_striped_relay_through_depots(self):
        payload = payload_bytes(250_000)
        sink = SinkServer(name="stripe-sink")
        d1 = DepotServer(name="stripe-d1", retry=POLICY)
        d2 = DepotServer(name="stripe-d2", retry=POLICY)
        try:
            header = make_header(sink, hops=[d2.address])
            report = send_session(
                payload,
                header,
                d1.address,
                chunk_size=16 << 10,
                retry=POLICY,
                stripes=4,
                stripe_block=8 << 10,
            )
            got = sink.wait_for(header.hex_id)
            assert d1.snapshot()["sessions_forwarded"] == 1
            assert d2.snapshot()["sessions_forwarded"] == 1
        finally:
            for server in (d1, d2, sink):
                server.kill()
        assert got == payload
        assert report.attempts == 4

    def test_dropped_stripe_resumes_from_its_own_watermark(self):
        """A mid-stream kill of the depot's inbound connection must cost
        only that connection's unacknowledged bytes, striped or not."""
        payload = payload_bytes(400_000)
        plan = FaultPlan(
            [
                FaultRule(
                    site="stripe-d1",
                    kind=FaultKind.DROP,
                    after_bytes=60_000,
                )
            ]
        )
        sink = SinkServer(name="stripe-sink")
        d1 = DepotServer(name="stripe-d1", retry=POLICY, fault_plan=plan)
        try:
            header = make_header(sink)
            report = send_session(
                payload,
                header,
                d1.address,
                chunk_size=8 << 10,
                retry=POLICY,
                fault_plan=plan,
                stripes=2,
                stripe_block=8 << 10,
            )
            got = sink.wait_for(header.hex_id)
        finally:
            for server in (d1, sink):
                server.kill()
        assert got == payload
        assert report.attempts >= 3  # 2 stripes + at least one reconnect
        # the resumed stripe re-sends its unacknowledged in-flight window
        # (large on loopback), but never replays the whole session
        assert 0 < report.retransmitted < len(payload)

    def test_stripes_require_header_without_stripe_option(self):
        sink = SinkServer(name="stripe-sink")
        try:
            header = make_header(sink)
            header = header.with_options(
                (StripeOption(index=0, count=2),)
            )
            with pytest.raises(ValueError, match="[Ss]tripe"):
                send_session(
                    b"x" * 1024, header, sink.address, stripes=2
                )
        finally:
            sink.kill()

    def test_invalid_stripe_count_rejected(self):
        sink = SinkServer(name="stripe-sink")
        try:
            header = make_header(sink)
            with pytest.raises(ValueError):
                send_session(b"x" * 1024, header, sink.address, stripes=0)
        finally:
            sink.kill()

    def test_sink_rejects_striped_header_without_resume(self):
        """A stripe option without resume semantics cannot reassemble."""
        import socket as socket_mod

        from repro.lsl.socket_transport import RESUME_ACK

        sink = SinkServer(name="stripe-sink")
        try:
            header = make_header(sink).with_options(
                (StripeOption(index=0, count=2),)
            )
            with socket_mod.create_connection(
                sink.address, timeout=5.0
            ) as sock:
                sock.sendall(header.encode())
                sock.shutdown(socket_mod.SHUT_WR)
                # server closes without acking: the header is invalid
                assert sock.recv(RESUME_ACK.size) == b""
        finally:
            sink.kill()
