"""Depot stress: many interleaved sessions through one depot."""

import threading

from repro.lsl.faults import RetryPolicy
from repro.lsl.socket_transport import (
    DepotServer,
    SinkServer,
    route_header,
    send_session,
)
from repro.util.rng import RngStream


class TestManySessions:
    def test_interleaved_sessions_keep_bytes_separate(self):
        """Sixteen concurrent sessions, legacy and resumable alike, in
        small chunks through one small-buffered depot: every sink copy
        is exactly its own payload."""
        rng = RngStream(7)
        payloads = [bytes(rng.generator.bytes(5000 + i * 100)) for i in range(16)]
        errors = []
        with SinkServer() as sink, DepotServer(buffer_size=300) as depot:
            headers = [
                route_header(sink.address, [depot.address])[0]
                for _ in payloads
            ]

            def send(i):
                try:
                    send_session(
                        payloads[i], headers[i], depot.address,
                        chunk_size=700,
                        retry=RetryPolicy() if i % 2 else None,
                    )
                except Exception as exc:  # surfaced by the assert below
                    errors.append(exc)

            senders = [
                threading.Thread(target=send, args=(i,))
                for i in range(len(payloads))
            ]
            for thread in senders:
                thread.start()
            for thread in senders:
                thread.join(30)
            assert not any(thread.is_alive() for thread in senders)
            assert errors == []
            for header, payload in zip(headers, payloads):
                assert sink.wait_for(header.hex_id) == payload
