"""Which program entry points the traced run wraps, and the per-layer metrics.

Layers are named after the program's modules.  :func:`install` patches
their public entry points (and the transport's calls into ``socket``) on
a :class:`~spans.Tracer`; :func:`layer_metrics` turns the recorded spans
of one traced measurement window into the per-layer metrics that
``BENCHMARK.json`` lists.
"""

from __future__ import annotations

import socket
import statistics
import threading

from spans import Tracer

#: span name -> layer, for the share metrics (time in a layer's outermost
#: spans divided by the measured wall time; threads are summed)
LAYER_OF = {
    "lsl.ledger.append": "lsl.ledger",
    "lsl.ledger.read": "lsl.ledger",
    "nws.observe": "nws",
    "nws.build_matrix": "nws",
    "core.tree": "core",
    "core.build_mmp_tree": "core",
    "core.decide": "core",
    "models.price": "models",
    "net.run_batch": "net",
}


def ratio(num: float, den: float) -> float:
    """``num / den``, or 0 when nothing was counted."""
    return num / den if den else 0.0


def _last_len(args, result) -> int:
    return len(args[-1])


def _sent_len(args, result) -> int:
    return memoryview(args[1]).nbytes


def install(tracer: Tracer) -> list[dict]:
    """Patch every traced entry point; returns the run_batch record list.

    Each completed ``NetworkSimulator.run_batch`` call appends one dict
    with its lane count and per-lane flow steps, computed from its specs
    and results the way ``repro bench``'s ``sim.steprate`` counts them:
    one step per ``dt`` tick a lane was in flight, plus one.
    """
    from repro.core import scheduler
    from repro.core.scheduler import LogisticalScheduler
    from repro.lsl import socket_transport
    from repro.lsl.faults import SessionLedger
    from repro.lsl.header import SessionHeader
    from repro.net.simulator import NetworkSimulator, choose_dt
    from repro.nws.matrix import CliqueAggregator
    from repro.testbed import abilene, experiment, planetlab
    from repro.testbed.network import Testbed

    batches: list[dict] = []

    def record_batch(args, kwargs, results) -> None:
        simulator, specs = args[0], args[1]
        steps = [
            int(r.duration / (simulator.dt or choose_dt(list(s.paths)))) + 1
            for s, r in zip(specs, results)
        ]
        batches.append({"lanes": len(steps), "steps": steps})

    patch = tracer.patch
    patch(SessionHeader, "encode", "lsl.header.encode")
    patch(SessionHeader, "decode", "lsl.header.decode")
    patch(SessionLedger, "append", "lsl.ledger.append", nbytes=_last_len)
    patch(SessionLedger, "append_stripe", "lsl.ledger.append", nbytes=_last_len)
    patch(SessionLedger, "read", "lsl.ledger.read")
    patch(SessionLedger, "read_stripe", "lsl.ledger.read")
    patch(socket_transport.DepotServer, "handle", "lsl.depot.handle")
    patch(socket_transport.SinkServer, "handle", "lsl.sink.handle")
    patch(socket_transport, "send_session", "lsl.send")
    patch(socket.socket, "recv", "os.recv", nbytes=lambda a, r: len(r))
    patch(socket.socket, "recv_into", "os.recv", nbytes=lambda a, r: r)
    patch(socket.socket, "sendall", "os.sendall", nbytes=_sent_len)
    patch(socket, "create_connection", "os.connect")
    patch(threading.Thread, "start", "thread.start")
    # a child span, so a striped send's wait for its stripe threads is
    # not counted as the send's own time
    patch(threading.Thread, "join", "thread.join")
    patch(CliqueAggregator, "observe", "nws.observe")
    patch(CliqueAggregator, "build_matrix", "nws.build_matrix")
    patch(LogisticalScheduler, "tree", "core.tree")
    patch(scheduler, "build_mmp_tree", "core.build_mmp_tree")
    patch(LogisticalScheduler, "decide", "core.decide")
    patch(experiment, "transfer_time", "models.price")
    patch(experiment, "relay_transfer_time", "models.price")
    patch(NetworkSimulator, "run_batch", "net.run_batch", on_exit=record_batch)
    patch(Testbed, "route_specs", "testbed.route_specs")
    patch(planetlab, "generate_planetlab", "testbed.generate")
    patch(abilene, "abilene_testbed", "testbed.generate")
    return batches


def _outermost_time(spans, by_id, layer: str) -> float:
    """Time in ``layer``'s spans that no enclosing span of it covers."""
    total = 0.0
    for span in spans:
        if LAYER_OF.get(span.name) != layer:
            continue
        parent = by_id.get(span.parent)
        while parent is not None and LAYER_OF.get(parent.name) != layer:
            parent = by_id.get(parent.parent)
        if parent is None:
            total += span.duration
    return total


def _time_under(spans, by_id, name: str, ancestor: str) -> float:
    """Time in ``name`` spans that run inside an ``ancestor`` span."""
    total = 0.0
    for span in spans:
        if span.name != name:
            continue
        parent = by_id.get(span.parent)
        while parent is not None and parent.name != ancestor:
            parent = by_id.get(parent.parent)
        if parent is not None:
            total += span.duration
    return total


def layer_metrics(
    tracer: Tracer,
    window: tuple[float, float],
    batches: list[dict],
    ops: int,
    runs: int,
    payload_bytes: int,
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the spans that started inside ``window``.

    ``ops`` are the operations completed in the window (relay sessions),
    ``runs`` the campaign runs, ``payload_bytes`` the verified payload.
    A layer the workload never calls reports zero.
    """
    t0, t1 = window
    wall = t1 - t0
    by_id = {s.id: s for s in tracer.spans}
    selfs = tracer.self_times()
    spans = [s for s in tracer.spans if s.start >= t0]
    named: dict[str, list] = {}
    for span in spans:
        named.setdefault(span.name, []).append(span)

    def calls(name: str) -> int:
        return len(named.get(name, ()))

    def mean_s(name: str) -> float:
        group = named.get(name)
        return statistics.fmean(s.duration for s in group) if group else 0.0

    def total(name: str) -> float:
        return sum(s.duration for s in named.get(name, ()))

    def self_share(name: str) -> float:
        return sum(selfs[s.id] for s in named.get(name, ())) / wall

    def nbytes(name: str) -> int:
        return sum(s.nbytes for s in named.get(name, ()))

    def share(layer: str) -> float:
        return _outermost_time(spans, by_id, layer) / wall

    def depot_wait(name: str) -> float:
        """Share of the depots' handling time spent in socket call ``name``."""
        return ratio(
            _time_under(spans, by_id, name, "lsl.depot.handle"),
            total("lsl.depot.handle"),
        )

    mb = payload_bytes / 1e6
    lanes = sum(b["lanes"] for b in batches)
    lane_steps = sum(sum(b["steps"]) for b in batches)
    slots = sum(b["lanes"] * max(b["steps"]) for b in batches)
    generate = [s for s in tracer.spans if s.name == "testbed.generate"]
    return {
        "lsl.header.encode_us": (mean_s("lsl.header.encode") * 1e6, "us"),
        "lsl.header.decode_us": (mean_s("lsl.header.decode") * 1e6, "us"),
        "lsl.header.calls_per_session": (
            ratio(calls("lsl.header.encode") + calls("lsl.header.decode"), ops),
            "count",
        ),
        "lsl.ledger.append_us": (mean_s("lsl.ledger.append") * 1e6, "us"),
        "lsl.ledger.bytes_per_append": (
            ratio(nbytes("lsl.ledger.append"), calls("lsl.ledger.append")),
            "B",
        ),
        "lsl.ledger.read_us": (mean_s("lsl.ledger.read") * 1e6, "us"),
        "lsl.ledger.share": (share("lsl.ledger"), "fraction"),
        "lsl.depot.handle_self_share": (
            self_share("lsl.depot.handle"), "fraction"
        ),
        "lsl.sink.handle_self_share": (
            self_share("lsl.sink.handle"), "fraction"
        ),
        "lsl.send.self_share": (self_share("lsl.send"), "fraction"),
        "lsl.threads_per_session": (ratio(calls("thread.start"), ops), "count"),
        "os.recv.calls_per_MB": (ratio(calls("os.recv"), mb), "1/MB"),
        "os.recv.bytes_mean": (
            ratio(nbytes("os.recv"), calls("os.recv")), "B"
        ),
        "os.sendall.calls_per_MB": (ratio(calls("os.sendall"), mb), "1/MB"),
        "os.recv.wait_share": (depot_wait("os.recv"), "fraction"),
        "os.sendall.wait_share": (depot_wait("os.sendall"), "fraction"),
        "os.connect_us": (mean_s("os.connect") * 1e6, "us"),
        "os.connects_per_session": (ratio(calls("os.connect"), ops), "count"),
        "nws.observe_calls": (ratio(calls("nws.observe"), runs), "count"),
        "nws.observe_us": (mean_s("nws.observe") * 1e6, "us"),
        "nws.build_matrix_ms": (mean_s("nws.build_matrix") * 1e3, "ms"),
        "nws.share": (share("nws"), "fraction"),
        "core.tree_builds": (ratio(calls("core.build_mmp_tree"), runs), "count"),
        "core.tree_build_ms": (mean_s("core.build_mmp_tree") * 1e3, "ms"),
        "core.decide_us": (mean_s("core.decide") * 1e6, "us"),
        "core.share": (share("core"), "fraction"),
        "models.price_us": (mean_s("models.price") * 1e6, "us"),
        "models.share": (share("models"), "fraction"),
        "net.run_batch_s": (mean_s("net.run_batch"), "s"),
        "net.lanes_per_batch": (ratio(lanes, len(batches)), "count"),
        "net.flow_steps_per_s": (
            ratio(lane_steps, total("net.run_batch")), "1/s"
        ),
        "net.lane_occupancy": (ratio(lane_steps, slots), "fraction"),
        "net.share": (share("net"), "fraction"),
        "testbed.generate_ms": (
            statistics.fmean(s.duration for s in generate) * 1e3
            if generate
            else 0.0,
            "ms",
        ),
        "testbed.route_specs_us": (mean_s("testbed.route_specs") * 1e6, "us"),
    }
