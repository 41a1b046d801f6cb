"""Semi-analytic completion time for TCP connections in series.

Section 4 of the paper: "Once the pipeline startup overhead is amortized,
the end to end performance is dominated by the performance of the slowest
link."  The model here makes that statement quantitative:

* LSL sessions are created dynamically — the session header travels with
  the first data, so sublink ``i+1``'s handshake *starts* when the first
  bytes reach depot ``i`` (serial connection setup, no persistent
  tunnels);
* every sublink ramps concurrently once it has data; the pipeline is
  fully ramped when the *latest* hop finishes its ramp;
* thereafter bytes drain at the bottleneck sublink's transient rate;
* the last byte still has to propagate across the hops downstream of the
  bottleneck.

Depot buffers do not appear in the completion time: a bounded buffer
changes *when the source may send* (the Figure-5 kink) but not the
bottleneck-dominated finish, provided each buffer holds at least a
bandwidth-delay product — which the paper's 32 MB budget comfortably
does.  (:func:`pipeline_fill_time` exposes the kink location for the
trace-level analyses.)
"""

from __future__ import annotations

import math
from dataclasses import replace

from repro.models.transfer_time import (
    steady_state_rate,
    transfer_model,
)
from repro.net.tcp import DEFAULT_TCP_CONFIG, TcpConfig
from repro.net.topology import PathSpec
from repro.util.validation import check_positive


def relay_start_times(paths: list[PathSpec]) -> list[float]:
    """When each sublink's handshake begins.

    The source opens sublink 0 at ``t = 0``; depot ``i`` opens sublink
    ``i+1`` when the session header (travelling with the first data)
    arrives: one handshake RTT plus one one-way delay after sublink ``i``
    itself started.
    """
    starts = [0.0]
    for path in paths[:-1]:
        starts.append(starts[-1] + path.rtt + path.one_way_delay)
    return starts


def relay_transfer_time(
    paths: list[PathSpec], size: int, config: TcpConfig | None = None
) -> float:
    """Completion time in seconds for a pipelined relay over ``paths``.

    A single-element list degenerates to the direct-connection model.
    """
    if not paths:
        raise ValueError("at least one path is required")
    check_positive("size", size)
    config = config or DEFAULT_TCP_CONFIG
    if len(paths) == 1:
        return transfer_model(paths[0], size, config).total

    models = [transfer_model(p, size, config) for p in paths]
    starts = relay_start_times(paths)

    # bottleneck = slowest transient sender for this size
    rates = [m.transient_rate(size) for m in models]
    bottleneck_idx = min(range(len(paths)), key=lambda i: rates[i])
    bn = models[bottleneck_idx]

    # the pipeline is ramped when the last hop finishes its exponential
    # phase (each hop ramps as soon as it has data)
    ramp_done = max(
        start + m.handshake + m.ramp_time for start, m in zip(starts, models)
    )

    # remaining bytes drain at the bottleneck's post-ramp pace
    completion = ramp_done + bn.steady_time

    # the final byte crosses every hop at-or-after the bottleneck
    tail = sum(p.one_way_delay for p in paths[bottleneck_idx:])
    return completion + tail


def stripe_share(path: PathSpec, stripes: int) -> PathSpec:
    """The slice of a hop one of ``stripes`` parallel sublinks sees.

    GridFTP-style striping opens N TCP connections over the same
    physical hop: each gets an equal share of the raw bandwidth and of
    the socket buffers (so the per-flow window limit splits too), while
    the propagation delay and loss process are properties of the path
    itself and stay whole.  Crucially the *loss-limited* rate of one
    Reno flow (``mss/rtt * C/sqrt(p)``) does not split — that is the
    aggregation win parallel streams are used for.
    """
    check_positive("stripes", stripes)
    if stripes == 1:
        return path
    return replace(
        path,
        bandwidth=path.bandwidth / stripes,
        send_buffer=max(1, path.send_buffer // stripes),
        recv_buffer=max(1, path.recv_buffer // stripes),
    )


def striped_relay_transfer_time(
    paths: list[PathSpec],
    size: int,
    stripes: int,
    config: TcpConfig | None = None,
) -> float:
    """Completion time of a relay whose every hop runs N striped sublinks.

    Each stripe carries an interleaved ``1/N`` slice of the payload over
    its own TCP connection.  The sender performs the per-stripe resume
    handshakes serially (one blocking header+ack round trip each, as the
    socket transport does), so stripe ``k`` starts ``k`` first-hop RTTs
    late; the session completes when the *last* stripe's slice drains.
    The crossover this prices: small transfers pay the serialized
    handshakes without amortizing them, large transfers on lossy paths
    gain up to N times the loss-limited per-flow rate.
    """
    check_positive("stripes", stripes)
    if stripes == 1:
        return relay_transfer_time(paths, size, config)
    if not paths:
        raise ValueError("at least one path is required")
    check_positive("size", size)
    per_stripe = [stripe_share(p, stripes) for p in paths]
    slice_size = max(1, math.ceil(size / stripes))
    setup = (stripes - 1) * paths[0].rtt
    return setup + relay_transfer_time(per_stripe, slice_size, config)


def striped_crossover_size(
    paths: list[PathSpec],
    stripes: int,
    config: TcpConfig | None = None,
    lo: int = 1 << 10,
    hi: int = 1 << 32,
) -> float:
    """Smallest size (bytes) at which ``stripes`` sublinks beat one.

    Bisects the transfer size between ``lo`` and ``hi``; returns
    ``math.inf`` when striping never wins in that range (e.g. a
    loss-free, bandwidth-limited path) and ``float(lo)`` when it always
    does.
    """
    check_positive("stripes", stripes)

    def striped_wins(size: int) -> bool:
        return striped_relay_transfer_time(
            paths, size, stripes, config
        ) < relay_transfer_time(paths, size, config)

    if striped_wins(lo):
        return float(lo)
    if not striped_wins(hi):
        return math.inf
    lo_b, hi_b = lo, hi
    while hi_b - lo_b > max(1, lo_b // 256):
        mid = (lo_b + hi_b) // 2
        if striped_wins(mid):
            hi_b = mid
        else:
            lo_b = mid
    return float(hi_b)


def relay_effective_bandwidth(
    paths: list[PathSpec], size: int, config: TcpConfig | None = None
) -> float:
    """Observed end-to-end bandwidth ``size / time`` in bytes/sec."""
    return size / relay_transfer_time(paths, size, config)


def pipeline_fill_time(
    upstream: PathSpec,
    downstream: PathSpec,
    depot_capacity: int,
    config: TcpConfig | None = None,
) -> tuple[float, float]:
    """When (and at what byte count) a depot buffer fills.

    For the Figure-5 configuration — upstream faster than downstream —
    returns ``(t_fill, bytes_sent_at_fill)``: the moment the upstream
    sender stalls on depot space and its acked-sequence slope collapses
    to the downstream rate.  If the upstream is not faster, the buffer
    never fills and ``(inf, inf)`` is returned.

    The byte count is the quantity visible in the paper's Figure 5: "the
    slope changes ... at the 32 MByte mark ... the depot offers 32 Mbytes
    of total buffers."
    """
    check_positive("depot_capacity", depot_capacity)
    config = config or DEFAULT_TCP_CONFIG
    r_up = steady_state_rate(upstream, config)
    r_down = steady_state_rate(downstream, config)
    if r_up <= r_down:
        return math.inf, math.inf
    # buffer grows at (r_up - r_down) once both are in steady state
    t_fill = depot_capacity / (r_up - r_down)
    bytes_at_fill = depot_capacity + r_down * t_fill  # occupancy + drained
    return t_fill, bytes_at_fill
