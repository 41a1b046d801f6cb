"""Semi-analytic completion time for a single TCP transfer.

The paper's transfers (1–128 MB) finish after only a handful of loss
events, so the long-run Mathis average badly over-estimates their
duration; what matters is the *transient*: the slow-start ramp, the first
few AIMD sawteeth and the window/wire caps.  This module integrates the
same fluid dynamics as :mod:`repro.net` in closed form, phase by phase:

* **handshake** — one RTT;
* **slow start** — ``dw/dt = ack_rate``, i.e. exponential
  ``w(t) = w0 * 2**(t/RTT)`` while the rate is window-limited, linear
  window growth once the wire caps the rate;
* **congestion avoidance** — ``dw/dt = MSS/RTT`` while window-limited
  (bytes are a quadratic in time), constant rate once capped;
* **deterministic loss** — one event every ``MSS/p`` bytes, halving the
  window, matching :class:`repro.net.tcp.TcpState`'s deterministic mode;
* **tail** — half an RTT for the last byte to land.

Each phase boundary (loss byte-count, window reaching a cap, data
exhausted) is solved exactly, so the loop runs a few dozen iterations at
most — cheap enough for the 10^5-transfer campaigns of Section 4.2 while
agreeing with the fluid simulator within tolerance (cross-validated in
the test suite).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.models.mathis import mathis_rate
from repro.net.tcp import DEFAULT_TCP_CONFIG, TcpConfig
from repro.net.topology import PathSpec
from repro.util.validation import check_positive

_LN2 = math.log(2.0)


def steady_state_rate(path: PathSpec, config: TcpConfig | None = None) -> float:
    """Long-run throughput of one connection on ``path``, bytes/sec.

    The minimum of the flow-control ceiling ``window/RTT``, the wire
    bandwidth, and the Mathis loss ceiling.  Used for bottleneck
    *identification*; completion times use the transient integration in
    :func:`transfer_model`.
    """
    config = config or DEFAULT_TCP_CONFIG
    return min(
        path.window_limit / path.rtt,
        path.bandwidth,
        mathis_rate(config.mss, path.rtt, path.loss_rate),
    )


@dataclass(frozen=True)
class TransferModel:
    """Decomposed completion-time estimate for one transfer.

    Attributes
    ----------
    handshake:
        Connection-setup time (one RTT).
    ramp_time:
        Time spent in the exponential (slow-start, window-limited) phase.
    ramp_bytes:
        Bytes shipped during that phase.
    steady_time:
        All remaining sending time (AIMD recovery + capped phases).
    tail:
        Final one-way propagation of the last byte.
    rate:
        Long-run steady-state rate of the path (bytes/sec), for reference.
    loss_events:
        Deterministic loss events encountered during the transfer.
    """

    handshake: float
    ramp_time: float
    ramp_bytes: float
    steady_time: float
    tail: float
    rate: float
    loss_events: int = 0

    @property
    def total(self) -> float:
        """End-to-end completion time in seconds."""
        return self.handshake + self.ramp_time + self.steady_time + self.tail

    def transient_rate(self, size: int) -> float:
        """Average rate actually achieved by the ``size``-byte transfer
        modelled, counting only time after the handshake (the steady
        rate when that time is zero).  This is the right bottleneck
        metric for the transfer sizes the paper studies."""
        busy = self.ramp_time + self.steady_time
        if busy <= 0:
            return self.rate
        return size / busy


def transfer_model(
    path: PathSpec, size: int, config: TcpConfig | None = None
) -> TransferModel:
    """Integrate the fluid TCP dynamics in closed form for one transfer.

    Parameters
    ----------
    path:
        End-to-end path characteristics.
    size:
        Transfer size in bytes.
    config:
        TCP parameters (initial window, MSS, initial ssthresh).
    """
    check_positive("size", size)
    config = config or DEFAULT_TCP_CONFIG
    mss = float(config.mss)
    rtt = path.rtt
    cap = min(path.window_limit / rtt, path.bandwidth)  # max send rate
    w_cap = cap * rtt  # window sustaining the cap
    p = path.loss_rate
    spacing = math.inf if p == 0.0 else mss / p  # bytes between losses
    ssthresh = (
        float(config.initial_ssthresh)
        if config.initial_ssthresh is not None
        else math.inf
    )

    w = float(mss * config.initial_cwnd_segments)
    sent = 0.0
    ramp_time = 0.0
    ramp_bytes = 0.0
    steady_time = 0.0
    losses = 0
    next_loss = spacing
    slow_start = w < ssthresh

    guard = 0
    while sent < size - 1e-9:
        guard += 1
        if guard > 100_000:  # pragma: no cover - defensive
            raise RuntimeError("transfer_model failed to converge")
        budget = min(size, next_loss) - sent

        if slow_start and w < min(ssthresh, w_cap):
            # exponential phase: w(tau) = w * 2**(tau/rtt),
            # bytes(tau) = (w(tau) - w) / ln 2
            w_target = min(ssthresh, w_cap)
            bytes_to_target = (w_target - w) / _LN2
            if bytes_to_target >= budget:
                tau = rtt * math.log2(budget * _LN2 / w + 1.0)
                w *= 2.0 ** (tau / rtt)
                ramp_time += tau
                ramp_bytes += budget
                sent += budget
            else:
                tau = rtt * math.log2(w_target / w)
                ramp_time += tau
                ramp_bytes += bytes_to_target
                sent += bytes_to_target
                w = w_target
                if w >= ssthresh:
                    slow_start = False
        elif w < w_cap:
            # congestion avoidance, window-limited:
            # rate = w/rtt, dw/dt = mss/rtt
            # bytes(tau) = (w*tau + mss*tau^2/(2*rtt)) / rtt
            tau_to_cap = (w_cap - w) * rtt / mss
            bytes_to_cap = (w * tau_to_cap + mss * tau_to_cap**2 / (2 * rtt)) / rtt
            if bytes_to_cap >= budget:
                a = mss / (2.0 * rtt * rtt)
                b = w / rtt
                tau = (-b + math.sqrt(b * b + 4.0 * a * budget)) / (2.0 * a)
                w += mss * tau / rtt
                steady_time += tau
                sent += budget
            else:
                steady_time += tau_to_cap
                sent += bytes_to_cap
                w = w_cap
        else:
            # rate capped at `cap`; window keeps creeping up
            tau = budget / cap
            if slow_start:
                w = min(w + cap * tau, ssthresh)
                if w >= ssthresh:
                    slow_start = False
            else:
                w += mss * cap * tau / w
            steady_time += tau
            sent += budget

        if sent >= next_loss - 1e-9 and sent < size - 1e-9:
            # deterministic loss event: multiplicative decrease
            w = max(w / 2.0, 2.0 * mss)
            ssthresh = w
            slow_start = False
            losses += 1
            next_loss += spacing

    return TransferModel(
        handshake=rtt,
        ramp_time=ramp_time,
        ramp_bytes=ramp_bytes,
        steady_time=steady_time,
        tail=path.one_way_delay,
        rate=steady_state_rate(path, config),
        loss_events=losses,
    )


def transfer_time(
    path: PathSpec, size: int, config: TcpConfig | None = None
) -> float:
    """Completion time in seconds for ``size`` bytes on ``path``."""
    return transfer_model(path, size, config).total


def effective_bandwidth(
    path: PathSpec, size: int, config: TcpConfig | None = None
) -> float:
    """Observed bandwidth ``size / time`` in bytes/sec.

    This is the quantity the paper plots in Figures 2 and 3 — note it
    grows with ``size`` as the handshake and ramp amortise.
    """
    return size / transfer_time(path, size, config)
