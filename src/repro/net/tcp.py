"""Fluid model of a TCP sender's congestion control.

This models exactly the dynamics the paper blames for poor wide-area
throughput (Section 3):

* **Slow start** — the congestion window doubles once per RTT.  In fluid
  terms the window grows by one byte per acknowledged byte, i.e.
  ``d(cwnd)/dt = ack_rate``.
* **Congestion avoidance** — the window grows by one MSS per RTT:
  ``d(cwnd)/dt = ack_rate * MSS / cwnd``.
* **Loss response** — on a loss event, ``ssthresh = cwnd / 2`` and the
  window halves (NewReno-style fast recovery; we do not model timeouts
  separately, matching the fluid abstraction).
* **Window clamps** — the effective window is ``min(cwnd, rwnd)`` where
  ``rwnd`` is the flow-control window from socket buffers.

The loss *process* supports two modes:

* ``deterministic`` — one loss event every ``1/p`` packets.  This produces
  the textbook sawtooth whose mean matches the Mathis model, and makes the
  figure benchmarks exactly repeatable.
* ``random`` — Bernoulli per-packet drops from a seeded stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.util.rng import RngStream
from repro.util.validation import check_positive, check_probability

#: Conventional Ethernet-derived maximum segment size.
DEFAULT_MSS = 1460


@dataclass(frozen=True)
class TcpConfig:
    """Static parameters of a modelled TCP sender.

    Parameters
    ----------
    mss:
        Maximum segment size in bytes.
    initial_cwnd_segments:
        Initial congestion window (RFC 2581 allows 2 segments).
    initial_ssthresh:
        Initial slow-start threshold in bytes; ``None`` means "effectively
        infinite" (limited only by the flow-control window), which matches
        a fresh Linux 2.4 connection with large buffers.
    loss_mode:
        ``"deterministic"`` or ``"random"`` (see module docstring).
    """

    mss: int = DEFAULT_MSS
    initial_cwnd_segments: int = 2
    initial_ssthresh: int | None = None
    loss_mode: str = "deterministic"

    def __post_init__(self) -> None:
        check_positive("mss", self.mss)
        check_positive("initial_cwnd_segments", self.initial_cwnd_segments)
        if self.initial_ssthresh is not None:
            check_positive("initial_ssthresh", self.initial_ssthresh)
        if self.loss_mode not in ("deterministic", "random"):
            raise ValueError(f"loss_mode={self.loss_mode!r} not recognised")


#: The configuration used wherever none is passed.  ``TcpConfig`` is
#: frozen, so one shared instance spares the models a validated
#: construction per call.
DEFAULT_TCP_CONFIG = TcpConfig()


class TcpState:
    """Mutable congestion-control state of one connection.

    The state is advanced by the owning :class:`~repro.net.flow.FluidTcpFlow`
    via :meth:`on_ack` and :meth:`on_send`; it never touches time itself, so
    the same model serves any step size.

    Parameters
    ----------
    config:
        Static TCP parameters.
    loss_rate:
        Per-packet drop probability on this connection's path.
    rng:
        Stream used when ``config.loss_mode == "random"``.
    """

    def __init__(
        self,
        config: TcpConfig,
        loss_rate: float = 0.0,
        rng: RngStream | None = None,
    ) -> None:
        check_probability("loss_rate", loss_rate)
        self.config = config
        self.loss_rate = loss_rate
        self._rng = rng
        self.cwnd: float = float(config.mss * config.initial_cwnd_segments)
        self.ssthresh: float = (
            float(config.initial_ssthresh)
            if config.initial_ssthresh is not None
            else math.inf
        )
        self.loss_events: int = 0
        #: packets sent since the last deterministic loss event
        self._packets_since_loss: float = 0.0
        #: deterministic inter-loss spacing in packets (inf if lossless)
        self._loss_spacing = math.inf if loss_rate == 0.0 else 1.0 / loss_rate

    # -- queries -----------------------------------------------------------
    @property
    def in_slow_start(self) -> bool:
        """True while the window is below the slow-start threshold."""
        return self.cwnd < self.ssthresh

    def effective_window(self, rwnd: float) -> float:
        """``min(cwnd, rwnd)`` — the bytes the sender may have in flight."""
        return min(self.cwnd, rwnd)

    # -- transitions -------------------------------------------------------
    def on_ack(self, acked_bytes: float) -> None:
        """Grow the window for ``acked_bytes`` of newly acknowledged data."""
        if acked_bytes <= 0:
            return
        if self.in_slow_start:
            # one MSS per ACKed MSS: exponential, doubles per RTT
            self.cwnd += acked_bytes
            if self.cwnd >= self.ssthresh:
                self.cwnd = self.ssthresh
        else:
            # one MSS per window per RTT: linear (AIMD additive increase)
            self.cwnd += self.config.mss * acked_bytes / self.cwnd

    def on_send(self, sent_bytes: float) -> bool:
        """Account for sent data and sample the loss process.

        Returns ``True`` if a loss event fired (the multiplicative-decrease
        step has then already been applied).
        """
        if sent_bytes <= 0 or self.loss_rate == 0.0:
            return False
        packets = sent_bytes / self.config.mss
        if self.config.loss_mode == "deterministic":
            self._packets_since_loss += packets
            if self._packets_since_loss >= self._loss_spacing:
                self._packets_since_loss -= self._loss_spacing
                self._enter_recovery()
                return True
            return False
        # random mode: probability any of `packets` is dropped
        assert self._rng is not None, "random loss_mode requires an RngStream"
        p_any = 1.0 - (1.0 - self.loss_rate) ** packets
        if self._rng.random() < p_any:
            self._enter_recovery()
            return True
        return False

    def _enter_recovery(self) -> None:
        """NewReno multiplicative decrease: halve into congestion avoidance."""
        self.ssthresh = max(self.cwnd / 2.0, 2.0 * self.config.mss)
        self.cwnd = self.ssthresh
        self.loss_events += 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        phase = "SS" if self.in_slow_start else "CA"
        return (
            f"TcpState(cwnd={self.cwnd:.0f}, ssthresh={self.ssthresh:.0f}, "
            f"{phase}, losses={self.loss_events})"
        )
