"""Batched fluid-model transfers stepped as numpy array operations.

The scalar :class:`~repro.net.depot_sim.RelayPipeline` steps one flow at
a time in interpreted Python — fine for a handful of sublinks, far too
slow for campaigns with thousands of concurrent transfers.  This module
steps a whole *batch* of independent relay chains in lockstep.

Cells and stores
----------------
A relay chain is a pipeline of stores: the source, each depot buffer
and the sink.  Sublink ``k`` is a *cell* moving bytes from store ``k``
to store ``k + 1``.  For ``L`` chains whose longest has ``K`` sublinks
the engine keeps

* every cell's path constants and TCP state in flat arrays over the
  ``K * L`` cell axis (cell ``k * L + c`` is sublink ``k`` of chain
  ``c``), with one transit and one ack delay line per cell;
* every store in flat arrays over ``(K + 1) * L``: row 0 holds the
  sources, rows ``1 .. n - 1`` a chain's depots and row ``n`` its sink,
  whose capacity is ``inf``.

Cell ``i`` therefore reads its upstream store at ``i`` and its
downstream store at ``i + L``, and sources, depots and sinks need no
case of their own.  One step runs three phases over every live cell at
once: deliveries, then acknowledgements, then sends (every amount is
computed from the pre-send state, then all are committed).

Exactness
---------
The engine is not an approximation: each chain sees exactly the IEEE-754
double operations of the scalar model, in the same order.  Chains are
independent, so only the order within one chain matters, where the
scalar model runs sublink ``k``'s deliver, ack and send before sublink
``k + 1``'s.  Cell ``k``'s send reads store ``k``'s occupancy and store
``k + 1``'s occupancy and reservation; it writes store ``k``'s occupancy
and store ``k + 1``'s reservation.  Cell ``k + 1``'s deliveries and acks
touch only store ``k + 2`` and its own window, and its send writes store
``k + 1``'s occupancy only after cell ``k`` has read it.  So hoisting all
deliveries and acks ahead of all sends, and computing every send before
committing any, hands each operation the operands the scalar order
does; nothing is added or regrouped.
``tests/net/test_vectorized_equivalence.py`` pins the two paths to
*exact* equality — durations, traces, depot peaks, retransmission
accounting and per-(node, stream) timeline sequences — over seeded
random topologies, fault plans and binding depot capacities, and
``tests/net/test_batch_golden.py`` pins the results themselves.  The
scalar path remains the conformance oracle; this path is the speed.

Restrictions: the batch engine supports ``loss_mode="deterministic"``
only (the repeatable sawtooth used by every figure benchmark).  Random
per-packet loss draws one RNG stream per flow and stays on the scalar
path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.net.depot_sim import default_depot_capacity
from repro.net.tcp import TcpConfig
from repro.net.topology import PathSpec
from repro.net.trace import SeqTrace
from repro.util.validation import check_positive

__all__ = ["BatchSpec", "VectorizedBatch"]


@dataclass(frozen=True)
class BatchSpec:
    """One transfer in a batch run.

    Mirrors the arguments of
    :meth:`~repro.net.simulator.NetworkSimulator.run_relay` /
    :meth:`~repro.net.simulator.NetworkSimulator.run_relay_with_faults`:
    ``paths`` (one :class:`PathSpec` per sublink), ``size`` in bytes,
    optional injected ``faults`` with their ``retry`` policy and
    ``resume`` mode, optional per-depot ``depot_capacities`` and
    per-sublink TCP ``configs``.  Give every faulted spec its own
    ``retry`` policy instance: a policy with jittered backoff draws
    from internal state, and sharing one across specs would make the
    delay sequence depend on scheduling order.
    """

    paths: tuple[PathSpec, ...]
    size: int
    faults: tuple = ()
    retry: object | None = None
    resume: bool = True
    depot_capacities: tuple[int, ...] | None = None
    configs: tuple[TcpConfig, ...] | None = None

    def __post_init__(self) -> None:
        if not self.paths:
            raise ValueError("at least one path is required")
        check_positive("size", self.size)
        if self.configs is not None and len(self.configs) != len(self.paths):
            raise ValueError(
                f"{len(self.paths)} paths need {len(self.paths)} configs, "
                f"got {len(self.configs)}"
            )
        if not self.resume and len(self.paths) > 1:
            raise ValueError(
                "restart-from-source recovery models a plain direct "
                "connection; relays recover with resume=True"
            )
        for fault in self.faults:
            if not (0 <= fault.sublink < len(self.paths)):
                raise ValueError(
                    f"fault targets sublink {fault.sublink} of "
                    f"{len(self.paths)} paths"
                )


class _Ring:
    """One FIFO delay line per cell, as circular ``(cells, cap)`` arrays.

    Models the scalar flow's ``_transit``/``_acks`` deques for every cell
    at once, stored flat: cell ``i``'s column ``j`` sits at
    ``i * cap + j``.  A cell is empty when its head meets its tail, so
    the ring grows before any cell could fill it.
    """

    def __init__(self, cells: int, cap: int) -> None:
        self.cap = max(4, cap)
        self.t = np.zeros(cells * self.cap)
        self.n = np.zeros(cells * self.cap)
        self.head = np.zeros(cells, dtype=np.int64)
        self.tail = np.zeros(cells, dtype=np.int64)
        #: cheap upper bound on the longest line so pushes skip the scan
        self._hiwater = 0

    def _grow(self) -> None:
        cells, cap = self.head.size, self.cap
        # re-linearise each line so its head moves to column 0
        src = (
            np.arange(cells)[:, None] * cap
            + (self.head[:, None] + np.arange(cap)[None, :]) % cap
        )
        t = np.zeros((cells, 2 * cap))
        n = np.zeros((cells, 2 * cap))
        t[:, :cap] = self.t[src]
        n[:, :cap] = self.n[src]
        self.tail = (self.tail - self.head) % cap
        self.head[:] = 0
        self.t, self.n, self.cap = t.reshape(-1), n.reshape(-1), 2 * cap

    def push(self, idx: np.ndarray, times: np.ndarray, amounts: np.ndarray) -> None:
        if self._hiwater + 2 > self.cap:
            self._hiwater = int(((self.tail - self.head) % self.cap).max())
            if self._hiwater + 2 > self.cap:
                self._grow()
        tail = self.tail[idx]
        at = idx * self.cap + tail
        self.t[at] = times
        self.n[at] = amounts
        self.tail[idx] = (tail + 1) % self.cap
        self._hiwater += 1

    def due(self, cells: np.ndarray, now: np.ndarray):
        """Pop, in rounds, every head of ``cells`` due by ``now[cell]``.

        Yields ``(cells, times, amounts)`` per round — the vector analogue
        of ``while queue and queue[0][0] <= now`` — so each cell's chunk
        order, and with it its float accumulation order, is the scalar
        one.  The consumer may push to other rings between rounds.
        """
        head, tail, cap = self.head, self.tail, self.cap
        cand = cells[head[cells] != tail[cells]]
        while cand.size:
            h = head[cand]
            at = cand * cap + h
            t = self.t[at]
            due = t <= now[cand]
            n_due = np.count_nonzero(due)
            if n_due < due.size:
                if not n_due:
                    return
                cand, h, at, t = cand[due], h[due], at[due], t[due]
            h = (h + 1) % cap
            head[cand] = h
            yield cand, t, self.n[at]
            cand = cand[h != tail[cand]]

    # -- single-cell helpers (inject/drain paths, called rarely) -----------
    def values(self, i: int) -> list[tuple[float, float]]:
        h, cap = int(self.head[i]), self.cap
        return [
            (float(self.t[i * cap + j % cap]), float(self.n[i * cap + j % cap]))
            for j in range(h, h + (int(self.tail[i]) - h) % cap)
        ]

    def pop_head(self, i: int) -> tuple[float, float]:
        at = i * self.cap + int(self.head[i])
        self.head[i] = (self.head[i] + 1) % self.cap
        return float(self.t[at]), float(self.n[at])

    def head_time(self, i: int) -> float | None:
        """The head chunk's time, or ``None`` when the line is empty."""
        if self.head[i] == self.tail[i]:
            return None
        return float(self.t[i * self.cap + int(self.head[i])])

    def clear(self, i: int) -> None:
        self.head[i] = self.tail[i]


class _LaneFlowView:
    """Read-only flow facade over one (chain, sublink) cell.

    Exposes exactly what :class:`~repro.net.simulator._TimelineEmitter`
    and :meth:`SeqTrace.from_flow` read from a scalar
    :class:`~repro.net.flow.FluidTcpFlow`.
    """

    __slots__ = ("_batch", "_c", "_k", "_i", "path")

    def __init__(self, batch: "VectorizedBatch", c: int, k: int) -> None:
        self._batch, self._c, self._k = batch, c, k
        self._i = batch.cell(c, k)
        self.path = batch.chain_paths[c][k]

    @property
    def start_time(self) -> float:
        return float(self._batch.start_time[self._i])

    @property
    def delivered(self) -> float:
        return float(self._batch.delivered[self._i])

    @property
    def acked(self) -> float:
        return float(self._batch.acked[self._i])

    @property
    def trace_times(self) -> list[float]:
        return self._batch.trace_t[self._c][self._k]

    @property
    def trace_acked(self) -> list[float]:
        return self._batch.trace_a[self._c][self._k]


class _LanePipelineView:
    """Pipeline facade for one chain (what the timeline emitter sees)."""

    __slots__ = ("flows", "size")

    def __init__(self, batch: "VectorizedBatch", c: int) -> None:
        self.flows = [
            _LaneFlowView(batch, c, k)
            for k in range(len(batch.chain_paths[c]))
        ]
        self.size = int(batch.sizes[c])


class VectorizedBatch:
    """Lockstep batch of independent relay chains on numpy state.

    Parameters
    ----------
    specs:
        One :class:`BatchSpec` per transfer.
    config:
        Shared TCP parameters (per-spec ``configs`` override).
    dts:
        Per-chain step size (the scalar path's ``choose_dt`` result).
    record_trace:
        Record per-step ``(now, acked)`` per flow (python lists — meant
        for conformance tests, not throughput runs).
    max_time:
        Per-chain simulated-time budget; exceeding it raises, exactly
        like the scalar runners.
    """

    def __init__(
        self,
        specs: list[BatchSpec],
        config: TcpConfig,
        dts: list[float],
        record_trace: bool = False,
        max_time: float = 3600.0,
        record: list[bool] | None = None,
    ) -> None:
        if len(dts) != len(specs):
            raise ValueError("one dt per spec required")
        if record is None:
            record = [record_trace] * len(specs)
        if len(record) != len(specs):
            raise ValueError("one record flag per spec required")
        self.record = np.asarray(record, dtype=bool)
        self.any_record = bool(self.record.any())
        self.max_time = float(max_time)
        lanes = len(specs)
        self.lanes = lanes
        self.chain_paths: list[tuple[PathSpec, ...]] = [s.paths for s in specs]
        self.n_sublinks = np.array([len(s.paths) for s in specs], dtype=np.int64)
        max_k = int(self.n_sublinks.max()) if lanes else 0

        self.sizes = np.array([float(s.size) for s in specs])
        self.dt = np.array([float(d) for d in dts])
        self.prev_now = np.zeros(lanes)
        self.steps = 0
        self.alive = np.ones(lanes, dtype=bool)
        self.durations = np.zeros(lanes)

        cells = max_k * lanes
        z = lambda: np.zeros(cells)  # noqa: E731 - terse array factory
        # cell constants: path, TCP, and the per-step wire budget
        self.owd, self.rtt, self.wlim, self.wire = z(), z(), z(), z()
        self.mss, self.mss2, self.init_cwnd = z(), z(), z()
        self.init_ssthresh = np.full(cells, math.inf)
        self.loss_spacing = np.full(cells, math.inf)
        # cell dynamics
        self.start_time, self.data_start = z(), z()
        self.sent, self.delivered, self.acked = z(), z(), z()
        self.retransmitted = z()
        self.cwnd, self.ssthresh = z(), np.full(cells, math.inf)
        self.pkts_since_loss, self.losses = z(), z()
        #: the lane clocks, repeated on every sublink row
        self.clock = z()
        self.now = self.clock[:lanes]
        self._tick = np.tile(self.dt, max_k)

        # stores: sources, then depots, each chain's sink at row n
        stores = (max_k + 1) * lanes
        self.store_cap = np.zeros(stores)
        self.store_occ = np.zeros(stores)
        self.store_res = np.zeros(stores)
        self.store_peak = np.zeros(stores)
        self._sink = self.n_sublinks * lanes + np.arange(lanes)
        self.store_occ[:lanes] = self.sizes
        self.store_cap[self._sink] = math.inf
        #: the completion level of each sink (half-byte tolerance); inf
        #: elsewhere, so only sinks ever complete
        self._done_at = np.full(stores, math.inf)
        self._done_at[self._sink] = self.sizes - 0.5
        #: (lane, depot) view of the depot capacities
        self.depot_capacity = self.store_cap.reshape(max_k + 1, lanes)[
            1:max_k
        ].T

        self.trace_t: list[list[list[float]]] = [
            [[] for _ in s.paths] for s in specs
        ]
        self.trace_a: list[list[list[float]]] = [
            [[] for _ in s.paths] for s in specs
        ]

        for c, spec in enumerate(specs):
            n_depots = len(spec.paths) - 1
            caps = spec.depot_capacities
            if caps is None:
                caps = [
                    default_depot_capacity(spec.paths[i], spec.paths[i + 1])
                    for i in range(n_depots)
                ]
            if len(caps) != n_depots:
                raise ValueError(
                    f"{len(spec.paths)} paths need {n_depots} depot "
                    f"capacities, got {len(caps)}"
                )
            for d, cap in enumerate(caps):
                check_positive("capacity", cap)
                self.store_cap[(d + 1) * lanes + c] = float(cap)
            start = 0.0
            for k, path in enumerate(spec.paths):
                cfg = spec.configs[k] if spec.configs is not None else config
                if cfg.loss_mode != "deterministic":
                    raise ValueError(
                        "the vectorized batch supports "
                        "loss_mode='deterministic' only; random loss "
                        "stays on the scalar path"
                    )
                i = k * lanes + c
                self.owd[i] = path.one_way_delay
                self.rtt[i] = path.rtt
                self.wlim[i] = path.window_limit
                self.wire[i] = path.bandwidth * self.dt[c]
                self.mss[i] = cfg.mss
                self.mss2[i] = 2.0 * cfg.mss
                self.init_cwnd[i] = float(cfg.mss * cfg.initial_cwnd_segments)
                if cfg.initial_ssthresh is not None:
                    self.init_ssthresh[i] = float(cfg.initial_ssthresh)
                if path.loss_rate != 0.0:
                    self.loss_spacing[i] = 1.0 / path.loss_rate
                self.start_time[i] = start
                self.data_start[i] = start + path.rtt
                self.cwnd[i] = self.init_cwnd[i]
                self.ssthresh[i] = self.init_ssthresh[i]
                if k < len(spec.paths) - 1:
                    start += path.rtt + path.one_way_delay

        #: member cells of the live chains, k-major (the stepping set)
        self.cells = np.flatnonzero(
            (np.arange(max_k)[:, None] < self.n_sublinks[None, :]).ravel()
        )
        self._record_cell = np.tile(self.record, max_k)
        # delay lines: one chunk per step, alive for one one-way delay
        depth = 0
        if self.cells.size:
            depth = int(
                np.ceil(self.owd[self.cells] / self._tick[self.cells]).max()
            )
        self.transit = _Ring(cells, depth + 8)
        self.acks = _Ring(cells, depth + 8)
        #: every live cell is past its handshake (faults reset this)
        self._all_started = False

        # fault bookkeeping (scalar run_relay_with_faults mirror)
        self.fault_remaining: dict[int, list[int]] = {}
        self.fault_retries_per_sublink: dict[int, dict[int, int]] = {}
        self.fault_retries: dict[int, int] = {}
        for c, spec in enumerate(specs):
            if spec.faults:
                self.fault_remaining[c] = [f.times for f in spec.faults]
                self.fault_retries_per_sublink[c] = {}
                self.fault_retries[c] = 0

    # -- per-chain views ---------------------------------------------------
    def pipeline_view(self, c: int) -> _LanePipelineView:
        """The flow/pipeline facade the timeline emitter observes."""
        return _LanePipelineView(self, c)

    def cell(self, c: int, k: int) -> int:
        """Flat index of sublink ``k`` of chain ``c`` on the cell axis."""
        return k * self.lanes + c

    def received(self, c: int) -> float:
        """Bytes chain ``c``'s sink holds."""
        return float(self.store_occ[self._sink[c]])

    # -- stepping ----------------------------------------------------------
    def step_all(self) -> list[int]:
        """Advance every live cell by one step; return lanes to check.

        The returned lanes (ascending) are those whose sink reached its
        completion level during this step — the only lanes that can
        have completed.  Dead lanes' clocks advance too (their state is
        never read again); restricting the update costs more than it
        saves.
        """
        np.copyto(self.prev_now, self.now)
        self.clock += self._tick
        self.steps += 1
        if np.maximum.reduce(self.now) > self.max_time:
            over = np.flatnonzero(self.alive & (self.now > self.max_time))
            if over.size:
                c = int(over[0])
                raise RuntimeError(
                    f"transfer of {int(self.sizes[c])} bytes (batch lane "
                    f"{c}) did not complete within {self.max_time}s "
                    f"simulated ({self.received(c):.0f} delivered)"
                )
        cells, lanes, now = self.cells, self.lanes, self.clock
        occ, res = self.store_occ, self.store_res
        cwnd, ssthresh = self.cwnd, self.ssthresh
        reached = []
        # 1. deliveries into each cell's downstream store (ACK clocking:
        # before sends)
        for idx, t, n in self.transit.due(cells, now):
            self.delivered[idx] += n
            down = idx + lanes
            res[down] = np.maximum(0.0, res[down] - n)
            level = occ[down] + n
            occ[down] = level
            self.store_peak[down] = np.maximum(self.store_peak[down], level)
            done = level >= self._done_at[down]
            if np.count_nonzero(done):
                reached.extend((idx[done] % lanes).tolist())
            self.acks.push(idx, t + self.owd[idx], n)
        # 2. acknowledgements: slow start grows by the acked bytes up to
        # ssthresh, congestion avoidance by one MSS per window
        for idx, _, n in self.acks.due(cells, now):
            self.acked[idx] += n
            cw, st = cwnd[idx], ssthresh[idx]
            cwnd[idx] = np.where(
                cw < st, np.minimum(cw + n, st), cw + self.mss[idx] * n / cw
            )
        # 3. sends, every amount from the pre-send stores
        si = cells
        if not self._all_started:
            started = now[cells] >= self.data_start[cells]
            if np.count_nonzero(started) == started.size:
                # faults reset data_start; until one does this latches
                self._all_started = True
            else:
                si = cells[started]
        if si.size:
            down = si + lanes
            window = np.minimum(cwnd[si], self.wlim[si])
            can_window = np.maximum(
                0.0, window - (self.sent[si] - self.acked[si])
            )
            free = np.maximum(
                0.0, self.store_cap[down] - occ[down] - res[down]
            )
            avail = occ[si]
            amount = np.minimum(
                np.minimum(np.minimum(avail, can_window), self.wire[si]), free
            )
            # 4. commit
            pos = amount > 0.0
            if np.count_nonzero(pos) < pos.size:
                si, down = si[pos], down[pos]
                avail, amount = avail[pos], amount[pos]
            if si.size:
                occ[si] = np.maximum(0.0, avail - amount)
                res[down] += amount
                self.sent[si] += amount
                self.transit.push(si, now[si] + self.owd[si], amount)
                # deterministic sawtooth: at most one loss event per send
                # (lossless cells count packets against an inf spacing)
                pkts = self.pkts_since_loss[si] + amount / self.mss[si]
                fire = pkts >= self.loss_spacing[si]
                if np.count_nonzero(fire):
                    fi = si[fire]
                    pkts[fire] -= self.loss_spacing[fi]
                    ssthresh[fi] = np.maximum(cwnd[fi] / 2.0, self.mss2[fi])
                    cwnd[fi] = ssthresh[fi]
                    self.losses[fi] += 1.0
                self.pkts_since_loss[si] = pkts
        # 5. traces (conformance runs only)
        if self.any_record:
            for i in cells[self._record_cell[cells]].tolist():
                k, c = divmod(i, lanes)
                self.trace_t[c][k].append(float(now[i]))
                self.trace_a[c][k].append(float(self.acked[i]))
        return sorted(set(reached))

    def complete(self, c: int) -> bool:
        """Chain ``c`` is live and its last byte reached the sink."""
        sink = self._sink[c]
        return bool(self.alive[c]) and self.store_occ[sink] >= self._done_at[sink]

    def retire(self, c: int) -> None:
        """Stop stepping chain ``c`` (completed or abandoned)."""
        self.alive[c] = False
        self.cells = self.cells[self.cells % self.lanes != c]

    # -- failure injection (scalar FluidTcpFlow.inject_failure mirror) -----
    def inject_failure(
        self, c: int, k: int, now: float, restart_delay: float, resume: bool
    ) -> float:
        """Fail sublink ``k`` of chain ``c``; returns bytes to resend.

        Mirrors the scalar ``FluidTcpFlow.inject_failure`` float for
        float: in-flight data is dropped, the sender rewinds to the
        delivered (resume) or zero (restart) point, and congestion
        state is reset as if the TCP connection were replaced.
        """
        up = i = self.cell(c, k)
        down = i + self.lanes
        occ = self.store_occ
        in_flight_data = 0.0
        for _, n in self.transit.values(i):
            in_flight_data = in_flight_data + n
        self.store_res[down] = max(0.0, self.store_res[down] - in_flight_data)
        self.transit.clear(i)
        self.acks.clear(i)
        if resume:
            lost = float(self.sent[i] - self.delivered[i])
            if k == 0:
                occ[up] = min(float(self.sizes[c]), occ[up] + lost)
            else:
                occ[up] += lost
                self.store_peak[up] = max(self.store_peak[up], occ[up])
            self.sent[i] = self.delivered[i]
            self.acked[i] = self.delivered[i]
            retransmit = lost
        else:
            retransmit = float(self.sent[i])
            occ[down] = max(0.0, occ[down] - self.delivered[i])
            occ[up] = min(float(self.sizes[c]), occ[up] + self.sent[i])
            self.sent[i] = self.delivered[i] = self.acked[i] = 0.0
        # fresh congestion state, exactly like replacing the TcpState
        self.cwnd[i] = self.init_cwnd[i]
        self.ssthresh[i] = self.init_ssthresh[i]
        self.pkts_since_loss[i] = 0.0
        self.losses[i] = 0.0
        self.start_time[i] = now + restart_delay
        self.data_start[i] = self.start_time[i] + self.rtt[i]
        self.retransmitted[i] += retransmit
        self._all_started = False
        return retransmit

    # -- completion --------------------------------------------------------
    def refine_completion_time(self, c: int) -> float:
        """Scalar ``RelayPipeline._refine_completion_time`` per lane."""
        now = float(self.now[c])
        if self.record[c] and self.steps >= 2:
            t0 = float(self.prev_now[c])
            received = self.store_occ[self._sink[c]]
            excess = received - self.sizes[c]
            if excess > 0 and now > t0:
                rate = received / max(now, float(self.dt[c]))
                if rate > 0:
                    return float(max(t0, now - excess / rate))
        return now

    def drain_chain(self, c: int) -> None:
        """Flush trailing data/acks for chain ``c`` (per-flow ``drain``)."""
        now = float(self.now[c])
        occ, transit, acks = self.store_occ, self.transit, self.acks
        for k in range(int(self.n_sublinks[c])):
            i = self.cell(c, k)
            down = i + self.lanes
            until = now + float(self.rtt[i])
            while (head := transit.head_time(i)) is not None and head <= until:
                arrival, n = transit.pop_head(i)
                self.delivered[i] += n
                self.store_res[down] = max(0.0, self.store_res[down] - n)
                occ[down] += n
                self.store_peak[down] = max(self.store_peak[down], occ[down])
                acks.push(
                    np.array([i]),
                    np.array([arrival + float(self.owd[i])]),
                    np.array([n]),
                )
            while (head := acks.head_time(i)) is not None and head <= until:
                _, n = acks.pop_head(i)
                self.acked[i] += n
                if self.cwnd[i] < self.ssthresh[i]:
                    self.cwnd[i] += n
                    if self.cwnd[i] >= self.ssthresh[i]:
                        self.cwnd[i] = self.ssthresh[i]
                else:
                    self.cwnd[i] += self.mss[i] * n / self.cwnd[i]
            if self.record[c]:
                self.trace_t[c][k].append(until)
                self.trace_a[c][k].append(float(self.acked[i]))

    # -- results -----------------------------------------------------------
    def _cells_of(self, c: int) -> range:
        return range(c, int(self.n_sublinks[c]) * self.lanes, self.lanes)

    def traces(self, c: int) -> list[SeqTrace]:
        """Per-sublink ack sequence traces for chain ``c``."""
        return [
            SeqTrace(
                times=np.asarray(self.trace_t[c][k], dtype=float),
                acked=np.asarray(self.trace_a[c][k], dtype=float),
                name=self.chain_paths[c][k].name,
            )
            for k in range(int(self.n_sublinks[c]))
        ]

    def total_loss_events(self, c: int) -> int:
        """Loss events summed over chain ``c``'s sublinks."""
        return int(sum(self.losses[i] for i in self._cells_of(c)))

    def depot_peaks(self, c: int) -> list[float]:
        """Peak depot occupancy per intermediate hop of chain ``c``."""
        return [float(self.store_peak[i]) for i in self._cells_of(c)][1:]

    def per_sublink_retransmitted(self, c: int) -> list[float]:
        """Bytes each sublink of chain ``c`` sent more than once."""
        return [float(self.retransmitted[i]) for i in self._cells_of(c)]

    def max_rtt(self, c: int) -> float:
        """Largest sublink RTT of chain ``c`` (drain horizon)."""
        return max(p.rtt for p in self.chain_paths[c])
