"""The fully-connected performance matrix and its clique aggregation.

The scheduler's input is "a graph with node to node data transfer time as
the cost of an edge ... fully connected, as most Internet hosts can talk
to most other Internet hosts" (Section 4).  Edge cost is ``1/bandwidth``:
an order-preserving transfer-time-per-byte weight.

Probing every host pair is quadratic and wasteful when "all hosts at a
single site are connected similarly to all hosts at some other site", so
— following the paper's reference [34] — :class:`CliqueAggregator` groups
hosts into site cliques, maintains one NWS forecast stream per site pair
(plus per-host-pair streams inside a site), and expands the site-level
forecasts back into the full host-level matrix.

The streams are independent, so they share one
:class:`~repro.nws.bank.ForecastBank`.  Probes are validated when they
are observed and queued per stream; the first query afterwards flushes
the queue through the bank in rounds (round *k* feeds every stream its
*k*-th queued probe), and :meth:`CliqueAggregator.build_matrix`
forecasts once per stream and fills the host pairs from site-index
arrays.
"""

from __future__ import annotations

import math

import numpy as np

from repro.nws.bank import ForecastBank
from repro.util.validation import ValidationError, check_positive


class PerformanceMatrix:
    """Forecast bandwidth between every ordered pair of hosts.

    Values are bytes/sec; missing entries are ``nan``.  The scheduler
    consumes :meth:`cost` (= ``1/bandwidth``) as edge weights.
    """

    def __init__(self, hosts: list[str]) -> None:
        if len(hosts) != len(set(hosts)):
            raise ValueError("duplicate host names")
        if not hosts:
            raise ValueError("at least one host required")
        self.hosts = list(hosts)
        self._index = {h: i for i, h in enumerate(self.hosts)}
        n = len(hosts)
        self._bw = np.full((n, n), np.nan)
        np.fill_diagonal(self._bw, np.inf)  # a host reaches itself freely

    # -- construction ------------------------------------------------------
    def set_bandwidth(self, src: str, dst: str, value: float) -> None:
        """Record forecast bandwidth (bytes/sec) for the directed pair."""
        check_positive("value", value)
        if src == dst:
            raise ValueError("diagonal entries are fixed")
        self._bw[self._index[src], self._index[dst]] = value

    def set_symmetric(self, a: str, b: str, value: float) -> None:
        """Record the same bandwidth in both directions."""
        self.set_bandwidth(a, b, value)
        self.set_bandwidth(b, a, value)

    # -- queries -----------------------------------------------------------
    def __contains__(self, host: str) -> bool:
        return host in self._index

    def bandwidth(self, src: str, dst: str) -> float:
        """Forecast bandwidth in bytes/sec (``nan`` if unknown)."""
        return float(self._bw[self._index[src], self._index[dst]])

    def cost(self, src: str, dst: str) -> float:
        """Edge weight: ``1/bandwidth`` (seconds per byte).

        The paper: "our approach is simply to convert measures of
        bandwidth between hosts to transfer time estimates by considering
        1/bandwidth as the weight of an edge."
        """
        bw = self.bandwidth(src, dst)
        if math.isnan(bw):
            return math.inf
        return 1.0 / bw if bw > 0 else math.inf

    def cost_matrix(self) -> np.ndarray:
        """Dense cost array aligned with :attr:`hosts` order."""
        with np.errstate(divide="ignore"):
            cost = 1.0 / self._bw
        cost[np.isnan(self._bw)] = np.inf
        return cost

    def bandwidth_matrix(self) -> np.ndarray:
        """Copy of the dense bandwidth array."""
        return self._bw.copy()

    def is_complete(self) -> bool:
        """True when every off-diagonal entry has a forecast."""
        off_diag = ~np.eye(len(self.hosts), dtype=bool)
        return bool(np.all(np.isfinite(self._bw[off_diag])))

    def pairs(self):
        """Yield every ordered ``(src, dst)`` pair with ``src != dst``."""
        for src in self.hosts:
            for dst in self.hosts:
                if src != dst:
                    yield src, dst

    def __len__(self) -> int:
        return len(self.hosts)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PerformanceMatrix(hosts={len(self.hosts)})"


class CliqueAggregator:
    """Site-clique NWS aggregation into a host-level matrix.

    Every stream lives in one :class:`~repro.nws.bank.ForecastBank`.
    :meth:`observe` validates a probe and queues it on its stream
    (:meth:`observe_block`, a block of them); the next query
    (:meth:`build_matrix`, :meth:`forecast`, :meth:`prediction_error`
    or :meth:`stream_count`) flushes every queued probe through the
    bank, round by round, each stream in its own order.

    Parameters
    ----------
    site_of:
        Mapping from host name to site name.  Hosts at one site are
        assumed equivalently connected to the outside world.
    intra_site_bandwidth:
        Default bandwidth between hosts sharing a site (LAN speed) used
        when no intra-site probes exist.
    """

    def __init__(
        self,
        site_of: dict[str, str],
        intra_site_bandwidth: float = 12.5e6,  # 100 Mbit/s LAN
    ) -> None:
        if not site_of:
            raise ValueError("need at least one host")
        check_positive("intra_site_bandwidth", intra_site_bandwidth)
        self.site_of = dict(site_of)
        self.hosts = sorted(site_of)
        self.intra_site_bandwidth = intra_site_bandwidth
        self._bank = ForecastBank()
        self._rows: dict[tuple[str, str], int] = {}  # stream -> bank row
        self._pending: dict[tuple[str, str], list[float]] = {}

    def _key(self, src_host: str, dst_host: str) -> tuple[str, str]:
        """Aggregation key: site pair across sites, host pair within."""
        s_src, s_dst = self.site_of[src_host], self.site_of[dst_host]
        if s_src == s_dst:
            return (src_host, dst_host)
        return (s_src, s_dst)

    def observe(self, src_host: str, dst_host: str, value: float) -> None:
        """Queue one bandwidth probe (bytes/sec) on the right stream.

        Raises
        ------
        ValueError
            If ``value`` is not a finite positive number; the stream is
            unchanged then.
        """
        check_positive("value", value)
        self._queue(src_host, dst_host).append(value)

    def observe_block(self, src_host: str, dst_host: str, values) -> None:
        """Queue a block of probes (bytes/sec) on one stream, in order.

        Equal to calling :meth:`observe` on each value, but the block is
        validated as a whole with array operations.

        Raises
        ------
        ValueError
            If any value is not a finite positive number (or the block
            is not a one-dimensional numeric array); nothing is queued
            then, so the stream is unchanged.
        """
        block = np.asarray(values)
        if block.ndim != 1 or block.dtype.kind not in "fiu":
            raise ValidationError(
                f"values={values!r} invalid: must be a 1-d array of numbers"
            )
        if not block.size:
            return
        if not (block.min() > 0 and block.max() < math.inf):
            bad = block[~((block > 0) & (block < math.inf))][0]
            raise ValidationError(
                f"value={float(bad)!r} invalid: must be a finite positive number"
            )
        self._queue(src_host, dst_host).extend(block.tolist())

    def _queue(self, src_host: str, dst_host: str) -> list[float]:
        """The pending probes of the pair's stream."""
        key = self._key(src_host, dst_host)
        pending = self._pending.get(key)
        if pending is None:
            pending = self._pending[key] = []
        return pending

    def _flush(self) -> None:
        """Run every queued probe through the bank."""
        if not self._pending:
            return
        new = [key for key in self._pending if key not in self._rows]
        self._rows.update(zip(new, self._bank.add_series(len(new)).tolist()))
        self._bank.extend(
            [self._rows[key] for key in self._pending],
            list(self._pending.values()),
        )
        self._pending.clear()

    def stream_count(self) -> int:
        """Number of distinct aggregation streams seen so far."""
        self._flush()
        return len(self._rows)

    def forecast(self, src_host: str, dst_host: str) -> float:
        """Forecast bandwidth for a host pair.

        Intra-site pairs without probes fall back to the LAN default;
        inter-site pairs without probes return ``nan``.
        """
        if src_host == dst_host:
            return math.inf
        self._flush()
        key = self._key(src_host, dst_host)
        row = self._rows.get(key)
        if row is not None:
            return self._bank.report(row)[0]
        if self.site_of[src_host] == self.site_of[dst_host]:
            return self.intra_site_bandwidth
        return math.nan

    def prediction_error(self, src_host: str, dst_host: str) -> float:
        """Relative forecast error of the pair's stream (``nan`` if none).

        This feeds the paper's suggested automatic ε.
        """
        self._flush()
        row = self._rows.get(self._key(src_host, dst_host))
        if row is None:
            return math.nan
        return self._bank.prediction_error(row)

    def build_matrix(self) -> PerformanceMatrix:
        """Expand the site-level forecasts into a host-level matrix.

        Forecasts once per stream, then fills every host pair from its
        stream through site-index arrays.
        """
        self._flush()
        hosts = self.hosts
        host_index = {h: i for i, h in enumerate(hosts)}
        sites = sorted(set(self.site_of.values()))
        site_index = {s: i for i, s in enumerate(sites)}
        site_of = np.array([site_index[self.site_of[h]] for h in hosts])
        same_site = site_of[:, None] == site_of[None, :]

        rows = np.fromiter(self._rows.values(), dtype=np.int64, count=len(self._rows))
        forecasts = self._bank.predict(rows).tolist()
        site_bw = np.full((len(sites), len(sites)), math.nan)
        intra_bw = np.full((len(hosts), len(hosts)), self.intra_site_bandwidth)
        for (a, b), bw in zip(self._rows, forecasts):
            # a key may name a site pair, an intra-site host pair, or both
            if a != b and a in site_index and b in site_index:
                site_bw[site_index[a], site_index[b]] = bw
            if a in host_index and b in host_index and (
                self.site_of[a] == self.site_of[b]
            ):
                intra_bw[host_index[a], host_index[b]] = bw

        bw = np.where(same_site, intra_bw, site_bw[site_of[:, None], site_of[None, :]])
        keep = np.isfinite(bw) & (bw > 0)
        np.fill_diagonal(keep, False)
        matrix = PerformanceMatrix(hosts)
        matrix._bw[keep] = bw[keep]
        return matrix
