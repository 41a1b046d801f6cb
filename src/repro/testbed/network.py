"""The Testbed abstraction: hosts, sites, gateways and derived paths.

Both synthetic environments (PlanetLab-like and Abilene) reduce to the
same structure: hosts attached to site gateways, gateways joined by
wide-area links, plus per-host properties the *scheduler never sees* but
the *measurements feel* — forwarding capacity lost to virtualisation and
administrative rate caps (the confounders Section 4.2 blames for the
cases where LSL lost).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.models.mathis import MATHIS_C
from repro.models.transfer_time import steady_state_rate
from repro.net.tcp import DEFAULT_TCP_CONFIG
from repro.net.topology import PathSpec, Topology
from repro.util.validation import check_positive, check_probability


def gateway_name(site_domain: str) -> str:
    """The topology node standing for a site's border router."""
    return f"gw.{site_domain}"


def _check_each(check, name: str, values: np.ndarray, ok: np.ndarray) -> None:
    """Raise as ``check(name, v)`` does for the first ``v`` not ``ok``."""
    if not ok.all():
        check(name, float(values[~ok][0]))


@dataclass
class Testbed:
    """A fully generated experiment environment.

    Attributes
    ----------
    hosts:
        End hosts (sources/sinks/depot candidates).
    site_of:
        Host → site-domain mapping (the clique structure).
    topology:
        Link graph over hosts and gateway nodes.
    gateway_routes:
        Per ordered site pair, the gateway node sequence crossing the
        wide area (``[gw.a, gw.b]`` for a direct mesh, longer when an
        explicit backbone is routed).
    forward_cap:
        Bytes/sec each host can forward *through* itself when acting as
        a depot (virtualisation and NIC limits).  Endpoints are not
        charged this; the paper notes "the bandwidth through the host
        was not accounted for" by the scheduler.
    rate_cap:
        Administrative bandwidth ceiling per host, applied to every
        transfer that host takes part in.
    depot_hosts:
        Hosts willing to act as depots (all hosts on PlanetLab; the POP
        depots in the Abilene experiment).
    endpoint_hosts:
        Hosts acting as transfer sources and sinks (defaults to every
        non-dedicated-depot host, or all hosts when every host is also a
        depot).
    """

    #: keep pytest from collecting this as a test class
    __test__ = False

    hosts: list[str]
    site_of: dict[str, str]
    topology: Topology
    gateway_routes: dict[tuple[str, str], list[str]]
    forward_cap: dict[str, float] = field(default_factory=dict)
    rate_cap: dict[str, float] = field(default_factory=dict)
    depot_hosts: list[str] = field(default_factory=list)
    endpoint_hosts: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        missing = [h for h in self.hosts if h not in self.site_of]
        if missing:
            raise ValueError(f"hosts missing a site: {missing[:3]}")
        if not self.depot_hosts:
            self.depot_hosts = list(self.hosts)
        if not self.endpoint_hosts:
            depots = set(self.depot_hosts)
            non_depot = [h for h in self.hosts if h not in depots]
            self.endpoint_hosts = non_depot if non_depot else list(self.hosts)

    # -- path derivation ------------------------------------------------------
    def _route_nodes(self, src: str, dst: str) -> list[str]:
        s_src, s_dst = self.site_of[src], self.site_of[dst]
        if s_src == s_dst:
            return [src, gateway_name(s_src), dst]
        gws = self.gateway_routes.get(
            (s_src, s_dst), [gateway_name(s_src), gateway_name(s_dst)]
        )
        return [src, *gws, dst]

    def sublink_spec(self, src: str, dst: str) -> PathSpec:
        """End-to-end TCP path characteristics between two hosts.

        Composes the access and wide-area links and applies both hosts'
        administrative rate caps.
        """
        if src == dst:
            raise ValueError("src and dst are the same host")
        spec = self.topology.path_spec(self._route_nodes(src, dst), name=f"{src}-{dst}")
        cap = min(
            self.rate_cap.get(src, math.inf), self.rate_cap.get(dst, math.inf)
        )
        if cap < spec.bandwidth:
            spec = PathSpec(
                rtt=spec.rtt,
                bandwidth=cap,
                loss_rate=spec.loss_rate,
                send_buffer=spec.send_buffer,
                recv_buffer=spec.recv_buffer,
                name=spec.name,
            )
        return spec

    def route_specs(self, route: list[str]) -> list[PathSpec]:
        """Per-sublink specs for a depot route, charging each
        intermediate host its forwarding capacity on both adjacent
        sublinks."""
        if len(route) < 2:
            raise ValueError(f"route {route!r} needs at least two hosts")
        specs = []
        last = len(route) - 1
        for i, (a, b) in enumerate(zip(route, route[1:])):
            spec = self.sublink_spec(a, b)
            cap = math.inf
            if i > 0:  # `a` is forwarding
                cap = min(cap, self.forward_cap.get(a, math.inf))
            if i + 1 < last:  # `b` will forward
                cap = min(cap, self.forward_cap.get(b, math.inf))
            if cap < spec.bandwidth:
                spec = PathSpec(
                    rtt=spec.rtt,
                    bandwidth=cap,
                    loss_rate=spec.loss_rate,
                    send_buffer=spec.send_buffer,
                    recv_buffer=spec.recv_buffer,
                    name=spec.name,
                )
            specs.append(spec)
        return specs

    # -- scheduler inputs ---------------------------------------------------------
    def true_bandwidth(self, src: str, dst: str) -> float:
        """The 'real' sustained bandwidth an NWS probe estimates.

        Order-preserving is all the scheduler needs; we use the analytic
        steady-state rate of the sublink (window, wire and loss limits).
        """
        return steady_state_rate(self.sublink_spec(src, dst))

    def true_bandwidths(self, pairs: list[tuple[str, str]]) -> np.ndarray:
        """:meth:`true_bandwidth` of every ``(src, dst)`` pair, in one pass.

        Bit for bit ``[self.true_bandwidth(s, d) for s, d in pairs]``:
        the same float operations in the same order as
        :meth:`sublink_spec` → :meth:`Topology.path_spec` →
        :func:`steady_state_rate`, run over columns of per-pair link
        arrays instead of through one validated :class:`PathSpec` per
        pair.  It validates what ``PathSpec`` would: every rtt and
        bandwidth finite and positive, every loss rate in ``[0, 1]``.
        """
        if any(src == dst for src, dst in pairs):
            raise ValueError("src and dst are the same host")
        routes = [self._route_nodes(src, dst) for src, dst in pairs]
        rows = [
            [
                (link.latency, link.bandwidth, link.loss_rate)
                for link in self.topology.route_links(route)
            ]
            for route in routes
        ]
        width = max(map(len, rows), default=0)
        # padding that leaves every sum, minimum and product unchanged
        pad = [(0.0, math.inf, 0.0)]
        links = np.array(
            [row + pad * (width - len(row)) for row in rows]
        ).reshape(len(rows), width, 3)
        lat, bw, loss = links[..., 0], links[..., 1], links[..., 2]
        # Topology.path_spec: sequential sum and product, as in Python
        latency = np.zeros(len(rows))
        survive = np.ones(len(rows))
        for k in range(width):
            latency = latency + lat[:, k]
            survive = survive * (1.0 - loss[:, k])
        rtt = 2.0 * latency
        bandwidth = bw.min(axis=1, initial=math.inf)
        loss_rate = 1.0 - survive
        buffers = self.topology.socket_buffer
        window = np.array(
            [
                min(buffers(route[0]), buffers(route[-1]))
                for route in routes
            ],
            dtype=float,
        )
        # sublink_spec: both hosts' administrative caps
        inf = math.inf
        cap = np.array(
            [
                min(self.rate_cap.get(src, inf), self.rate_cap.get(dst, inf))
                for src, dst in pairs
            ]
        )
        _check_each(check_positive, "rtt", rtt, (rtt > 0) & (rtt < inf))
        _check_each(
            check_probability,
            "loss_rate",
            loss_rate,
            (loss_rate >= 0.0) & (loss_rate <= 1.0),
        )
        bandwidth = np.where(cap < bandwidth, cap, bandwidth)
        _check_each(
            check_positive,
            "bandwidth",
            bandwidth,
            (bandwidth > 0) & (bandwidth < inf),
        )
        # steady_state_rate: min(window / rtt, bandwidth, mathis_rate)
        mss = DEFAULT_TCP_CONFIG.mss
        mathis = np.full(len(rows), inf)
        lossy = loss_rate != 0.0
        mathis[lossy] = MATHIS_C * mss / (rtt[lossy] * np.sqrt(loss_rate[lossy]))
        return np.minimum(np.minimum(window / rtt, bandwidth), mathis)

    def site_pairs(self) -> list[tuple[str, str]]:
        """All ordered distinct site-domain pairs."""
        sites = sorted(set(self.site_of.values()))
        return [(a, b) for a in sites for b in sites if a != b]

    def hosts_at(self, site_domain: str) -> list[str]:
        """Hosts belonging to one site, sorted."""
        return sorted(h for h, s in self.site_of.items() if s == site_domain)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Testbed(hosts={len(self.hosts)}, "
            f"sites={len(set(self.site_of.values()))})"
        )
