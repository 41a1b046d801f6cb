"""Synchronous application-layer multicast staging (header option).

Section 2 mentions "a header option to form a synchronous
application-layer multicast tree for data staging" (the paper's reference
[33]): one source pushes a data set once, depots replicate it down a tree
so every leaf site receives a copy while each wide-area link carries the
payload exactly once.

:class:`StagingTree` is the in-memory tree model convertible to/from the
wire option; :func:`staging_time_model` estimates the synchronous
completion time over a :class:`~repro.net.topology.Topology` using the
analytic transfer models (pipelined: a node forwards as it receives).
:class:`~repro.lsl.multicast_failover.MulticastFailoverSender` executes
a staging operation over real
:class:`~repro.lsl.socket_transport.DepotServer` nodes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.lsl.options import MulticastTreeOption
from repro.models.relay import relay_transfer_time, striped_relay_transfer_time
from repro.util.validation import check_positive


@dataclass(frozen=True)
class StagingTree:
    """A replication tree of depot addresses.

    Attributes
    ----------
    nodes:
        ``(parent_index, address, port)`` triples, root first (parent
        index -1), parents before children.
    """

    nodes: tuple[tuple[int, str, int], ...]

    def __post_init__(self) -> None:
        MulticastTreeOption(nodes=self.nodes)  # reuse the wire validation

    @classmethod
    def from_option(cls, option: MulticastTreeOption) -> "StagingTree":
        return cls(nodes=option.nodes)

    def to_option(self) -> MulticastTreeOption:
        """The wire option encoding this tree."""
        return MulticastTreeOption(nodes=self.nodes)

    @classmethod
    def from_parent_map(
        cls, root: tuple[str, int], children_of: dict[tuple[str, int], list]
    ) -> "StagingTree":
        """Build from an adjacency map ``parent_addr -> [child_addr, ...]``.

        Raises
        ------
        ValueError
            When a node appears twice, or when a ``children_of`` key
            never connects to the root (its children would otherwise be
            silently dropped from the tree).
        """
        root = (root[0], root[1])
        nodes: list[tuple[int, str, int]] = [(-1, root[0], root[1])]
        index_of = {root: 0}
        frontier = deque([root])
        while frontier:
            parent = frontier.popleft()
            for child in children_of.get(parent, []):
                child = (child[0], child[1])
                if child in index_of:
                    raise ValueError(f"node {child} appears twice in the tree")
                index_of[child] = len(nodes)
                nodes.append((index_of[parent], child[0], child[1]))
                frontier.append(child)
        unreachable = sorted(
            key
            for key in ((k[0], k[1]) for k in children_of)
            if key not in index_of
        )
        if unreachable:
            raise ValueError(
                f"children_of key(s) unreachable from the root "
                f"{root}: {unreachable}"
            )
        return cls(nodes=tuple(nodes))

    @property
    def root(self) -> tuple[str, int]:
        _, addr, port = self.nodes[0]
        return (addr, port)

    def children_of(self, index: int) -> list[int]:
        """Indices of the direct children of node ``index``."""
        return [i for i, (p, _, _) in enumerate(self.nodes) if p == index]

    def address_of(self, index: int) -> tuple[str, int]:
        """The ``(ip, port)`` of node ``index``."""
        _, addr, port = self.nodes[index]
        return (addr, port)

    def leaves(self) -> list[int]:
        """Indices of nodes with no children."""
        parents = {p for p, _, _ in self.nodes if p >= 0}
        return [i for i in range(len(self.nodes)) if i not in parents]

    def path_to(self, index: int) -> list[int]:
        """Node indices from the root down to ``index`` inclusive."""
        path = [index]
        while self.nodes[path[-1]][0] >= 0:
            path.append(self.nodes[path[-1]][0])
        path.reverse()
        return path

    def __len__(self) -> int:
        return len(self.nodes)


def staging_time_model(
    tree: StagingTree, path_spec_of, size: int, stripes: int = 1
) -> float:
    """Synchronous staging completion time estimate.

    ``path_spec_of(parent_addr, child_addr)`` must return the
    :class:`~repro.net.topology.PathSpec` of that tree edge.  Because
    depots forward while receiving, the data pipeline down each
    root-to-leaf branch behaves like a relay chain; the staging finishes
    when the slowest branch finishes.  With ``stripes > 1`` every hop
    runs that many parallel striped sublinks
    (:func:`~repro.models.relay.striped_relay_transfer_time`).

    Raises
    ------
    ValueError
        For a root-only tree (no edges — nothing to stage anywhere),
        or when ``path_spec_of`` has no spec for some tree edge; the
        error names the edge so a hole in an edge map is diagnosable.
    """
    check_positive("size", size)
    check_positive("stripes", stripes)
    if len(tree) < 2:
        raise ValueError(
            "staging tree has no edges: the root already holds the data, "
            "so there is no staging time to model"
        )
    # Validate every edge up front so a hole in the edge map surfaces
    # as one clear error naming the edge, not an opaque failure
    # mid-way through the slowest-branch scan.
    spec_of: dict[tuple[int, int], object] = {}
    for child in range(1, len(tree)):
        parent = tree.nodes[child][0]
        edge = (tree.address_of(parent), tree.address_of(child))
        try:
            spec = path_spec_of(*edge)
        except Exception as exc:
            raise ValueError(
                f"no PathSpec for tree edge {edge[0]} -> {edge[1]}: {exc}"
            ) from exc
        if spec is None:
            raise ValueError(
                f"no PathSpec for tree edge {edge[0]} -> {edge[1]}"
            )
        spec_of[(parent, child)] = spec
    worst = 0.0
    for leaf in tree.leaves():
        indices = tree.path_to(leaf)
        paths = [spec_of[(a, b)] for a, b in zip(indices, indices[1:])]
        if stripes > 1:
            branch = striped_relay_transfer_time(paths, size, stripes)
        else:
            branch = relay_transfer_time(paths, size)
        worst = max(worst, branch)
    return worst
