"""Fat-tree topology construction.

Summit's interconnect is a three-level non-blocking fat tree of EDR
InfiniBand switches. We build an explicit switch/host graph with networkx so
routing, congestion and bisection properties can be measured rather than
assumed. For full-Summit-scale analytic work the collectives cost models in
:mod:`repro.network.collectives` do not require instantiating the graph; the
graph is used by the routing/congestion studies and the tests that verify the
non-blocking property.

The construction is the standard k-ary fat tree generalised to a configurable
radix and a "slimming" factor for tapered (oversubscribed) variants:

- ``leaf`` switches connect ``down`` hosts and ``up`` uplinks;
- a non-blocking tree has ``up == down`` at every level (taper = 1.0);
- a tapered tree has ``up = down / taper`` with ``taper > 1``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import networkx as nx

from repro.errors import ConfigurationError
from repro.network.link import LinkSpec


def _default_link() -> LinkSpec:
    # Resolved at instantiation time: EDR_RAIL is a lazy (PEP 562) attribute
    # backed by the machine registry, which imports this module's package.
    from repro.network.link import EDR_RAIL

    return EDR_RAIL


@dataclass(frozen=True)
class FatTreeSpec:
    """Parameters for a two- or three-level fat tree.

    Parameters
    ----------
    hosts:
        Number of terminal (compute-node) ports required.
    radix:
        Switch port count (36 for the EDR switches in Summit's fabric).
    levels:
        2 or 3 switch levels.
    taper:
        Uplink oversubscription factor at the leaf level. ``1.0`` is
        non-blocking (Summit); ``2.0`` halves the uplinks.
    link:
        Link spec used for every cable in the fabric.
    """

    hosts: int
    radix: int = 36
    levels: int = 3
    taper: float = 1.0
    link: LinkSpec = field(default_factory=_default_link)

    def __post_init__(self) -> None:
        if self.hosts < 1:
            raise ConfigurationError("need at least one host")
        if self.radix < 2 or self.radix % 2:
            raise ConfigurationError("radix must be an even integer >= 2")
        if self.levels not in (2, 3):
            raise ConfigurationError("levels must be 2 or 3")
        if self.taper < 1.0:
            raise ConfigurationError("taper must be >= 1.0")

    @property
    def hosts_per_leaf(self) -> int:
        """Down-ports per leaf switch (half the radix, times the taper)."""
        down = self.radix // 2
        # A tapered tree dedicates more ports to hosts at the leaf.
        extra = int((self.radix // 2) * (1 - 1 / self.taper))
        return down + extra

    @property
    def uplinks_per_leaf(self) -> int:
        return self.radix - self.hosts_per_leaf

    @property
    def n_leaves(self) -> int:
        return math.ceil(self.hosts / self.hosts_per_leaf)

    @property
    def max_hosts(self) -> int:
        """Largest host count this radix/level combination can serve
        (non-blocking construction)."""
        half = self.radix // 2
        if self.levels == 2:
            return self.hosts_per_leaf * self.radix
        return self.hosts_per_leaf * half * self.radix


class FatTree:
    """An instantiated fat-tree fabric.

    Nodes of the internal graph are labelled ``("host", i)``,
    ``("leaf", i)``, ``("spine", i)`` and — for three-level trees —
    ``("core", i)``. Every edge carries the fabric :class:`LinkSpec` and a
    mutable ``load`` counter used by the congestion studies.
    """

    def __init__(self, spec: FatTreeSpec):
        if spec.hosts > spec.max_hosts:
            raise ConfigurationError(
                f"{spec.hosts} hosts exceed capacity {spec.max_hosts} of a "
                f"{spec.levels}-level radix-{spec.radix} fat tree"
            )
        self.spec = spec
        self.graph = nx.Graph()
        self._build()

    # -- construction ---------------------------------------------------------

    def _build(self) -> None:
        spec = self.spec
        half = spec.radix // 2
        n_leaves = spec.n_leaves

        for h in range(spec.hosts):
            self.graph.add_node(("host", h), kind="host")
        for l in range(n_leaves):
            self.graph.add_node(("leaf", l), kind="leaf")

        # host <-> leaf
        for h in range(spec.hosts):
            leaf = h // spec.hosts_per_leaf
            self._add_link(("host", h), ("leaf", leaf))

        if spec.levels == 2:
            n_spines = max(1, math.ceil(n_leaves * spec.uplinks_per_leaf / spec.radix))
            for s in range(n_spines):
                self.graph.add_node(("spine", s), kind="spine")
            for l in range(n_leaves):
                for u in range(spec.uplinks_per_leaf):
                    self._add_link(("leaf", l), ("spine", u % n_spines))
            return

        # Three levels: group leaves into pods of `half` leaves; each pod has
        # `uplinks_per_leaf` spine switches; cores connect pods.
        pod_size = half
        n_pods = math.ceil(n_leaves / pod_size)
        spines_per_pod = spec.uplinks_per_leaf
        n_cores = max(1, math.ceil(n_pods * spines_per_pod * half / spec.radix))

        for p in range(n_pods):
            for s in range(spines_per_pod):
                self.graph.add_node(("spine", p * spines_per_pod + s), kind="spine")
        for c in range(n_cores):
            self.graph.add_node(("core", c), kind="core")

        for l in range(n_leaves):
            pod = l // pod_size
            for u in range(spec.uplinks_per_leaf):
                spine = ("spine", pod * spines_per_pod + u)
                self._add_link(("leaf", l), spine)
        for p in range(n_pods):
            for s in range(spines_per_pod):
                spine = ("spine", p * spines_per_pod + s)
                for u in range(half):
                    core = ("core", (s * half + u) % n_cores)
                    self._add_link(spine, core)

    def _add_link(self, a: tuple, b: tuple) -> None:
        # parallel cables between the same pair aggregate into one edge with
        # a multiplicity count
        if self.graph.has_edge(a, b):
            self.graph[a][b]["multiplicity"] += 1
        else:
            self.graph.add_edge(a, b, link=self.spec.link, load=0, multiplicity=1)

    # -- queries ---------------------------------------------------------------

    @property
    def n_hosts(self) -> int:
        return self.spec.hosts

    def host(self, i: int) -> tuple:
        if not 0 <= i < self.spec.hosts:
            raise ConfigurationError(f"host index {i} out of range")
        return ("host", i)

    def hop_count(self, src: int, dst: int) -> int:
        """Switch-to-switch hops on a shortest path between two hosts."""
        if src == dst:
            return 0
        return nx.shortest_path_length(self.graph, self.host(src), self.host(dst))

    def diameter_hops(self) -> int:
        """Worst-case host-to-host hop count: 2 per level in a fat tree."""
        return 2 * self.spec.levels

    def bisection_links(self) -> int:
        """Number of cables crossing an even leaf bisection.

        In a fat tree every cross-bisection path climbs through the leaf
        uplinks, so the bisection capacity is the aggregate uplink count of
        half the leaves. For a non-blocking tree this equals roughly half the
        host count (full bisection bandwidth); a tapered tree proportionally
        fewer.
        """
        n_leaves_half = self.spec.n_leaves // 2
        return n_leaves_half * self.spec.uplinks_per_leaf
