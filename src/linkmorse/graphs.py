"""Linkage graph model, series-parallel decomposition, and cycle combinatorics.

Vertex ids are opaque strings. Parallel edges are legal (series-parallel
composition creates them) so edges are addressed by index into the edge list.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import CrossingDiagonalsError, NotPTTError, NotSPError


@dataclass(frozen=True)
class LinkageGraph:
    """Connected multigraph with a positive length on every edge."""

    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str, float], ...]

    def __post_init__(self):
        vset = set(self.vertices)
        if len(vset) != len(self.vertices):
            raise ValueError("duplicate vertex ids")
        for u, v, length in self.edges:
            if u == v:
                raise ValueError(f"self-loop at {u!r}")
            if u not in vset or v not in vset:
                raise ValueError(f"edge ({u!r},{v!r}) uses unknown vertex")
            if not 0 < length < math.inf:
                raise ValueError(f"edge ({u!r},{v!r}) needs a positive finite length")
        if not self._connected():
            raise ValueError("graph is not connected")

    def _connected(self) -> bool:
        if not self.vertices:
            return False
        adj = self.adjacency()
        seen = {self.vertices[0]}
        stack = [self.vertices[0]]
        while stack:
            for w, _ in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(self.vertices)

    def adjacency(self) -> dict[str, list[tuple[str, int]]]:
        """Vertex -> list of (neighbor, edge index)."""
        adj: dict[str, list[tuple[str, int]]] = {v: [] for v in self.vertices}
        for i, (u, v, _) in enumerate(self.edges):
            adj[u].append((v, i))
            adj[v].append((u, i))
        return adj

    def lengths(self) -> tuple[float, ...]:
        return tuple(e[2] for e in self.edges)

    def total_length(self) -> float:
        return sum(e[2] for e in self.edges)

    def with_edge_length(self, index: int, length: float) -> "LinkageGraph":
        u, v, _ = self.edges[index]
        edges = list(self.edges)
        edges[index] = (u, v, float(length))
        return LinkageGraph(self.vertices, tuple(edges))

    def edge_between(self, u: str, v: str) -> int:
        """Index of some edge between u and v (first match)."""
        for i, (a, b, _) in enumerate(self.edges):
            if {a, b} == {u, v}:
                return i
        raise KeyError(f"no edge between {u!r} and {v!r}")

    def to_json_dict(self, gamma=None, terminals=None) -> dict:
        d: dict = {
            "vertices": list(self.vertices),
            "edges": [{"u": u, "v": v, "len": length} for u, v, length in self.edges],
        }
        if gamma is not None:
            d["gamma"] = list(gamma.vertices)
        if terminals is not None:
            d["terminals"] = {"I": terminals[0], "T": terminals[1]}
        return d


@dataclass(frozen=True)
class DistinguishedCycle:
    """Oriented cycle with no repeated vertices, every pair an edge of the graph."""

    vertices: tuple[str, ...]

    def __post_init__(self):
        if len(self.vertices) < 3:
            raise ValueError("cycle needs at least 3 vertices")
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("cycle repeats a vertex")

    def __len__(self):
        return len(self.vertices)

    def pairs(self) -> list[tuple[str, str]]:
        n = len(self.vertices)
        return [(self.vertices[i], self.vertices[(i + 1) % n]) for i in range(n)]

    def validate(self, g: LinkageGraph) -> None:
        vset = set(g.vertices)
        for v in self.vertices:
            if v not in vset:
                raise ValueError(f"cycle vertex {v!r} missing from graph")
        pair_sets = [frozenset(e[:2]) for e in g.edges]
        for u, v in self.pairs():
            if frozenset((u, v)) not in pair_sets:
                raise ValueError(f"cycle step ({u!r},{v!r}) is not a graph edge")

    def edge_indices(self, g: LinkageGraph) -> list[int]:
        """Graph edge index for each cycle step, in cycle order."""
        out = []
        for u, v in self.pairs():
            out.append(g.edge_between(u, v))
        return out

    def lengths(self, g: LinkageGraph) -> list[float]:
        return [g.edges[i][2] for i in self.edge_indices(g)]


# ---------------------------------------------------------------------------
# series-parallel trees
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SPEdge:
    u: str
    v: str
    length: float
    index: int | None = field(default=None, compare=False)  # in the decomposed graph

    @property
    def i(self):
        return self.u

    @property
    def t(self):
        return self.v


@dataclass(frozen=True)
class SPSeries:
    children: tuple  # ordered, child k terminal t == child k+1 terminal i

    def __post_init__(self):
        if len(self.children) < 2:
            raise ValueError("series node needs >= 2 children")

    @property
    def i(self):
        return self.children[0].i

    @property
    def t(self):
        return self.children[-1].t


@dataclass(frozen=True)
class SPParallel:
    children: tuple  # all children share terminals (i, t)

    def __post_init__(self):
        if len(self.children) < 2:
            raise ValueError("parallel node needs >= 2 children")

    @property
    def i(self):
        return self.children[0].i

    @property
    def t(self):
        return self.children[0].t


SPTree = SPEdge | SPSeries | SPParallel


def _flip(node: SPTree) -> SPTree:
    if isinstance(node, SPEdge):
        return SPEdge(node.v, node.u, node.length, node.index)
    if isinstance(node, SPSeries):
        return SPSeries(tuple(_flip(c) for c in reversed(node.children)))
    return SPParallel(tuple(_flip(c) for c in node.children))


def _series(a: SPTree, b: SPTree) -> SPTree:
    ca = a.children if isinstance(a, SPSeries) else (a,)
    cb = b.children if isinstance(b, SPSeries) else (b,)
    return SPSeries(ca + cb)


def _parallel(nodes: Iterable[SPTree]) -> SPTree:
    flat: list[SPTree] = []
    for n in nodes:
        if isinstance(n, SPParallel):
            flat.extend(n.children)
        else:
            flat.append(n)
    return SPParallel(tuple(flat))


def sp_tree_to_json(node: SPTree) -> dict:
    if isinstance(node, SPEdge):
        return {"op": "E", "u": node.u, "v": node.v, "len": node.length,
                "edge": node.index}
    op = "S" if isinstance(node, SPSeries) else "P"
    return {"op": op, "i": node.i, "t": node.t,
            "children": [sp_tree_to_json(c) for c in node.children]}


def sp_decompose(g: LinkageGraph, i: str, t: str) -> SPTree:
    """Two-terminal series-parallel decomposition by reduction.

    Repeatedly merges parallel edges and contracts interior degree-2 vertices.
    Succeeds iff a single i-t edge remains; otherwise raises NotSPError with
    the irreducible kernel.
    """
    if i == t:
        raise ValueError("terminals must differ")
    if i not in g.vertices or t not in g.vertices:
        raise ValueError("terminal not in graph")

    # live edges: id -> (u, v, tree oriented u->v)
    live: dict[int, tuple[str, str, SPTree]] = {
        k: (u, v, SPEdge(u, v, length, k)) for k, (u, v, length) in enumerate(g.edges)
    }
    next_id = len(live)

    def reduce_parallel() -> bool:
        nonlocal next_id
        groups: dict[frozenset, list[int]] = {}
        for k, (u, v, _) in live.items():
            groups.setdefault(frozenset((u, v)), []).append(k)
        changed = False
        for pair, ks in sorted(groups.items(), key=lambda kv: sorted(kv[0])):
            if len(ks) < 2:
                continue
            ks.sort()
            u0, v0, _ = live[ks[0]]
            parts = []
            for k in ks:
                u, v, node = live[k]
                parts.append(node if (u, v) == (u0, v0) else _flip(node))
                del live[k]
            live[next_id] = (u0, v0, _parallel(parts))
            next_id += 1
            changed = True
        return changed

    def reduce_series() -> bool:
        nonlocal next_id
        deg: dict[str, list[int]] = {}
        for k, (u, v, _) in live.items():
            deg.setdefault(u, []).append(k)
            deg.setdefault(v, []).append(k)
        for w in sorted(deg):
            if w in (i, t) or len(deg[w]) != 2:
                continue
            k1, k2 = sorted(deg[w])
            u1, v1, n1 = live[k1]
            u2, v2, n2 = live[k2]
            a = u1 if v1 == w else v1
            b = v2 if u2 == w else u2
            if a == b:
                continue  # would make a self-loop; parallel pass handles it
            left = n1 if (u1, v1) == (a, w) else _flip(n1)
            right = n2 if (u2, v2) == (w, b) else _flip(n2)
            del live[k1], live[k2]
            live[next_id] = (a, b, _series(left, right))
            next_id += 1
            return True
        return False

    while True:
        if reduce_parallel():
            continue
        if reduce_series():
            continue
        break

    if len(live) == 1:
        (u, v, node), = live.values()
        if {u, v} == {i, t}:
            return node if (u, v) == (i, t) else _flip(node)
    kernel = sorted((u, v) for u, v, _ in live.values())
    raise NotSPError(f"not series-parallel with terminals ({i!r},{t!r})", kernel=kernel)


def biconnected_blocks(g: LinkageGraph) -> list[tuple[int, ...]]:
    """Edge-index sets of the biconnected blocks (bridges are single edges)."""
    adj = g.adjacency()
    disc: dict[str, int] = {}
    low: dict[str, int] = {}
    blocks: list[tuple[int, ...]] = []
    counter = 0
    for start in g.vertices:
        if start in disc:
            continue
        stack: list[tuple[str, int | None, list]] = [(start, None, list(adj[start]))]
        disc[start] = low[start] = counter
        counter += 1
        edge_stack: list[int] = []
        while stack:
            v, in_edge, it = stack[-1]
            if it:
                w, k = it.pop()
                if k == in_edge:
                    continue
                if w not in disc:
                    edge_stack.append(k)
                    disc[w] = low[w] = counter
                    counter += 1
                    stack.append((w, k, list(adj[w])))
                elif disc[w] < disc[v]:
                    edge_stack.append(k)
                    low[v] = min(low[v], disc[w])
            else:
                stack.pop()
                if stack:
                    u = stack[-1][0]
                    low[u] = min(low[u], low[v])
                    if low[v] >= disc[u]:
                        block = []
                        while edge_stack:
                            k = edge_stack.pop()
                            block.append(k)
                            if k == in_edge:
                                break
                        blocks.append(tuple(sorted(block)))
    return sorted(blocks)


def sp_decompose_blocks(g: LinkageGraph) -> list[tuple[tuple[int, ...], SPTree]]:
    """(edge indices, SP tree) of every biconnected block that is not a
    bridge; an SPEdge's index is its position in the block's edge indices.

    The terminals are the lexicographically smallest pair of adjacent
    vertices: a 2-connected graph without a K4 minor is series-parallel with
    the ends of any one of its edges as terminals (Duffin 1965), so one
    reduction per block decides.  Raises NotPTTError when some block has no
    SP decomposition, which happens iff g has a K4 minor.
    """
    out = []
    for block in biconnected_blocks(g):
        if len(block) == 1:
            continue
        vs = sorted({v for k in block for v in g.edges[k][:2]})
        sub = LinkageGraph(tuple(vs), tuple(g.edges[k] for k in block))
        u, v = min(tuple(sorted(e[:2])) for e in sub.edges)
        try:
            out.append((block, sp_decompose(sub, u, v)))
        except NotSPError as exc:
            raise NotPTTError(
                f"block {list(block)} has no series-parallel decomposition") from exc
    return out


def is_partial_two_tree(g: LinkageGraph) -> bool:
    """True iff g has no K4 minor: every block is series-parallel."""
    try:
        sp_decompose_blocks(g)
    except NotPTTError:
        return False
    return True


# ---------------------------------------------------------------------------
# decomposition relative to the distinguished cycle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RelativeComponent:
    """One connected piece attached to the cycle at <= 2 vertices."""

    vertices: tuple[str, ...]
    edge_indices: tuple[int, ...]
    attachments: tuple[str, ...]  # 1 or 2 vertices on the cycle


@dataclass(frozen=True)
class RelativeDecomposition:
    components: tuple[RelativeComponent, ...]


def relative_decomposition(g: LinkageGraph, gamma: DistinguishedCycle) -> RelativeDecomposition:
    """Split g minus the cycle edges into attached components.

    Each component must meet the cycle in at most two vertices; whether it
    is a chain is for ``detect_polygon_with_chains`` to decide.
    """
    gamma.validate(g)
    cyc_edges = set(gamma.edge_indices(g))
    on_cycle = set(gamma.vertices)

    rest = [k for k in range(len(g.edges)) if k not in cyc_edges]
    parent: dict[int, int] = {k: k for k in rest}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    # edges sharing a non-cycle vertex belong to one component; cycle vertices
    # do not merge components (they are the attachment points)
    by_vertex: dict[str, list[int]] = {}
    for k in rest:
        u, v, _ = g.edges[k]
        for x in (u, v):
            if x not in on_cycle:
                by_vertex.setdefault(x, []).append(k)
    for ks in by_vertex.values():
        for k in ks[1:]:
            union(ks[0], k)

    groups: dict[int, list[int]] = {}
    for k in rest:
        groups.setdefault(find(k), []).append(k)

    comps = []
    for ks in sorted(groups.values(), key=min):
        vs = set()
        for k in ks:
            u, v, _ = g.edges[k]
            vs.update((u, v))
        attach = tuple(sorted(vs & on_cycle))
        if len(attach) > 2:
            raise NotPTTError(
                f"component attaches to the cycle at {len(attach)} vertices: {attach}")
        comps.append(RelativeComponent(tuple(sorted(vs)), tuple(sorted(ks)), attach))
    return RelativeDecomposition(tuple(comps))


# ---------------------------------------------------------------------------
# elementary cycles of a polygon with non-crossing diagonals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CellEdge:
    """One boundary step of an elementary cell.

    kind "gamma": cycle edge from position `index` to `index`+1 (always
    traversed forward). kind "diag": diagonal number `index`, `forward` True
    when traversed from its first endpoint to its second.
    """

    kind: str
    index: int
    forward: bool = True


@dataclass(frozen=True)
class Cell:
    positions: tuple[int, ...]   # cycle positions of the boundary vertices
    edges: tuple[CellEdge, ...]  # edges[j] joins positions[j] -> positions[j+1]


def _chords_cross(a: tuple[int, int], b: tuple[int, int]) -> bool:
    (p, q), (r, s) = sorted(a), sorted(b)
    if len({p, q, r, s}) < 4:
        return False  # shared endpoints never cross combinatorially
    return (p < r < q < s) or (r < p < s < q)


def elementary_cycles(gamma: DistinguishedCycle,
                      diagonals: Sequence[tuple[str, str]]) -> list[Cell]:
    """Cells the straight-line diagonals cut the cycle into.

    Returns len(diagonals)+1 cells, each oriented with the cycle, so the
    cells sum to the cycle homologically (every diagonal appears in exactly
    two cells with opposite directions).
    """
    n = len(gamma)
    pos = {v: k for k, v in enumerate(gamma.vertices)}
    chords = []
    for u, v in diagonals:
        if u not in pos or v not in pos or u == v:
            raise ValueError(f"diagonal ({u!r},{v!r}) must join two distinct cycle vertices")
        chords.append((pos[u], pos[v]))
    for a in range(len(chords)):
        for b in range(a + 1, len(chords)):
            if _chords_cross(chords[a], chords[b]):
                raise CrossingDiagonalsError(
                    f"diagonals {diagonals[a]} and {diagonals[b]} interleave on the cycle")

    regions = [Cell(tuple(range(n)), tuple(CellEdge("gamma", k) for k in range(n)))]
    for d, (pa, pb) in enumerate(chords):
        for ri, reg in enumerate(regions):
            if pa in reg.positions and pb in reg.positions:
                break
        else:
            raise CrossingDiagonalsError("no region contains both diagonal endpoints")
        s = reg.positions.index(pa)
        t = reg.positions.index(pb)
        if s > t:
            s, t = t, s
            pa, pb = pb, pa
        # piece 1: pa .. pb plus the chord back pb -> pa
        verts1 = reg.positions[s:t + 1]
        edges1 = reg.edges[s:t] + (CellEdge("diag", d, forward=(pb, pa) == chords[d]),)
        # piece 2: pb .. pa plus the chord back pa -> pb
        verts2 = reg.positions[t:] + reg.positions[:s + 1]
        edges2 = reg.edges[t:] + reg.edges[:s] + (
            CellEdge("diag", d, forward=(pa, pb) == chords[d]),)
        regions[ri:ri + 1] = [Cell(verts1, edges1), Cell(verts2, edges2)]
    return regions


def cell_lengths(cell: Cell, gamma_lengths: Sequence[float],
                 diag_lengths: Sequence[float]) -> list[float]:
    out = []
    for e in cell.edges:
        out.append(gamma_lengths[e.index] if e.kind == "gamma" else diag_lengths[e.index])
    return out


# ---------------------------------------------------------------------------
# named linkage classes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AttachedChain:
    """Open chain glued to the cycle by its two endpoints."""

    joints: tuple[str, ...]      # interior joints, in order from i_vertex to t_vertex
    lengths: tuple[float, ...]
    i_pos: int                   # cycle position of the initial attachment
    t_pos: int

    @property
    def r(self) -> int:
        return len(self.lengths)


@dataclass(frozen=True)
class PolygonWithChains:
    """A polygonal cycle with pairwise non-crossing attached chains."""

    graph: LinkageGraph
    gamma: DistinguishedCycle
    chains: tuple[AttachedChain, ...]

    def gamma_lengths(self) -> list[float]:
        return self.gamma.lengths(self.graph)


def detect_polygon_with_chains(g: LinkageGraph,
                               gamma: DistinguishedCycle) -> PolygonWithChains | None:
    """Recognize the polygon-with-non-crossing-diagonals class, else None.

    Every attached component must be a path glued at its two endpoints and
    the endpoint pairs must be pairwise non-crossing on the cycle.
    """
    try:
        rel = relative_decomposition(g, gamma)
    except NotPTTError:
        return None
    pos = {v: k for k, v in enumerate(gamma.vertices)}
    chains = []
    for comp in rel.components:
        if len(comp.attachments) != 2:
            return None
        path = _component_as_path(g, comp)
        if path is None:
            return None
        joints, lens = path
        chains.append(AttachedChain(tuple(joints), tuple(lens),
                                    pos[comp.attachments[0]], pos[comp.attachments[1]]))
    for a in range(len(chains)):
        for b in range(a + 1, len(chains)):
            if _chords_cross((chains[a].i_pos, chains[a].t_pos),
                             (chains[b].i_pos, chains[b].t_pos)):
                return None
    return PolygonWithChains(g, gamma, tuple(chains))


def _component_as_path(g: LinkageGraph, comp: RelativeComponent):
    """Interior joints and lengths if the component is an a-to-b path.  The
    component is connected, so the degree check leaves only that path."""
    a, b = comp.attachments
    adj: dict[str, list[tuple[str, float]]] = {}
    for k in comp.edge_indices:
        u, v, length = g.edges[k]
        adj.setdefault(u, []).append((v, length))
        adj.setdefault(v, []).append((u, length))
    for x, nb in adj.items():
        want = 1 if x in (a, b) else 2
        if len(nb) != want:
            return None
    joints, lengths = [], []
    prev, cur = None, a
    while cur != b:
        prev, (cur, length) = cur, next(p for p in adj[cur] if p[0] != prev)
        lengths.append(length)
        if cur != b:
            joints.append(cur)
    return joints, lengths


def make_polygon(lengths: Sequence[float], prefix: str = "v") -> tuple[LinkageGraph, DistinguishedCycle]:
    n = len(lengths)
    names = tuple(f"{prefix}{k}" for k in range(n))
    edges = tuple((names[k], names[(k + 1) % n], float(lengths[k])) for k in range(n))
    return LinkageGraph(names, edges), DistinguishedCycle(names)


def make_three_chain(a: Sequence[float], b: Sequence[float],
                     z: Sequence[float]) -> tuple[LinkageGraph, DistinguishedCycle]:
    """Three open chains A, B, Z glued at I and T.

    The distinguished cycle runs A forward from I to T, then B backward, so
    its edge lengths are a_1..a_p, b_q..b_1.
    """
    def joints(tag, count):
        return [f"{tag}{k}" for k in range(1, count)]

    aj, bj, zj = joints("A", len(a)), joints("B", len(b)), joints("Z", len(z))
    vertices = tuple(["I", "T"] + aj + bj + zj)
    edges = []
    for lens, js in ((a, aj), (b, bj), (z, zj)):
        path = ["I"] + js + ["T"]
        for k in range(len(lens)):
            edges.append((path[k], path[k + 1], float(lens[k])))
    gamma = DistinguishedCycle(tuple(["I"] + aj + ["T"] + list(reversed(bj))))
    return LinkageGraph(vertices, tuple(edges)), gamma


# ---------------------------------------------------------------------------
# JSON linkage files
# ---------------------------------------------------------------------------

def linkage_from_json_dict(d: dict):
    """(graph, gamma or None, terminals or None) from the linkage file schema."""
    vertices = tuple(str(v) for v in d["vertices"])
    edges = tuple((str(e["u"]), str(e["v"]), float(e["len"])) for e in d["edges"])
    g = LinkageGraph(vertices, edges)
    gamma = None
    if d.get("gamma"):
        gamma = DistinguishedCycle(tuple(str(v) for v in d["gamma"]))
        gamma.validate(g)
    terminals = None
    if d.get("terminals"):
        terminals = (str(d["terminals"]["I"]), str(d["terminals"]["T"]))
        if len(set(terminals) & set(vertices)) != 2:
            raise ValueError(f"terminals {terminals} must be two distinct vertices")
    return g, gamma, terminals


def load_linkage(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return linkage_from_json_dict(json.load(fh))
