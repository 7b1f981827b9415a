"""Graph values, the instance format and its one reader (parse_instance),
family generators, structural edits, and the leaf peel.

Vertices are dense integers 0..n-1 so exhaustive routines can use bitsets.
Graphs are immutable; every edit returns a new value.  The leaf peel
instead works in place on a residual adjacency dict.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

Edge = tuple[int, int]

VERTEX_ROLES = ("base", "middle", "inner", "plain")
EDGE_ROLES = ("base-edge", "plain")


def edge_key(u: int, v: int) -> Edge:
    """Normalize an unordered vertex pair to a sorted tuple."""
    if u == v:
        raise ValueError(f"self-loop at vertex {u}")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """A finite simple undirected graph with optional role annotations.

    roles, when present, assigns every vertex one of base | middle | inner |
    plain.  edge_roles is a partial map; edges not listed are plain.
    The role maps take part in equality but not in the hash.
    """

    n: int
    edges: frozenset[Edge]
    roles: dict[int, str] | None = field(default=None, hash=False)
    edge_roles: dict[Edge, str] | None = field(default=None, hash=False)
    # Derived data (adjacency rows, classification), built on first use.
    _memo: dict = field(default_factory=dict, init=False, compare=False, hash=False, repr=False)

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        norm = frozenset((u, v) if u < v else (v, u) for u, v in self.edges)
        for u, v in norm:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u and v < self.n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={self.n}")
        object.__setattr__(self, "edges", norm)
        if self.roles is not None:
            if set(self.roles) != set(range(self.n)):
                raise ValueError("vertex roles must cover all vertices")
            bad = {r for r in self.roles.values() if r not in VERTEX_ROLES}
            if bad:
                raise ValueError(f"unknown vertex roles: {sorted(bad)}")
            object.__setattr__(self, "roles", dict(self.roles))
        if self.edge_roles is not None:
            er = {edge_key(u, v): tag for (u, v), tag in self.edge_roles.items()}
            for e, tag in er.items():
                if e not in norm:
                    raise ValueError(f"edge role on missing edge {e}")
                if tag not in EDGE_ROLES:
                    raise ValueError(f"unknown edge role {tag!r}")
            object.__setattr__(self, "edge_roles", er)

    @property
    def m(self) -> int:
        return len(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        return edge_key(u, v) in self.edges

    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Sorted neighbor rows, built on the first call and kept.

        Rows are tuples, so every caller shares one copy that none can
        change.
        """
        rows = self._memo.get("adjacency")
        if rows is None:
            adj: list[list[int]] = [[] for _ in range(self.n)]
            for u, v in self.edges:
                adj[u].append(v)
                adj[v].append(u)
            rows = self._memo["adjacency"] = tuple(tuple(sorted(row)) for row in adj)
        return rows

    def neighbors(self, v: int) -> list[int]:
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range")
        return list(self.adjacency()[v])

    def degree(self, v: int) -> int:
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range")
        return len(self.adjacency()[v])

    def sorted_edges(self) -> list[Edge]:
        return sorted(self.edges)


def adjacency_masks(g: Graph) -> list[int]:
    """Neighbor sets as one bitmask per vertex."""
    masks = [0] * g.n
    for u, v in g.edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


# ---------------------------------------------------------------------------
# Serialization: "n m" header, m edge lines, optional trailer lines.
# ---------------------------------------------------------------------------

# The largest vertex count a header may name.  The structured routes cost
# about 40 us and 1 KB per vertex (`onemove solve` on a 100,000-vertex
# cactus: 4.0 s and 108 MB, 2-core x86-64), so 40 s and 1 GB at the limit.
MAX_VERTICES = 1_000_000


def parse_instance(text: str) -> tuple[Graph, frozenset[int] | None]:
    """Parse the instance format: the graph, and the vertices of its
    preoccupied line (None when there is none).

    Layout: a header line "n m" (n at most MAX_VERTICES), then m lines
    "u v", then trailer lines in any order: "role v tag", "edgerole u v
    tag", and at most one "preoccupied v1 v2 ...", each vertex once.
    Blank lines and lines starting with '#' are ignored.  Errors cite
    1-based line numbers of the input text.
    """
    numbered = [
        (i, line)
        for i, raw in enumerate(text.splitlines(), 1)
        if (line := raw.strip()) and not line.startswith("#")
    ]
    if not numbered:
        raise ValueError("empty input: expected a header line 'n m'")

    def fail(lineno: int, msg: str) -> ValueError:
        return ValueError(f"line {lineno}: {msg}")

    lineno, header = numbered[0]
    parts = header.split()
    if len(parts) != 2:
        raise fail(lineno, f"expected header 'n m', got {header!r}")
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise fail(lineno, f"expected integer header 'n m', got {header!r}") from None
    if n < 0 or m < 0:
        raise fail(lineno, "header counts must be nonnegative")
    if n > MAX_VERTICES:
        raise fail(lineno, f"{n} vertices refused: the limit is {MAX_VERTICES}")
    if len(numbered) < 1 + m:
        raise ValueError(f"header promises {m} edges but only {len(numbered) - 1} data lines follow")

    edges: set[Edge] = set()
    for lineno, line in numbered[1 : 1 + m]:
        parts = line.split()
        if len(parts) != 2:
            raise fail(lineno, f"expected edge 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise fail(lineno, f"expected integer edge 'u v', got {line!r}") from None
        if u == v:
            raise fail(lineno, f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise fail(lineno, f"edge ({u}, {v}) out of range for n={n}")
        e = (u, v) if u < v else (v, u)
        if e in edges:
            raise fail(lineno, f"duplicate edge ({u}, {v})")
        edges.add(e)

    roles: dict[int, str] = {}
    edge_roles: dict[Edge, str] = {}
    pre: frozenset[int] | None = None
    for lineno, line in numbered[1 + m :]:
        parts = line.split()
        if parts[0] == "role" and len(parts) == 3:
            try:
                v = int(parts[1])
            except ValueError:
                raise fail(lineno, f"expected 'role v tag', got {line!r}") from None
            if not 0 <= v < n:
                raise fail(lineno, f"role vertex {v} out of range")
            if parts[2] not in VERTEX_ROLES:
                raise fail(lineno, f"unknown vertex role {parts[2]!r}")
            roles[v] = parts[2]
        elif parts[0] == "edgerole" and len(parts) == 4:
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise fail(lineno, f"expected 'edgerole u v tag', got {line!r}") from None
            if (min(u, v), max(u, v)) not in edges:
                raise fail(lineno, f"edge role on missing edge ({u}, {v})")
            if parts[3] not in EDGE_ROLES:
                raise fail(lineno, f"unknown edge role {parts[3]!r}")
            edge_roles[min(u, v), max(u, v)] = parts[3]
        elif parts[0] == "preoccupied":
            if pre is not None:
                raise fail(lineno, "second preoccupied line")
            try:
                listed = [int(p) for p in parts[1:]]
            except ValueError:
                raise fail(lineno, "expected integers after 'preoccupied'") from None
            pre = frozenset(listed)
            if len(pre) < len(listed):
                v = next(v for i, v in enumerate(listed) if v in listed[:i])
                raise fail(lineno, f"repeated preoccupied vertex {v}")
            for v in listed:
                if not 0 <= v < n:
                    raise fail(lineno, f"preoccupied vertex {v} out of range")
        else:
            raise fail(lineno, f"unrecognized trailing line {line!r}")

    return Graph(n, frozenset(edges), roles or None, edge_roles or None), pre


def parse_edge_list(text: str) -> Graph:
    """Parse an instance that may not have a preoccupied line."""
    g, pre = parse_instance(text)
    if pre is None:
        return g
    lineno = [raw.split()[:1] for raw in text.splitlines()].index(["preoccupied"]) + 1
    raise ValueError(f"line {lineno}: a plain edge list takes no preoccupied line")


def write_edge_list(g: Graph) -> str:
    """Serialize a graph; parse_edge_list(write_edge_list(g)) == g."""
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.sorted_edges())
    if g.roles is not None:
        lines.extend(f"role {v} {g.roles[v]}" for v in range(g.n))
    if g.edge_roles is not None:
        lines.extend(f"edgerole {u} {v} {g.edge_roles[(u, v)]}" for u, v in sorted(g.edge_roles))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Family generators.
# ---------------------------------------------------------------------------

FAMILY_KINDS = (
    "path",
    "cycle",
    "complete",
    "star",
    "wheel",
    "star_plus_matching",
    "k4_minus_star",
    "bowtie",
)


@dataclass(frozen=True)
class FamilySpec:
    """A named graph family plus its size parameter.

    For path/cycle/complete/star/wheel the size is the vertex count.  For
    star_plus_matching and k4_minus_star it is the family parameter m
    (2m and 4m+2 vertices respectively).  The bowtie is a fixed graph and
    takes no size.
    """

    kind: str
    size: int | None = None


def generate(spec: FamilySpec) -> Graph:
    """Build a member of one of the named families."""
    kind, size = spec.kind, spec.size
    if kind not in FAMILY_KINDS:
        raise ValueError(f"unknown family kind {kind!r}")
    if kind == "bowtie":
        if size not in (None, 5):
            raise ValueError("bowtie is a fixed 5-vertex graph")
        return Graph(5, frozenset({(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)}))
    if size is None:
        raise ValueError(f"family {kind!r} needs a size")
    n = size
    if kind == "path":
        if n < 1:
            raise ValueError("path needs at least 1 vertex")
        return Graph(n, frozenset((i, i + 1) for i in range(n - 1)))
    if kind == "cycle":
        if n < 3:
            raise ValueError("cycle needs at least 3 vertices")
        return Graph(n, frozenset(edge_key(i, (i + 1) % n) for i in range(n)))
    if kind == "complete":
        if n < 1:
            raise ValueError("complete graph needs at least 1 vertex")
        return Graph(n, frozenset((i, j) for i in range(n) for j in range(i + 1, n)))
    if kind == "star":
        if n < 2:
            raise ValueError("star needs at least 2 vertices")
        return Graph(n, frozenset((0, i) for i in range(1, n)))
    if kind == "wheel":
        if n < 4:
            raise ValueError("wheel needs at least 4 vertices")
        rim = [edge_key(i, i % (n - 1) + 1) for i in range(1, n)]
        return Graph(n, frozenset((0, i) for i in range(1, n)) | frozenset(rim))
    if kind == "star_plus_matching":
        # Vertices a_1..a_m are 0..m-1, b_1..b_m are m..2m-1.  a_1 is
        # adjacent to everything; a_i b_i is an edge for i >= 2.
        m_par = n
        if m_par < 2:
            raise ValueError("star_plus_matching needs parameter >= 2")
        edges = {(0, i) for i in range(1, 2 * m_par)}
        edges |= {(i, m_par + i) for i in range(1, m_par)}
        return Graph(2 * m_par, frozenset(edges))
    # k4_minus_star: hub 0, bare leaf 1, then per gadget i (1-based) the
    # leaf 4i-2, two side vertices 4i-1 and 4i, and a far vertex 4i+1.
    # The missing K4 edge of gadget i is (4i-2, 4i+1).
    m_par = n
    if m_par < 1:
        raise ValueError("k4_minus_star needs parameter >= 1")
    edges = {(0, 1)}
    for i in range(1, m_par + 1):
        leaf, s1, s2, far = 4 * i - 2, 4 * i - 1, 4 * i, 4 * i + 1
        edges.add((0, leaf))
        edges |= {(leaf, s1), (leaf, s2), (s1, s2), (s1, far), (s2, far)}
    return Graph(4 * m_par + 2, frozenset(edge_key(u, v) for u, v in edges))


# ---------------------------------------------------------------------------
# Structural edits.
# ---------------------------------------------------------------------------


def strong_product_k2(g: Graph) -> Graph:
    """Strong product with a single edge: vertex v becomes the pair 2v, 2v+1.

    The two copies of v are joined; each original edge uv yields the four
    edges between copies of u and copies of v.  Copy-pair edges are tagged
    base-edge and every vertex is tagged base.  Input annotations are not
    carried over.
    """
    edges: set[Edge] = set()
    edge_roles: dict[Edge, str] = {}
    for v in range(g.n):
        e = (2 * v, 2 * v + 1)
        edges.add(e)
        edge_roles[e] = "base-edge"
    for u, v in g.edges:
        edges |= {
            edge_key(2 * u, 2 * v),
            edge_key(2 * u + 1, 2 * v + 1),
            edge_key(2 * u, 2 * v + 1),
            edge_key(2 * u + 1, 2 * v),
        }
    roles = {v: "base" for v in range(2 * g.n)}
    return Graph(2 * g.n, frozenset(edges), roles, edge_roles)


def subdivide_all(g: Graph) -> Graph:
    """Replace every edge with a path of length 2 through a new vertex.

    Original vertices keep their labels and are tagged base; the new
    vertex for the i-th edge (sorted order) is n+i and is tagged middle.
    """
    edges: set[Edge] = set()
    roles = {v: "base" for v in range(g.n)}
    for i, (u, v) in enumerate(g.sorted_edges()):
        w = g.n + i
        roles[w] = "middle"
        edges.add((u, w))
        edges.add((v, w))
    return Graph(g.n + g.m, frozenset(edges), roles)


def edit_edge(g: Graph, u: int, v: int, mode: str) -> Graph:
    """Add, remove, or contract the edge uv.

    Contraction merges v's endpoints into min(u, v), deduplicates parallel
    edges, drops the self-loop, and relabels densely.  Edge annotations do
    not survive contraction.
    """
    e = edge_key(u, v)
    if mode == "add":
        if e in g.edges:
            raise ValueError(f"edge ({u}, {v}) already present")
        return Graph(g.n, g.edges | {e}, g.roles, g.edge_roles)
    if mode == "remove":
        if e not in g.edges:
            raise ValueError(f"({u}, {v}) is not an edge")
        edge_roles = None
        if g.edge_roles is not None:
            edge_roles = {f: tag for f, tag in g.edge_roles.items() if f != e}
        return Graph(g.n, g.edges - {e}, g.roles, edge_roles or None)
    if mode == "contract":
        if e not in g.edges:
            raise ValueError(f"({u}, {v}) is not an edge")
        keep, drop = e

        def image(w: int) -> int:
            if w == drop:
                w = keep
            return w if w < drop else w - 1

        edges = frozenset(
            edge_key(image(a), image(b)) for a, b in g.edges if edge_key(a, b) != e
        )
        roles = None
        if g.roles is not None:
            roles = {image(w): g.roles[w] for w in range(g.n) if w != drop}
            roles[image(keep)] = g.roles[keep]
        return Graph(g.n - 1, edges, roles)
    raise ValueError(f"unknown edit mode {mode!r}")


# ---------------------------------------------------------------------------
# Classification.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GraphClass:
    """Structural summary used to route inputs to the specialized solvers."""

    is_connected: bool
    is_tree: bool
    is_unicyclic: bool
    is_cactus: bool
    is_cubic: bool
    components: tuple[tuple[int, ...], ...]
    cycles: tuple[tuple[int, ...], ...]


def connected_components(g: Graph) -> list[list[int]]:
    """Vertex sets of the components, each sorted, by least vertex."""
    return [list(comp) for comp in classify(g).components]


def alternating_places(ring: tuple[int, ...] | list[int]) -> list[int]:
    """ceil(n/2) vertices of a cycle, listed in cyclic order, that clear it
    on their own: the first two, then every other vertex from the fourth,
    stopping short of the last."""
    return [ring[0], ring[1], *ring[3:-1:2]]


def classify(g: Graph) -> GraphClass:
    """Classify a graph for solver dispatch, once per Graph object.

    cycles lists each simple cycle (in cyclic vertex order) whenever the
    graph is a cactus forest, i.e. no edge lies on two cycles.
    """
    shape = g._memo.get("class")
    if shape is None:
        shape = g._memo["class"] = _classify(g)
    return shape


def _classify(g: Graph) -> GraphClass:
    """One breadth-first walk, from each unvisited root in ascending
    order, spans one component per root; then every non-tree edge closes
    one fundamental cycle with the tree path between its ends.

    The graph is a cactus forest iff no tree edge lies on two of those
    cycles.  In a cactus forest they are distinct cycles, so they share
    no edge.  Conversely, every cycle is the sum (mod 2) of the
    fundamental cycles of its non-tree edges; when those share no edge
    the sum is their union, and a simple cycle is never the union of two
    or more edge-disjoint cycles, so the fundamental cycles are all the
    cycles there are and no edge lies on two.  The walks up the tree
    therefore cost O(n) in all, and the first shared tree edge ends them.
    """
    adj = g.adjacency()
    parent = [-2] * g.n  # -2: not reached yet; -1: a root
    depth = [0] * g.n
    comps: list[tuple[int, ...]] = []
    for root in range(g.n):
        if parent[root] != -2:
            continue
        parent[root] = -1
        comp = [root]
        for v in comp:  # comp grows while it is walked
            for w in adj[v]:
                if parent[w] == -2:
                    parent[w] = v
                    depth[w] = depth[v] + 1
                    comp.append(w)
        comps.append(tuple(sorted(comp)))
    on_cycle = [False] * g.n  # whether the tree edge up from v lies on a cycle
    cycles: list[tuple[int, ...]] = []
    is_cactus = True
    for u, w in g.edges:
        if parent[w] == u or parent[u] == w:
            continue
        up, down = [u], [w]  # the tree paths from u and from w to their meeting vertex
        while is_cactus and up[-1] != down[-1]:
            side = up if depth[up[-1]] >= depth[down[-1]] else down
            is_cactus = not on_cycle[side[-1]]
            on_cycle[side[-1]] = True
            side.append(parent[side[-1]])
        if not is_cactus:
            break
        ring = up + down[-2::-1]
        least = ring.index(min(ring))
        ring = ring[least:] + ring[:least]
        if ring[-1] < ring[1]:  # walk on towards the smaller neighbor
            ring = ring[:1] + ring[:0:-1]
        cycles.append(tuple(ring))
    cycles.sort()
    connected = len(comps) == 1
    return GraphClass(
        is_connected=connected,
        is_tree=connected and g.m == g.n - 1,
        is_unicyclic=connected and g.m == g.n,
        is_cactus=is_cactus,
        is_cubic=g.n > 0 and all(len(row) == 3 for row in adj),
        components=tuple(comps),
        cycles=tuple(cycles) if is_cactus else (),
    )


def induced_subgraph(g: Graph, vertices: list[int] | set[int]) -> tuple[Graph, dict[int, int]]:
    """Induced subgraph on the given vertices, relabeled densely.

    Returns the subgraph and the old-to-new label map.
    """
    keep = sorted(set(vertices))
    for v in keep:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range")
    relabel = {old: new for new, old in enumerate(keep)}
    edges = frozenset(
        edge_key(relabel[u], relabel[v]) for u, v in g.edges if u in relabel and v in relabel
    )
    roles = {relabel[v]: g.roles[v] for v in keep} if g.roles is not None else None
    edge_roles = None
    if g.edge_roles is not None:
        edge_roles = {
            edge_key(relabel[u], relabel[v]): tag
            for (u, v), tag in g.edge_roles.items()
            if u in relabel and v in relabel
        }
    return Graph(len(keep), edges, roles, edge_roles), relabel


# ---------------------------------------------------------------------------
# Residual graphs: an adjacency dict keyed by the graph's own labels, with
# the live vertices that start occupied.  Deleting a vertex stands for its
# edges being cleared, with any slide needed to get there left to the
# greedy completion.
# ---------------------------------------------------------------------------


def delete_vertices(adj: dict[int, set[int]], pre: set[int], gone) -> set[int]:
    """Delete the vertices in gone from adj and pre; returns their
    surviving neighbors, the only vertices whose degree fell."""
    gone = set(gone)
    touched: set[int] = set()
    for w in gone:
        for x in adj.pop(w):
            if x not in gone:
                adj[x].discard(w)
                touched.add(x)
        pre.discard(w)
    return touched


def peel_leaves(adj: dict[int, set[int]], pre: set[int], dirty: set[int]) -> list[tuple[int, int, int]]:
    """Resolve degree-1 vertices until none is left; returns the steps
    (rule, leaf v, its neighbor u) in order.

    Rule 1: v and u both unoccupied: place on v, both go.  Rule 2: both
    occupied: v alone goes, u keeps its searcher.  Rule 3: occupied v:
    its searcher slides in, both go.  Rule 4: occupied u: its searcher
    slides out, both go.  The rule-1 steps plus the fewest extra
    searchers for what remains are the fewest for the whole graph: the
    paper proves it on cactus forests, and a property test checks it on
    other graphs.  Lowest rule first; within a rule, least edge_key(v, u),
    then least leaf.  adj and pre change in place, and isolated vertices
    stay in adj.  Only the vertices in dirty, those whose degree may have
    fallen since adj last had no leaf, are scanned; each vertex whose
    degree falls here joins dirty.  A heap holds every vertex whose degree
    has dropped to 1; entries that are no longer leaves are skipped.

    With pre empty every step is rule 1, the deletion of a pendant edge,
    and the order is safe: let vu be pendant with deg v = 1 in a graph
    that some complete ordering S empties.  If S deletes uv itself,
    moving that step to the front keeps every earlier step pendant,
    since deleting u and v only lowers degrees and each earlier step
    keeps its own edge.  If S instead deletes u with another leaf w,
    deleting uv there leaves w isolated in place of v and changes no
    later step.  Either way G - {u, v} is dismantlable, so one greedy
    pass empties every dismantlable graph, in O((n + m) log n).
    """
    heap: list[tuple[int, Edge, int, int]] = []

    def push(v: int) -> None:
        u = next(iter(adj[v]))
        rule = (2 if u in pre else 3) if v in pre else (4 if u in pre else 1)
        heapq.heappush(heap, (rule, (v, u) if v < u else (u, v), v, u))

    for v in dirty:
        if len(adj.get(v, ())) == 1:
            push(v)
    steps: list[tuple[int, int, int]] = []
    while heap:
        rule, _, v, u = heapq.heappop(heap)
        if len(adj.get(v, ())) != 1:
            continue
        steps.append((rule, v, u))
        touched = delete_vertices(adj, pre, (v,) if rule == 2 else (v, u))
        dirty |= touched
        for x in touched:
            if len(adj[x]) == 1:
                push(x)
    return steps
