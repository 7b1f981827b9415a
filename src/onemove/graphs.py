"""Graph values, edge-list serialization, family generators, and structural edits.

Vertices are dense integers 0..n-1 so exhaustive routines can use bitsets.
Graphs are immutable; every edit returns a new value.
"""

from __future__ import annotations

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

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        norm = frozenset(edge_key(u, v) for u, v in self.edges)
        object.__setattr__(self, "edges", norm)
        for u, v in norm:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={self.n}")
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

    def adjacency(self) -> list[list[int]]:
        """Sorted neighbor lists, built fresh on each call."""
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        for row in adj:
            row.sort()
        return adj

    def neighbors(self, v: int) -> list[int]:
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range")
        return sorted(w for e in self.edges if v in e for w in e if w != v)

    def degree(self, v: int) -> int:
        return sum(1 for e in self.edges if v in e)

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
# Serialization: "n m" header, m edge lines, optional trailing role lines.
# ---------------------------------------------------------------------------


def parse_edge_list(text: str) -> Graph:
    """Parse the plain edge-list format.

    Layout: a header line "n m", then m lines "u v", then optionally
    "role v tag" lines for vertex roles and "edgerole u v tag" lines for
    edge roles.  Blank lines and lines starting with '#' are ignored.
    Errors cite 1-based line numbers of the input text.
    """
    numbered = [
        (i, line.strip())
        for i, line in enumerate(text.splitlines(), 1)
        if line.strip() and not line.strip().startswith("#")
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
        e = edge_key(u, v)
        if e in edges:
            raise fail(lineno, f"duplicate edge ({u}, {v})")
        edges.add(e)

    roles: dict[int, str] = {}
    edge_roles: dict[Edge, str] = {}
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
            if edge_key(u, v) not in edges:
                raise fail(lineno, f"edge role on missing edge ({u}, {v})")
            if parts[3] not in EDGE_ROLES:
                raise fail(lineno, f"unknown edge role {parts[3]!r}")
            edge_roles[edge_key(u, v)] = parts[3]
        else:
            raise fail(lineno, f"unrecognized trailing line {line!r}")
    if roles and set(roles) != set(range(n)):
        missing = sorted(set(range(n)) - set(roles))
        raise ValueError(f"vertex roles present but missing for vertices {missing}")

    return Graph(n, frozenset(edges), roles or None, edge_roles or None)


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


def delete_pendent_edge(g: Graph, u: int, v: int) -> tuple[Graph, dict[int, int]]:
    """Remove a pendent edge together with both of its endpoints.

    At least one endpoint must have degree 1.  Surviving vertices are
    relabeled densely; the returned map sends old labels to new ones.
    """
    if not g.has_edge(u, v):
        raise ValueError(f"({u}, {v}) is not an edge")
    if g.degree(u) != 1 and g.degree(v) != 1:
        raise ValueError(f"edge ({u}, {v}) is not pendent: neither endpoint has degree 1")
    survivors = [w for w in range(g.n) if w not in (u, v)]
    relabel = {old: new for new, old in enumerate(survivors)}
    edges = frozenset(
        edge_key(relabel[a], relabel[b]) for a, b in g.edges if a not in (u, v) and b not in (u, v)
    )
    roles = None
    if g.roles is not None:
        roles = {relabel[w]: g.roles[w] for w in survivors}
    edge_roles = None
    if g.edge_roles is not None:
        edge_roles = {
            edge_key(relabel[a], relabel[b]): tag
            for (a, b), tag in g.edge_roles.items()
            if a not in (u, v) and b not in (u, v)
        }
    return Graph(g.n - 2, edges, roles, edge_roles), relabel


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
    adj = g.adjacency()
    seen = [False] * g.n
    comps: list[list[int]] = []
    for s in range(g.n):
        if seen[s]:
            continue
        comp = [s]
        seen[s] = True
        frontier = [s]
        while frontier:
            v = frontier.pop()
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
                    frontier.append(w)
        comps.append(sorted(comp))
    return comps


def _biconnected_blocks(g: Graph) -> list[list[Edge]]:
    """Edge sets of the biconnected blocks, via iterative lowpoint DFS."""
    adj = g.adjacency()
    disc = [-1] * g.n
    low = [0] * g.n
    timer = 0
    blocks: list[list[Edge]] = []
    edge_stack: list[Edge] = []
    for root in range(g.n):
        if disc[root] != -1:
            continue
        disc[root] = low[root] = timer
        timer += 1
        stack: list[tuple[int, int, object]] = [(root, -1, iter(adj[root]))]
        while stack:
            v, parent, it = stack[-1]
            w = next(it, None)  # type: ignore[call-overload]
            if w is None:
                stack.pop()
                if stack:
                    u = stack[-1][0]
                    low[u] = min(low[u], low[v])
                    if low[v] >= disc[u]:
                        block: list[Edge] = []
                        while edge_stack[-1] != edge_key(u, v):
                            block.append(edge_stack.pop())
                        block.append(edge_stack.pop())
                        blocks.append(block)
                continue
            if w == parent:
                continue
            if disc[w] == -1:
                edge_stack.append(edge_key(v, w))
                disc[w] = low[w] = timer
                timer += 1
                stack.append((w, v, iter(adj[w])))
            elif disc[w] < disc[v]:
                edge_stack.append(edge_key(v, w))
                low[v] = min(low[v], disc[w])
    return blocks


def _cycle_order(block: list[Edge]) -> tuple[int, ...]:
    """Vertices of a cycle block in traversal order from its least vertex."""
    adj: dict[int, list[int]] = {}
    for u, v in block:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    start = min(adj)
    order = [start]
    prev, cur = -1, start
    while True:
        nxt = min(w for w in adj[cur] if w != prev)
        if nxt == start:
            break
        order.append(nxt)
        prev, cur = cur, nxt
    return tuple(order)


def classify(g: Graph) -> GraphClass:
    """Classify a graph for solver dispatch.

    cycles lists each simple cycle (in cyclic vertex order) whenever the
    graph is a cactus forest, i.e. no edge lies on two cycles.
    """
    comps = connected_components(g)
    connected = len(comps) == 1 and g.n > 0
    blocks = _biconnected_blocks(g)
    is_cactus = True
    cycles: list[tuple[int, ...]] = []
    for block in blocks:
        verts = {w for e in block for w in e}
        if len(block) == 1:
            continue
        if len(block) == len(verts):
            cycles.append(_cycle_order(block))
        else:
            is_cactus = False
    cycles.sort()
    return GraphClass(
        is_connected=connected,
        is_tree=connected and g.m == g.n - 1,
        is_unicyclic=connected and g.m == g.n,
        is_cactus=is_cactus,
        is_cubic=g.n > 0 and all(g.degree(v) == 3 for v in range(g.n)),
        components=tuple(tuple(c) for c in comps),
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
