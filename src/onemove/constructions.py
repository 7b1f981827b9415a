"""Derived graphs and edit experiments.

Builds the vertex-cover reduction instances together with their clearing
certificates, evaluates the subdivision formula with a forcing witness,
sweeps out every achievable value on a fixed vertex count, and probes how
single edge edits move the clearing number.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from math import ceil

from .engines import Strategy, certify, complete_with_slides
from .exact import ParameterResult, czf_exact
from .graphs import (
    Edge,
    FamilySpec,
    Graph,
    alternating_places,
    classify,
    edge_key,
    edit_edge,
    generate,
    strong_product_k2,
    subdivide_all,
    write_edge_list,
)

log = logging.getLogger(__name__)

Block = tuple[int, int, int, int]


# ---------------------------------------------------------------------------
# Vertex cover reduction.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReductionInstance:
    """A cubic vertex-cover question recast as a clearing-budget question.

    h is the derived graph and k the searcher budget; source holds the
    original graph g and the cover size l.  blocks maps each edge of g to
    its four clique gadgets as (base, base, inner, inner) quadruples, in
    copy order (even, even), (even, odd), (odd, even), (odd, odd).
    """

    h: Graph
    k: int
    source: tuple[Graph, int]
    blocks: dict[Edge, tuple[Block, Block, Block, Block]]

    def __post_init__(self) -> None:
        g, l = self.source
        if self.h.n != 2 * g.n + 8 * g.m:
            raise ValueError("derived graph has the wrong vertex count")
        if self.k != 4 * g.m + g.n + l:
            raise ValueError("budget does not match the defining formula")
        if self.h.n and max(self.h.degree(v) for v in range(self.h.n)) > 19:
            raise ValueError("derived graph exceeds the degree bound of 19")
        if set(self.blocks) != set(g.edges):
            raise ValueError("block index does not cover the source edges")
        roles = self.h.roles or {}
        for quads in self.blocks.values():
            if len(quads) != 4:
                raise ValueError("each source edge owns exactly four blocks")
            for quad in quads:
                members = sorted(quad)
                for i, x in enumerate(members):
                    for y in members[i + 1 :]:
                        if not self.h.has_edge(x, y):
                            raise ValueError(f"block {quad} is not a clique")
                inner = {x for x in quad if roles.get(x) == "inner"}
                if inner != set(quad[2:]):
                    raise ValueError(f"block {quad} must have inner pair {quad[2:]}")


def vc_to_czf_reduction(g: Graph, l: int) -> ReductionInstance:
    """Derive the budget instance for a cubic graph and cover size l.

    Every vertex is doubled into an adjacent pair, and each of the four
    cross edges per original edge gains a clique gadget of two extra
    vertices.  The budget works out to 4m + n + l.
    """
    shape = classify(g)
    if not shape.is_cubic:
        raise ValueError("reduction requires a cubic input graph")
    if not shape.is_connected:
        raise ValueError("reduction requires a connected input graph")
    if l < 1:
        raise ValueError("cover budget l must be at least 1")
    base = strong_product_k2(g)
    edges = set(base.edges)
    roles = dict(base.roles or {})
    blocks: dict[Edge, tuple[Block, Block, Block, Block]] = {}
    nxt = base.n
    for u, v in g.sorted_edges():
        quads = []
        for a in (2 * u, 2 * u + 1):
            for b in (2 * v, 2 * v + 1):
                p, q = nxt, nxt + 1
                nxt += 2
                roles[p] = roles[q] = "inner"
                edges.add((p, q))
                edges |= {(a, p), (a, q), (b, p), (b, q)}
                quads.append((a, b, p, q))
        blocks[(u, v)] = tuple(quads)
    h = Graph(nxt, frozenset(edges), roles, base.edge_roles)
    return ReductionInstance(h, 4 * g.m + g.n + l, (g, l), blocks)


def cover_to_strategy(inst: ReductionInstance, cover) -> Strategy:
    """Turn a vertex cover of the source graph into a clearing strategy.

    Searchers go on every even copy, on the odd copies of the cover
    (padded up to l, supersets of covers are covers), and on the first
    inner vertex of each gadget.  These placements clear h: gadgets
    incident to even copies clear first, then the fiber edges of
    uncovered vertices by sliding, then the gadgets on odd copies.  The
    engine's greedy completion schedules the slides, since every maximal
    slide order reaches the same cleared set.  The result is replayed
    before returning.
    """
    g, l = inst.source
    chosen = set(cover)
    if not chosen <= set(range(g.n)):
        raise ValueError("cover contains vertices outside the source graph")
    for u, v in g.sorted_edges():
        if u not in chosen and v not in chosen:
            raise ValueError(f"not a vertex cover: edge ({u}, {v}) is uncovered")
    if len(chosen) > l:
        raise ValueError(f"cover has {len(chosen)} vertices but the budget is {l}")
    for v in range(g.n):
        if len(chosen) == l:
            break
        chosen.add(v)
    # A budget beyond n parks the surplus on second inner vertices, one
    # per gadget.
    surplus = l - len(chosen)
    if surplus > 4 * g.m:
        raise ValueError("budget l is too large to spend on this instance")

    places = [2 * v for v in range(g.n)]
    places += [2 * u + 1 for u in sorted(chosen)]
    for u, v in g.sorted_edges():
        for quad in inst.blocks[(u, v)]:
            places.append(quad[2])
            if surplus > 0:
                places.append(quad[3])
                surplus -= 1
    strategy = complete_with_slides(inst.h, places)
    if strategy.searcher_count() != inst.k:
        raise RuntimeError("reduction strategy missed the budget; this is a bug")
    certify(inst.h, strategy)
    return strategy


def write_reduction(inst: ReductionInstance) -> tuple[str, str]:
    """Serialize as an annotated edge list plus a JSON sidecar.

    The sidecar carries the budget, the cover size, and the block index
    keyed by source edge as "u,v".
    """
    sidecar = {
        "k": inst.k,
        "l": inst.source[1],
        "blocks": {
            f"{u},{v}": [list(quad) for quad in quads]
            for (u, v), quads in sorted(inst.blocks.items())
        },
    }
    return write_edge_list(inst.h), json.dumps(sidecar, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# Subdivision formula.
# ---------------------------------------------------------------------------


def _find_cycle(g: Graph) -> tuple[int, ...]:
    """Some cycle of g in cyclic order, or ValueError if g is a forest.

    The edges before the first one, in sorted order, whose ends they
    already join form a forest; with that edge they hold exactly one
    cycle, which classify walks.
    """
    root = list(range(g.n))

    def find(v: int) -> int:
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    edges = g.sorted_edges()
    for i, (u, v) in enumerate(edges):
        a, b = find(u), find(v)
        if a == b:
            return classify(Graph(g.n, edges[: i + 1])).cycles[0]
        root[a] = b
    raise ValueError("graph has no cycle")


def subdivision_value(g: Graph) -> ParameterResult:
    """Clearing number of the full subdivision, with a forcing witness.

    Subdividing every edge of a tree costs one searcher per edge plus
    one; any other connected graph costs exactly one per edge.  The
    witness colors one leaf and all middles in the tree case, and
    otherwise swaps the middles along one cycle for the alternating
    cycle pattern.  It is replayed through certify before returning.
    """
    shape = classify(g)
    if not shape.is_connected:
        raise ValueError("input graph must be connected")
    gp = subdivide_all(g)
    middle = {e: g.n + i for i, e in enumerate(g.sorted_edges())}
    if shape.is_tree:
        value = g.m + 1
        if g.m == 0:
            witness = [0]
        else:
            leaf = next(v for v in range(g.n) if g.degree(v) == 1)
            witness = sorted([leaf, *middle.values()])
    else:
        value = g.m
        cyc = _find_cycle(g)
        ring: list[int] = []
        for i, v in enumerate(cyc):
            ring.append(v)
            ring.append(middle[edge_key(v, cyc[(i + 1) % len(cyc)])])
        pattern = set(alternating_places(ring))
        off_cycle = set(middle.values()) - set(ring)
        witness = sorted(pattern | off_cycle)
    if len(witness) != value:
        raise RuntimeError("subdivision witness has the wrong size; this is a bug")
    certify(gp, witness)
    return ParameterResult(value, witness, "formula")


# ---------------------------------------------------------------------------
# Value spectrum and edit probes.
# ---------------------------------------------------------------------------


def spectrum_witness(n: int, d: int) -> Graph:
    """A graph on n vertices whose clearing number is exactly d.

    Starts from the cycle and adds missing edges in lexicographic order.
    Each addition moves the value by at most one and the endpoints of the
    sweep bracket d, so some prefix lands on it exactly.
    """
    if n < 2 or not ceil(n / 2) <= d <= n - 1:
        raise ValueError(f"need ceil(n/2) <= d <= n-1, got n={n} d={d}")
    if n == 2:
        return generate(FamilySpec("complete", 2))
    g = generate(FamilySpec("cycle", n))
    value = czf_exact(g).value
    for u in range(n):
        for v in range(u + 1, n):
            if value == d:
                return g
            if g.has_edge(u, v):
                continue
            g = edit_edge(g, u, v, "add")
            step = czf_exact(g).value
            if abs(step - value) > 1:
                raise RuntimeError("one edge moved the value by two; this is a bug")
            value = step
    if value != d:
        raise RuntimeError("spectrum sweep missed its target; this is a bug")
    return g


def perturb_delta(g: Graph, e: tuple[int, int], mode: str, before: int | None = None) -> int:
    """Change in the clearing number from one edge addition or removal.

    before is g's clearing number, computed here when not given.
    """
    if mode not in ("add", "remove"):
        raise ValueError(f"unknown edit mode {mode!r}")
    u, v = e
    if before is None:
        before = czf_exact(g).value
    after = czf_exact(edit_edge(g, u, v, mode)).value
    delta = after - before
    if delta not in (-1, 0, 1):
        raise RuntimeError("one-edge edit moved the value by more than one; this is a bug")
    return delta


def contraction_probe(g: Graph, e: tuple[int, int], before: int | None = None) -> tuple[int, int]:
    """Clearing number before and after contracting one edge.

    Whether contraction can ever raise the number is unsettled, so any
    increase is logged as a finding rather than treated as an error.  An
    increase above one is impossible and treated as a bug.  before is g's
    clearing number, computed here when not given.
    """
    u, v = e
    if before is None:
        before = czf_exact(g).value
    after = czf_exact(edit_edge(g, u, v, "contract")).value
    if after > before:
        log.info(
            "contracting (%d, %d) raised the clearing number from %d to %d",
            u,
            v,
            before,
            after,
        )
    if after > before + 1:
        raise RuntimeError("contraction raised the value by more than one; this is a bug")
    return before, after


def probe_grid(g: Graph, mode: str) -> list[tuple[str, Graph, Edge, int]]:
    """One probe_edit task per edit of the mode: every non-edge for add,
    every edge for remove and contract.  g's clearing number is computed
    once here and carried by every task."""
    if mode == "add":
        grid = [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if not g.has_edge(u, v)]
    else:
        grid = g.sorted_edges()
    if not grid:
        return []
    before = czf_exact(g).value
    return [(mode, g, e, before) for e in grid]


def probe_edit(task: tuple[str, Graph, Edge, int]) -> dict:
    """The report entry of one probe_grid task.  Module level, so that a
    process pool can run the grid."""
    mode, g, e, before = task
    if mode == "contract":
        before, after = contraction_probe(g, e, before)
        return {"edge": list(e), "before": before, "after": after}
    return {"edge": list(e), "delta": perturb_delta(g, e, mode, before)}


# ---------------------------------------------------------------------------
# Monotone edit chains.
# ---------------------------------------------------------------------------


def monotone_chain(kind: str, m: int) -> list[tuple[Graph, int]]:
    """A base graph and edge additions with a constant per-step effect.

    Returns (graph, expected change) pairs starting from the base at
    change 0.  decrease pairs up the leaves of a star, increase fills in
    the missing clique edge of every k4_minus_star gadget, and neutral
    runs through the fill-in edges of star_plus_matching in their safe
    order: both copies first, mixed pairs last.
    """
    if m < 2:
        raise ValueError("m must be at least 2")
    if kind == "decrease":
        g = generate(FamilySpec("star", m))
        additions = [(2 * i + 1, 2 * i + 2) for i in range(m // 2 - 1)]
        delta = -1
    elif kind == "increase":
        g = generate(FamilySpec("k4_minus_star", m))
        additions = [(4 * i - 2, 4 * i + 1) for i in range(1, m + 1)]
        delta = 1
    elif kind == "neutral":
        g = generate(FamilySpec("star_plus_matching", m))
        pairs = [(i, j) for i in range(2, m + 1) for j in range(i + 1, m + 1)]
        additions = [(i - 1, j - 1) for i, j in pairs]
        additions += [
            (m + i - 1, m + j - 1)
            for i in range(1, m + 1)
            for j in range(i + 1, m + 1)
        ]
        additions += [(i - 1, m + j - 1) for i, j in pairs]
        delta = 0
    else:
        raise ValueError(f"unknown chain kind {kind!r}")
    chain = [(g, 0)]
    for u, v in additions:
        g = edit_edge(g, u, v, "add")
        chain.append((g, delta))
    return chain
