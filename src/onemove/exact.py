"""Exhaustive oracles: minimum clearing numbers with replayable witnesses.

Every specialized solver in this package is validated against these
routines, so they stay deliberately independent of each other: the three
process oracles simulate their own process definitions and share no
shortcuts beyond the graph representation, and the matching oracle
searches orderings of matchings without playing any process.

The forcing and deduction searches are bit-sliced in pure Python: a
part of a sweep, at most _SWEEP_CHUNK candidates, is a few ints per
vertex whose bit i describes candidate i, and a round of the process
costs a few int operations per edge on every candidate at once.  The
forcing search plays each size class of start sets this way
(_least_forcing_row), and the deduction search every total's searcher
layouts, one int per vertex and searcher count (_least_protecting_row).
The sliding search plays every placement set with its own scalar bitset
step, _slides_clear, and replays only the winner through the engines.
Each oracle plays its own process.

No oracle keeps a result between calls.  One table outlives a call:
_LAYOUT_PLANES, the deduction sweep's read-only layout planes of at most
_SWEEP_CHUNK layouts each, filled on first use and depending only on
their size, never on a graph searched before.  The forcing search's
membership bitsets (_member_bits) are kept for one czf_exact component
only.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

from .deduction import Layout, run_deduction
from .engines import cfms_run, complete_with_slides
from .graphs import Graph, adjacency_masks, connected_components, edge_key, induced_subgraph

# The forcing search's slowest 24-vertex inputs measured are G(24, p)
# with p = 0.45..0.6: 0.10-0.22 s over seeds 1-3 and two runs.  G(24, p)
# at the other p from 0.1 to 0.95 took at most 0.17 s, and the star, the
# path and K(12, 12) at most 0.11 s.
CZF_EXACT_CEILING = 24
# The deduction search's slowest 14-vertex inputs measured are the star
# with its center last (every total from 7 to 12 is swept in full), at
# 0.17-0.28 s, and G(14, p) with p = 0.85..0.95, at most 0.30 s over
# seeds 1-6.  At n = 15 the same star took 0.71-1.2 s and G(15, 0.95)
# up to 1.6 s.
D_EXACT_CEILING = 14
# The same star, center last, is the sliding search's slowest input
# measured: 0.02-0.04 s at n = 13, 0.05-0.09 s at 14, 0.09-0.16 s at 15
# and 0.23-0.39 s at 16.  G(15, p), p = 0.1..0.95, took at most 0.13 s,
# and the edgeless 15-vertex graph 0.12 s.
CFMS_EXACT_CEILING = 15
MU_EXACT_CEILING = 16

# Most start sets or layouts per part of the forcing and deduction
# sweeps: each sweep stops after the first part with a hit.  On
# noncactus-route's exact-route inputs, 2^13 start sets per part swept
# 17% faster than 2^15 (an early hit ends a smaller part), and the
# n = 24 inputs named above about 20% slower.  On the 240 seed-1/2
# oracle-identity graphs, the deduction sweep ran as fast with parts of
# 2^11 layouts and about 1.5x slower with 2^9.
_SWEEP_CHUNK = 1 << 13


def _check_ceiling(oracle: str, n: int, ceiling: int, force: bool, *, part: str = "graph") -> None:
    """Refuse an n-vertex input (or component, as part says) past the
    oracle's ceiling unless force is given."""
    if n > ceiling and not force:
        raise ValueError(
            f"{oracle} refused for a {n}-vertex {part} > {ceiling}; pass force=True (--force) to insist"
        )


@dataclass(frozen=True)
class ParameterResult:
    """A computed parameter value with its certificate.

    witness depends on the parameter: a vertex list for forcing sets and
    independent sets, a Layout for the deduction number, a Strategy for
    the sliding number, a UniquenessWitness for matchings.  trace holds
    the cactus solver's rule applications when solver.solve took the
    cactus method, and is empty otherwise.
    """

    value: int
    witness: object
    method: str
    trace: tuple[str, ...] = ()


@dataclass(frozen=True)
class UniquenessWitness:
    """A matching plus the bipartition certifying its uniqueness property.

    matching[i] joins v1[i] to v2[i]; the matching must be the unique
    perfect matching of the bipartite subgraph of all edges between v1
    and v2.
    """

    matching: tuple[tuple[int, int], ...]
    v1: tuple[int, ...]
    v2: tuple[int, ...]


# ---------------------------------------------------------------------------
# Constrained zero forcing.
# ---------------------------------------------------------------------------


def _mask_chunks(n: int, k: int, size: int):
    """Every k-subset of range(n) in itertools.combinations order, as
    (prefix, j, r) parts of at most size subsets: the mask prefix of
    vertices below j joined to each r-subset of {j, ..., n-1}.  Subsets
    holding j come first, so a class splits on its leading element.  A
    stack, not recursion, holds the splits, so n may pass the interpreter's
    recursion limit."""
    todo = [(0, 0, k)]
    while todo:
        prefix, j, r = todo.pop()
        if comb(n - j, r) <= size:
            yield prefix, j, r
        else:
            todo.append((prefix, j + 1, r))
            todo.append((prefix | 1 << j, j + 1, r - 1))


def _member_bits(m: int, r: int, tables: dict) -> list[int]:
    """M(m, r): bit i of entry v is set when the i-th r-subset of range(m)
    in combinations order holds v.  The first C(m-1, r-1) subsets hold 0,
    so M(m, r)[0] is all ones over them and M(m, r)[v+1] is M(m-1, r-1)[v]
    followed by M(m-1, r)[v].  tables keeps every M built for one search;
    the ones M(m, r) needs are built bottom up, smallest m first."""
    if (m, r) not in tables:
        for mm in range(m + 1):
            for rr in range(max(0, r - m + mm), min(r, mm) + 1):
                if (mm, rr) in tables:
                    continue
                if rr == 0 or rr == mm:
                    # A single subset: no vertex, or every vertex.
                    bits = [1 if rr else 0] * mm
                else:
                    shift = comb(mm - 1, rr - 1)
                    pairs = zip(tables[mm - 1, rr - 1], tables[mm - 1, rr])
                    bits = [(1 << shift) - 1] + [a | b << shift for a, b in pairs]
                tables[mm, rr] = bits
    return tables[m, r]


def _least_forcing_row(adj, start: list[int], live: int) -> int | None:
    """Index of the first row whose forcing closure colors every vertex.

    Rows are bit positions: bit i of start[v] is set when row i starts
    with v colored, and live holds every row.  A round visits v = 0, ...,
    n-1 and fires v in every live row where v started colored and has
    exactly one uncolored neighbor, which it colors.  A vertex that has
    fired has no uncolored neighbor left, so it never fires twice.  A row
    leaves once a round fires nothing in it (its closure is reached) or
    leaves nothing uncolored, and once a hit is known every later row
    leaves too, so the last hit found is the least one.
    """
    uncolored = [live & ~s for s in start]
    best = None
    while live:
        fired = 0
        for v, nbrs in enumerate(adj):
            cand = start[v] & live
            one = 0
            for w in nbrs:
                u = uncolored[w] & cand
                if u:
                    # Rows with two uncolored neighbors drop out of cand.
                    cand ^= one & u
                    one |= u
                    if not cand:
                        break
            fire = cand & one
            if fire:
                fired |= fire
                keep = ~fire
                for w in nbrs:
                    uncolored[w] &= keep
        left = 0
        for u in uncolored:
            left |= u
        done = live & ~left
        if done:
            # Every live row precedes the best hit so far, so a new hit
            # is always the new least one.
            best = (done & -done).bit_length() - 1
            fired &= (1 << best) - 1
        live = fired
    return best


def _first_full(adj, k: int, tables: dict) -> int | None:
    """The first k-subset mask in combinations order whose forcing closure
    colors every vertex, played one _mask_chunks part at a time: start[v]
    is v's membership over the part's rows, all ones or 0 below the part's
    j and _member_bits' M(n - j, r) above it."""
    n = len(adj)
    for prefix, j, r in _mask_chunks(n, k, _SWEEP_CHUNK):
        ones = (1 << comb(n - j, r)) - 1
        start = [ones if prefix >> v & 1 else 0 for v in range(j)] + _member_bits(n - j, r, tables)
        row = _least_forcing_row(adj, start, ones)
        if row is not None:
            return sum(1 << v for v in range(n) if start[v] >> row & 1)
    return None


def _min_forcing_set(adj, lower: int) -> tuple[int, int]:
    """Smallest mask whose forcing closure colors everything, adj holding
    each vertex's neighbors.

    Returns (size, mask); ties break by combination enumeration order.
    """
    tables: dict = {}
    for k in range(max(lower, 1), len(adj) + 1):
        mask = _first_full(adj, k, tables)
        if mask is not None:
            return k, mask
    raise RuntimeError("no start set forces the graph, not even the full vertex set; this is a bug")


def czf_exact(g: Graph, *, force: bool = False) -> ParameterResult:
    """Minimum size of a successful forcing set, by exhaustive search.

    Works componentwise; within a component with an edge the search starts
    at max(ceil(n/2), delta), delta the component's minimum degree.  A
    forcing set of size k colors at most 2k vertices, and the first force
    needs an initially colored vertex with all but one of its neighbors
    colored, so at least deg v vertices start colored (with no force at
    all, every vertex does).  The ceiling counts the widest component:
    one past it is refused before any component is searched unless force
    is given.
    """
    components = connected_components(g)
    widest = max(map(len, components), default=0)
    _check_ceiling("czf_exact", widest, CZF_EXACT_CEILING, force, part="component")
    total = 0
    witness: list[int] = []
    for comp in components:
        if len(comp) == 1:
            total += 1
            witness.extend(comp)
            continue
        # comp is sorted, and induced_subgraph numbers it in that order.
        adj = (g if len(comp) == g.n else induced_subgraph(g, comp)[0]).adjacency()
        lower = max((len(adj) + 1) // 2, min(map(len, adj)))
        size, mask = _min_forcing_set(adj, lower)
        total += size
        witness.extend(comp[v] for v in range(len(adj)) if mask >> v & 1)
    return ParameterResult(total, sorted(witness), "exact")


# ---------------------------------------------------------------------------
# Deduction number.
# ---------------------------------------------------------------------------


_LAYOUT_PLANES: dict[tuple[int, int], tuple[tuple[int, ...], ...]] = {}


def _layout_planes(m: int, t: int) -> tuple[tuple[int, ...], ...]:
    """T(m, t): the t-searcher layouts on range(m) in
    combinations_with_replacement order, as one tuple per position p whose
    entry k-1 has bit i set when layout i holds at least k searchers on p.

    T(m, t) is e_0 added to each of T(m, t-1), followed by T(m-1, t)
    moved one position up, so entry 0 of position 0 is all ones over the
    first C(m+t-2, t-1) layouts.  The tables T(m, t) needs are built
    bottom up, smallest m first, and kept in _LAYOUT_PLANES for every
    later call: a table depends on (m, t) alone, and the sweep asks only
    for tables of at most _SWEEP_CHUNK layouts.
    """
    if (m, t) not in _LAYOUT_PLANES:
        for mm in range(1, m + 1):
            for tt in range(t + 1):
                if (mm, tt) in _LAYOUT_PLANES:
                    continue
                if tt == 0 or mm == 1:
                    # A single layout: no searcher, or all on vertex 0.
                    planes = ((1,) * tt,) + ((),) * (mm - 1)
                else:
                    first, rest = _LAYOUT_PLANES[mm, tt - 1], _LAYOUT_PLANES[mm - 1, tt]
                    shift = comb(mm + tt - 2, tt - 1)
                    planes = (((1 << shift) - 1,) + first[0],) + tuple(
                        tuple(a | b << shift for a, b in itertools.zip_longest(p, q, fillvalue=0))
                        for p, q in zip(first[1:], rest)
                    )
                _LAYOUT_PLANES[mm, tt] = planes
    return _LAYOUT_PLANES[m, t]


def _layout_parts(n: int, total: int, size: int):
    """Every total-searcher layout on range(n) in
    combinations_with_replacement order, as (prefix, j, r) parts of at
    most size layouts: the count tuple prefix plus each r-searcher layout
    on {j, ..., n-1}.  Layouts with a searcher on j come first, so a part
    splits into prefix + e_j with r-1 searchers left, then j+1 with r.  A
    stack, not recursion, holds the splits."""
    todo = [((0,) * n, 0, total)]
    while todo:
        prefix, j, r = todo.pop()
        if comb(n - j + r - 1, r) <= size:
            yield prefix, j, r
        else:
            todo.append((prefix, j + 1, r))
            todo.append((prefix[:j] + (prefix[j] + 1,) + prefix[j + 1 :], j, r - 1))


def _least_protecting_row(adj, ge, unprotected: list[int], live: int) -> int | None:
    """Index of the first row whose deduction process protects every vertex.

    Rows are bit positions: entry k-1 of ge[v] has bit i set when row i
    holds at least k searchers on v, bit i of unprotected[v] (updated in
    place) when v is not protected in row i, and live holds the rows to
    play.  A round visits v = 0, ..., n-1 and fires v in every live row
    where 1 <= |N(v) - P| <= c_v, P the protected set, which protects all
    of N(v).  The count runs as threshold masks, at[k] holding the rows
    with more than k unprotected neighbors seen; a row whose count passes
    c_v drops out.  Firing is monotone: if v can fire at P, it can at
    every P' containing P, unless N(v) is inside P' and firing adds
    nothing.  So firing in place ends at the same protected set as any
    other maximal order, the least one closed under firing that contains
    the support, and a vertex fires once.  A row leaves once a round fires
    nothing in it or leaves nothing unprotected, and once a hit is known
    every later row leaves too, so the last hit found is the least one.
    """
    best = None
    while live:
        fired = 0
        for v, nbrs in enumerate(adj):
            held = ge[v]
            cand = held[0] & live if held else 0
            if not cand:
                continue
            at = [0] * len(held)
            for w in nbrs:
                carry = unprotected[w] & cand
                k = 0
                while carry:
                    if k == len(held):
                        cand ^= carry
                        break
                    # Rows reaching k + 1 unprotected neighbors need as
                    # many searchers on v.
                    cand ^= carry & ~held[k]
                    carry, at[k] = carry & at[k], at[k] | carry
                    k += 1
                if not cand:
                    break
            fire = cand & at[0]
            if fire:
                fired |= fire
                keep = ~fire
                for w in nbrs:
                    unprotected[w] &= keep
        left = 0
        for u in unprotected:
            left |= u
        done = live & ~left
        if done:
            # Every live row precedes the best hit so far, so a new hit
            # is always the new least one.
            best = (done & -done).bit_length() - 1
            fired &= (1 << best) - 1
        live = fired
    return best


def _first_layout(adj, total: int) -> list[int] | None:
    """Count row of the first total-searcher layout in
    combinations_with_replacement order that protects every vertex, played
    one _layout_parts part at a time: ge[v] is prefix[v] all-ones planes
    followed, for v >= j, by v's planes in _layout_planes(n - j, r)."""
    n = len(adj)
    for prefix, j, r in _layout_parts(n, total, _SWEEP_CHUNK):
        ones = (1 << comb(n - j + r - 1, r)) - 1
        planes = _layout_planes(n - j, r)
        ge = [(ones,) * c + (planes[v - j] if v >= j else ()) for v, c in enumerate(prefix)]
        unprotected = [ones & ~held[0] if held else ones for held in ge]
        row = _least_protecting_row(adj, ge, unprotected, ones)
        if row is not None:
            return [sum(plane >> row & 1 for plane in held) for held in ge]
    return None


def d_exact(g: Graph, *, force: bool = False) -> ParameterResult:
    """Minimum total searchers over all layouts, including repeats.

    Enumerates layouts by ascending total, so the result does not assume
    that one searcher per vertex suffices; that fact comes out of the
    equivalence checks instead.  Totals start at max(ceil(n/2), delta),
    delta the minimum degree.  A vertex that fires sends one searcher per
    newly protected neighbor, so t searchers protect at most
    |support| + t <= 2t vertices.  If the first vertex v to fire holds c
    searchers, then c >= |N(v) - P|, so the total is at least
    c + |N(v) & P| >= deg v; with no firing every vertex holds a searcher.
    Each total goes to _first_layout, which sweeps its layouts bit-sliced;
    the first success in combinations_with_replacement order wins, and it
    is replayed once through run_deduction.  Refuses graphs above
    D_EXACT_CEILING unless force is given.
    """
    _check_ceiling("d_exact", g.n, D_EXACT_CEILING, force)
    if g.n == 0:
        return ParameterResult(0, Layout({}), "exact")
    adj = g.adjacency()
    lower = max(1, (g.n + 1) // 2, min(map(len, adj)))
    for total in range(lower, g.n + 1):
        row = _first_layout(adj, total)
        if row is not None:
            layout = Layout({v: c for v, c in enumerate(row) if c})
            if len(run_deduction(g, layout).protected) != g.n:
                raise RuntimeError(
                    f"deduction sweep and run_deduction disagree on {layout.counts}; this is a bug"
                )
            return ParameterResult(total, layout, "exact")
    raise RuntimeError("no layout protects the graph, not even one searcher per vertex; this is a bug")


# ---------------------------------------------------------------------------
# Sliding search number.
# ---------------------------------------------------------------------------


def _slides_clear(nbrs: list[int], full: int, occupied: int) -> bool:
    """Whether searchers on the occupied mask, sliding while they can,
    visit every vertex, which clears every edge (see engines.Clearing).

    A held vertex u's contaminated neighbors are nbrs[u] & ~ever.  Rounds
    take the searchers that have not slid (ready) in index order: one with
    a single contaminated neighbor slides there, one with none never will.
    Every maximal slide order clears the same edges (complete_with_slides).
    """
    ever = ready = occupied
    before = None
    while before != ever:  # until a round slides no searcher
        before, m = ever, ready
        while m:
            b = m & -m
            m ^= b
            w = nbrs[b.bit_length() - 1] & ~ever
            if not w & (w - 1):
                ready ^= b
                ever |= w
    return ever == full


def cfms_exact(g: Graph, preoccupied=frozenset(), *, force: bool = False) -> ParameterResult:
    """Minimum searchers whose placements extend to a clearing strategy.

    A candidate placement set, with the pre-occupied vertices' free
    searchers added, is played by _slides_clear and accepted when every
    vertex, even an edgeless one, was occupied at some point, which
    clears every edge.  Pre-occupied vertices are excluded from placement.
    The search starts at max(ceil(n/2), delta) - |pre| placements, delta
    the minimum degree: a searcher slides at most once, so it occupies at
    most two vertices, and every vertex must be occupied; at the first
    slide from u, u and every other neighbor of u are occupied, and with
    no slide at all every vertex holds a searcher.  The first success in
    itertools.combinations order wins; complete_with_slides builds its
    strategy, which is replayed once through cfms_run.  Refuses graphs
    above CFMS_EXACT_CEILING unless force is given.
    """
    _check_ceiling("cfms_exact", g.n, CFMS_EXACT_CEILING, force)
    pre = frozenset(preoccupied)
    if not pre <= set(range(g.n)):
        raise ValueError(f"preoccupied vertices {sorted(pre - set(range(g.n)))} out of range")
    free = sorted(set(range(g.n)) - pre)
    nbrs = adjacency_masks(g)
    full = (1 << g.n) - 1
    held = sum(1 << v for v in pre)
    floor = max((g.n + 1) // 2, min(map(len, g.adjacency()), default=0))
    for s in range(max(0, floor - len(pre)), len(free) + 1):
        for combo in itertools.combinations(free, s):
            if _slides_clear(nbrs, full, held | sum(1 << v for v in combo)):
                strategy = complete_with_slides(g, combo, preoccupied=pre)
                if not cfms_run(g, strategy, preoccupied=pre).succeeded(g):
                    raise RuntimeError(f"sliding step and cfms_run disagree on {combo}; this is a bug")
                return ParameterResult(s, strategy, "exact")
    raise RuntimeError("no placement set clears the graph, not even every vertex; this is a bug")


# ---------------------------------------------------------------------------
# Matchings with the uniqueness property.
# ---------------------------------------------------------------------------


def _count_perfect_matchings(nbr_masks: list[int], limit: int = 2, i: int = 0, used: int = 0) -> int:
    """Count perfect matchings of a bipartite graph, stopping at limit.

    nbr_masks[i] is the bitmask over second-side positions adjacent to the
    i-th first-side vertex; i and used are the recursion's position and
    the second-side positions already matched.
    """
    if i == len(nbr_masks):
        return 1
    total = 0
    m = nbr_masks[i] & ~used
    while m:
        b = m & -m
        m ^= b
        total += _count_perfect_matchings(nbr_masks, limit, i + 1, used | b)
        if total >= limit:
            break
    return total


def validate_uniqueness_witness(g: Graph, w: UniquenessWitness) -> bool:
    """Replay a uniqueness certificate against the graph."""
    k = len(w.matching)
    if len(w.v1) != k or len(w.v2) != k:
        return False
    if set(w.v1) & set(w.v2):
        return False
    verts = set(w.v1) | set(w.v2)
    if len(verts) != 2 * k:
        return False
    for i, (a, b) in enumerate(w.matching):
        if {a, b} != {w.v1[i], w.v2[i]}:
            return False
        if not g.has_edge(a, b):
            return False
    pos = {y: j for j, y in enumerate(w.v2)}
    nbr_masks = [
        sum(1 << pos[y] for y in w.v2 if g.has_edge(x, y)) for x in w.v1
    ]
    return _count_perfect_matchings(nbr_masks) == 1


def _longest_triangular(
    nbrs: list[int], full: int, used: int, blocked: int, memo: dict
) -> int:
    """Most pairs that extend a triangular sequence, memoised per state.

    used holds the prefix's vertices and blocked the neighbors of its xs
    outside used; the next pair (x, y) needs x, y unused, xy an edge and
    y not blocked.  memo maps (used, blocked) to (length, first pair).
    The scan stops once it meets the cap: the pairs need two free
    vertices each, and their ys come from the free unblocked vertices.
    """
    hit = memo.get((used, blocked))
    if hit is not None:
        return hit[0]
    free = full & ~used
    open_ys = free & ~blocked
    cap = min(free.bit_count() // 2, open_ys.bit_count())
    best, best_pair = 0, None
    xs = free
    while xs and best < cap:
        bx = xs & -xs
        xs ^= bx
        x = bx.bit_length() - 1
        ys = nbrs[x] & open_ys
        while ys:
            by = ys & -ys
            ys ^= by
            now_used = used | bx | by
            length = 1 + _longest_triangular(
                nbrs, full, now_used, (blocked | nbrs[x]) & ~now_used, memo
            )
            if length > best:
                best, best_pair = length, (x, by.bit_length() - 1)
                if best == cap:
                    break
    memo[(used, blocked)] = (best, best_pair)
    return best


def mu_exact(g: Graph, *, force: bool = False) -> ParameterResult:
    """Largest matching with the uniqueness property, by a memoised search.

    A matching is the unique perfect matching of the bipartite subgraph
    between sides v1 and v2 exactly when its edges can be ordered
    (x_1, y_1), ..., (x_s, y_s) with x_i in v1, y_i in v2 and x_i y_j not
    an edge for i < j (Golumbic, Hirst and Lewenstein, "Uniquely
    restricted matchings", Algorithmica 2001).  The search finds the
    longest such triangular sequence; its xs and ys are the witness sides,
    which are checked once before returning.
    """
    _check_ceiling("mu_exact", g.n, MU_EXACT_CEILING, force)
    nbrs = adjacency_masks(g)
    memo: dict[tuple[int, int], tuple[int, tuple[int, int] | None]] = {}
    value = _longest_triangular(nbrs, (1 << g.n) - 1, 0, 0, memo)
    matching, v1, v2 = [], [], []
    used = blocked = 0
    for _ in range(value):
        x, y = memo[(used, blocked)][1]
        matching.append(edge_key(x, y))
        v1.append(x)
        v2.append(y)
        used |= 1 << x | 1 << y
        blocked = (blocked | nbrs[x]) & ~used
    witness = UniquenessWitness(tuple(matching), tuple(v1), tuple(v2))
    if not validate_uniqueness_witness(g, witness):
        raise RuntimeError(f"mu_exact built an invalid witness {witness}; this is a bug")
    return ParameterResult(value, witness, "exact")
