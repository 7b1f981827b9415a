"""Exhaustive oracles: minimum clearing numbers with replayable witnesses.

Every specialized solver in this package is validated against these
routines, so they stay deliberately independent of each other: the three
process oracles simulate their own process definitions and share no
shortcuts beyond the graph representation, and the matching oracle
searches orderings of matchings without playing any process.

The forcing search plays each size class of start sets bit-sliced in
pure Python: a part of the class, at most _SWEEP_CHUNK start sets, is one
int per vertex whose bit i says whether start set i holds it, and a round
of the forcing rule costs a few int operations per edge on every start
set at once (_least_forcing_row).  The deduction search streams every
total as numpy layout count rows to the sweep driver _first_hit, which
finds the first row in enumeration order whose process protects every
vertex; its masks are 16-bit, so it takes at most 16 vertices.  The
sliding search plays every placement set with its own scalar bitset
step, _slides_clear, and replays only the winner through the engines.
Each oracle plays its own process.

No oracle keeps a result between calls.  Three tables outlive a call:
_fire_need, the 16-bit popcount the deduction sweep reads;
_LAYOUT_TABLES, its read-only layout tables of at most _LAYOUT_CHUNK
rows each; and czf_value_table's _TABLE_CACHE of one value table per
n <= 7.  Each is filled on first use and depends only on its arguments,
never on a graph searched before.  The forcing search's membership
bitsets (_member_bits) are kept for one czf_exact component only.

numpy is imported inside the functions that use it, so only d_exact's
sweep and czf_value_table load it; czf_exact, cfms_exact, mu_exact and
every solver outside this module run without it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import comb

from .deduction import Layout, run_deduction
from .engines import cfms_run, complete_with_slides
from .graphs import Graph, adjacency_masks, connected_components, edge_key, induced_subgraph

# The forcing search's slowest 24-vertex inputs measured are G(24, p)
# with p = 0.45..0.6: 0.10-0.22 s over seeds 1-3 and two runs.  G(24, p)
# at the other p from 0.1 to 0.95 took at most 0.17 s, and the star, the
# path and K(12, 12) at most 0.11 s.
CZF_EXACT_CEILING = 24
# The deduction search's worst case at a given n is a star: every total
# from ceil(n/2) to n - 2 is swept in full.  It took 0.47-0.67 s at
# n = 13 and 2.0-2.2 s at n = 14; G(13, p), p = 0.3..0.95, took at most
# 0.10 s.
D_EXACT_CEILING = 13
# The same star, center last, is the sliding search's slowest input
# measured: 0.02-0.04 s at n = 13, 0.05-0.09 s at 14, 0.09-0.16 s at 15
# and 0.23-0.39 s at 16.  G(15, p), p = 0.1..0.95, took at most 0.13 s,
# and the edgeless 15-vertex graph 0.12 s.
CFMS_EXACT_CEILING = 15
MU_EXACT_CEILING = 16

# Most start sets per forcing-sweep part, and layout rows in the first
# deduction-sweep chunk: each sweep stops after the first part or chunk
# with a hit.  On noncactus-route's exact-route inputs, 2^13 start sets
# per part swept 17% faster than 2^15 (an early hit ends a smaller
# part), and the n = 24 inputs named above about 20% slower.
_SWEEP_CHUNK = 1 << 13
_LAYOUT_CHUNK = 1 << 9


def _check_ceiling(
    oracle: str, n: int, ceiling: int, force: bool, *, limit: int | None = None, part: str = "graph"
) -> None:
    """Refuse an n-vertex input (or component, as part says) past the
    oracle's ceiling unless force is given, and past limit, the most
    vertices the oracle's masks hold, even then."""
    if limit is not None and n > limit:
        raise ValueError(f"{oracle} refused for a {n}-vertex {part} > {limit}, the most its masks hold")
    if n > ceiling and not force:
        raise ValueError(
            f"{oracle} refused for a {n}-vertex {part} > {ceiling}; pass force=True (--force) to insist"
        )


def _first_hit(chunks, full, play_round):
    """The first candidate whose process reaches every vertex.

    chunks yields (start, state) pairs in enumeration order: start holds
    one row per candidate along axis 0, and state is the matching array
    of reached-vertex masks.  play_round(start, state) plays one round of
    the process on every row, updating state in place.  A row leaves once
    a round leaves it unchanged (its closure is reached) or full, and once
    a hit is known every later row leaves too, so the chunk ends with its
    least hit and the sweep stops at the first chunk that holds one.
    Returns the start row of that least hit, or None when no candidate
    succeeds.
    """
    import numpy as np

    for start, state in chunks:
        index = np.arange(len(state))
        best = found = None
        while index.size:
            before = state.copy()
            play_round(start, state)
            done = state == full
            if done.any():
                # Every live row precedes the best hit so far, so a new
                # hit is always the new least one.
                at = int(np.argmax(done))
                best, found = index[at], start[at]
            keep = (state != before) & ~done
            if best is not None:
                keep &= index < best
            if not keep.all():
                start, state, index = start[keep], state[keep], index[keep]
        if found is not None:
            return found
    return None


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
    raise AssertionError("the full vertex set always forces itself")


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


_TABLE_CACHE: dict[int, np.ndarray] = {}


def pair_bit_index(n: int) -> dict[tuple[int, int], int]:
    """Bit position of each vertex pair in the edge-mask encoding."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return {pair: idx for idx, pair in enumerate(pairs)}


def czf_value_table(n: int) -> np.ndarray:
    """Forcing number of every labeled graph on n vertices, n <= 7.

    Entry g of the returned array is the value for the graph whose edge
    set is the bit pattern of g under pair_bit_index(n).
    """
    if not 1 <= n <= 7:
        raise ValueError("value table supported for 1 <= n <= 7 only")
    if n in _TABLE_CACHE:
        return _TABLE_CACHE[n]
    import numpy as np

    bits = pair_bit_index(n)
    count = 1 << len(bits)
    masks = np.arange(count, dtype=np.uint32)
    nbr = [np.zeros(count, dtype=np.uint8) for _ in range(n)]
    for (i, j), b in bits.items():
        present = ((masks >> np.uint32(b)) & 1).astype(np.uint8)
        nbr[i] |= present << np.uint8(j)
        nbr[j] |= present << np.uint8(i)
    full, one, zero = np.uint8((1 << n) - 1), np.uint8(1), np.uint8(0)
    values = np.zeros(count, dtype=np.uint8)
    pending = np.arange(count)
    # A forcing set of size k colors at most 2k vertices, so no graph has
    # a value below ceil(n/2).  Each start set is played on the graphs it
    # may still solve, and a graph leaves the round loop at its closure.
    for k in range((n + 1) // 2, n + 1):
        for combo in itertools.combinations(range(n), k):
            start = sum(1 << v for v in combo)
            rows = pending
            nb = [nbr[v][rows] for v in range(n) if start >> v & 1]
            colored = np.full(rows.size, start, dtype=np.uint8)
            while rows.size:
                before = colored.copy()
                for arr in nb:
                    unc = arr & ~colored
                    colored |= unc * ((unc & (unc - one)) == zero)
                done = colored == full
                values[rows[done]] = k
                keep = (colored != before) & ~done
                if not keep.all():
                    rows, colored = rows[keep], colored[keep]
                    nb = [arr[keep] for arr in nb]
            pending = pending[values[pending] == 0]
        if not pending.size:
            break
    _TABLE_CACHE[n] = values
    return values


# ---------------------------------------------------------------------------
# Deduction number.
# ---------------------------------------------------------------------------


_LAYOUT_TABLES: dict[tuple[int, int], np.ndarray] = {}


def _layout_table(m: int, t: int) -> np.ndarray:
    """S(m, t): every t-searcher layout on m vertices as uint8 count rows,
    in combinations_with_replacement order, read-only and kept in
    _LAYOUT_TABLES across calls."""
    import numpy as np

    rows = _LAYOUT_TABLES.get((m, t))
    if rows is None:
        if m == 1 or t == 0:
            rows = np.zeros((1, m), dtype=np.uint8)
            rows[0, 0] = t
        else:
            first = _layout_table(m, t - 1)
            rest = _layout_table(m - 1, t)
            rows = np.zeros((len(first) + len(rest), m), dtype=np.uint8)
            rows[: len(first)] = first
            rows[: len(first), 0] += 1
            rows[len(first) :, 1:] = rest
        rows.flags.writeable = False
        _LAYOUT_TABLES[(m, t)] = rows
    return rows


def _layout_parts(n: int, j: int, t: int, prefix: np.ndarray, size: int):
    """prefix plus each t-searcher layout on {j, ..., n-1}, in parts of at
    most size rows (see _layout_chunks)."""
    import numpy as np

    count = comb(n - j + t - 1, t)
    if count <= size:
        rows = np.tile(prefix, (count, 1))
        rows[:, j:] += _layout_table(n - j, t)
        yield rows
    else:
        grown = prefix.copy()
        grown[j] += 1
        yield from _layout_parts(n, j, t - 1, grown, size)
        yield from _layout_parts(n, j + 1, t, prefix, size)


def _layout_chunks(n: int, total: int, size: int):
    """Every layout of total searchers on n vertices, as uint8 count rows.

    Rows come in itertools.combinations_with_replacement order.  M[j][t],
    the t-searcher layouts on {j, ..., n-1} in that order, is e_j added to
    M[j][t-1] followed by M[j+1][t].  The stream splits M[0][total] by
    that rule until a part has at most size rows; a part is then its
    prefix row plus the table S(n-j, t), built by the same rule and kept
    for every later stream, since it depends on nothing else.  Parts are
    joined into chunks of at least size rows, and the target doubles per
    chunk up to 16 * size, so an early hit costs a small chunk and a long
    search sweeps large ones.
    """
    import numpy as np

    pending: list[np.ndarray] = []
    count = 0
    target = size
    for rows in _layout_parts(n, 0, total, np.zeros(n, dtype=np.uint8), size):
        pending.append(rows)
        count += len(rows)
        if count >= target:
            yield np.concatenate(pending)
            pending, count = [], 0
            target = min(2 * target, 16 * size)
    if pending:
        yield np.concatenate(pending)


@lru_cache(maxsize=1)
def _fire_need() -> np.ndarray:
    """Searchers a vertex needs to fire, indexed by its unprotected
    neighbors as a 16-bit mask: their number, or 255, more than any
    count, when there are none and the vertex cannot fire."""
    import numpy as np

    x = np.arange(1 << 16, dtype=np.uint32)
    need = np.zeros(1 << 16, dtype=np.uint8)
    for b in range(16):
        need += ((x >> b) & 1).astype(np.uint8)
    need[0] = 255
    return need


def _fire_stage(nb: np.ndarray, counts: np.ndarray, protected: np.ndarray) -> None:
    """One all-fireable stage on every row: each v with
    1 <= |N(v) - P| <= c_v fires at once, and P gains every N(v) - P.

    nb holds the n neighbor masks, counts one layout per row and
    protected each row's P, updated in place.  Firing is monotone: if v
    can fire at P, it can at every P' containing P (|N(v) - P'| is no
    larger), unless N(v) is inside P' already and firing adds nothing.
    So every maximal firing order, one vertex or one stage at a time,
    ends at the same protected set, the least one closed under firing
    that contains the support.  A vertex that has fired has no
    unprotected neighbor left, so it fires once.
    """
    import numpy as np

    unc = nb & ~protected[:, None]
    unc *= _fire_need().take(unc) <= counts
    protected |= np.bitwise_or.reduce(unc, axis=1)


def _first_layout(nbrs: list[int], n: int, total: int) -> np.ndarray | None:
    """Count row of the first total-searcher layout that protects everything.

    Each round is one _fire_stage on every live row.  Masks are 16-bit,
    so n <= 16.
    """
    import numpy as np

    nb = np.array(nbrs, dtype=np.uint16)
    bits = (1 << np.arange(n)).astype(np.uint16)
    # The support of each layout is protected from the start.
    chunks = ((counts, (counts != 0) @ bits) for counts in _layout_chunks(n, total, _LAYOUT_CHUNK))
    full = np.uint16((1 << n) - 1)
    return _first_hit(chunks, full, lambda counts, protected: _fire_stage(nb, counts, protected))


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
    Each total goes to _first_layout, which sweeps its layouts as numpy
    count rows through the sweep driver _first_hit; the first success in
    combinations_with_replacement order wins, and it is replayed once
    through run_deduction.  Refuses graphs above D_EXACT_CEILING unless
    force is given, and graphs over 16 vertices, whose vertex sets do not
    fit the sweep's 16-bit masks, even then.
    """
    _check_ceiling("d_exact", g.n, D_EXACT_CEILING, force, limit=16)
    if g.n == 0:
        return ParameterResult(0, Layout({}), "exact")
    nbrs = adjacency_masks(g)
    lower = max(1, (g.n + 1) // 2, min(x.bit_count() for x in nbrs))
    for total in range(lower, g.n + 1):
        row = _first_layout(nbrs, g.n, total)
        if row is not None:
            layout = Layout({v: int(c) for v, c in enumerate(row) if c})
            if len(run_deduction(g, layout).protected) != g.n:
                raise RuntimeError(
                    f"deduction sweep and run_deduction disagree on {layout.counts}; this is a bug"
                )
            return ParameterResult(total, layout, "exact")
    raise AssertionError("placing a searcher on every vertex always succeeds")


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
    raise AssertionError("placing searchers everywhere always clears the graph")


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


# ---------------------------------------------------------------------------
# Independence number and vertex cover.
# ---------------------------------------------------------------------------


def alpha_exact(g: Graph) -> ParameterResult:
    """Maximum independent set via branch and bound on bitsets."""
    nbrs = adjacency_masks(g)
    best_mask = 0
    # greedy seed: repeatedly take the lowest-degree remaining vertex
    remaining = (1 << g.n) - 1
    while remaining:
        v = min(
            (w for w in range(g.n) if remaining >> w & 1),
            key=lambda w: (nbrs[w] & remaining).bit_count(),
        )
        best_mask |= 1 << v
        remaining &= ~(nbrs[v] | 1 << v)
    best = [best_mask.bit_count(), best_mask]

    def expand(candidates: int, chosen: int, size: int) -> None:
        if size + candidates.bit_count() <= best[0]:
            return
        if candidates == 0:
            if size > best[0]:
                best[0] = size
                best[1] = chosen
            return
        v = (candidates & -candidates).bit_length() - 1
        bit = 1 << v
        expand(candidates & ~(nbrs[v] | bit), chosen | bit, size + 1)
        expand(candidates & ~bit, chosen, size)

    expand((1 << g.n) - 1, 0, 0)
    witness = [v for v in range(g.n) if best[1] >> v & 1]
    return ParameterResult(best[0], witness, "exact")


def vertex_cover_decide(g: Graph, l: int) -> tuple[bool, list[int] | None]:
    """Whether g has a vertex cover of size at most l; returns one if so."""
    if l < 0:
        return False, None
    alpha = alpha_exact(g)
    if g.n - alpha.value > l:
        return False, None
    cover = sorted(set(range(g.n)) - set(alpha.witness))
    return True, cover
