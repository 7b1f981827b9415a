"""Seeded input generators for the three benchmark workloads.

A workload is a *pass*: a list of instances whose cost-relevant
properties sit on a fixed grid (sizes log-spaced over their range, kinds
in fixed proportions, and for the random graphs a fixed edge count and a
fixed forcing number per cell), in one fixed shuffled order.  The seed
changes every graph but not the grid or the order, so two seeds cost
nearly the same and differ in structure only.  A run loops over its pass, closed loop
with one client, until its time is up.

Each instance is one edge-list file (with a ``preoccupied`` line where
one applies) plus a record of what the benchmark expects back: the
reference value or reference kind, or the refusal it must produce.
The program only ever sees the edge-list file.

Generation is pure Python driven by ``random.Random``; the same seed
writes byte-identical files.
"""

from __future__ import annotations

import math
import random

import checks

WORKLOADS = ("cactus-large", "noncactus-route", "oracle-identity")

# Per pass.  A pass of any workload takes about 15 s on a 2-CPU x86 box
# with Python 3.11, so a 30 s run covers two.
CACTUS_PER_KIND = 40  # each of trees, unicyclic graphs, cactus forests
# Chance that a cactus grows by a cycle rather than a pendant vertex.  At
# one half, cycles survive the leaf rules and cactus_solve's elimination
# loop runs for dozens of rounds on the larger members.
CYCLE_SHARE = 0.5
DISMANTLE_PAIRS = (25, 200)
DISMANTLE_COUNT = 120
DISMANTLE_TRACED_EVERY = 5  # every fifth size on the grid is traced
EXACT_COPIES = 5  # graphs per random-graph cell and K(p+5) instances per p
ORACLE_COPIES = 3
KPP_ACCEPTED = (4, 5, 6, 7, 8)  # K(p+5) plus p pendants, n = 2p + 5 <= 21
KPP_REFUSED = (10, 11, 12, 13)  # n = 2p + 5 > 24: over the exact ceiling

# (n, density, czf) cells.  The forcing number is mostly the modal value
# of uniform random graphs of that size and density; fixing it fixes how
# many subset sizes the exhaustive searches sweep, which sets their cost.
# The n = 20 cells of the exact workload and the n = 11 row of the oracle
# workload put several like-cost cells where the 90th percentile falls, so
# that it lands inside one cluster of similar costs.
EXACT_CELLS = tuple(
    (n, d, v)
    for d, values in (
        (0.25, (7, 8, 8, 9, 9, 10)),
        (0.32, (7, 8, 8, 9, 9, 10)),
        (0.39, (7, 8, 8, 9, 9, 10)),
        (0.45, (7, 8, 9, 9, 10, 10)),
    )
    for n, v in zip(range(14, 20), values)
) + ((20, 0.32, 10),) * 3 + ((20, 0.45, 11),)
ORACLE_DENSITIES = tuple(round(0.3 + (j + 0.5) * 0.055, 4) for j in range(10))  # 0.33..0.82
ORACLE_CELLS = tuple(
    (n, d, v)
    for n, values in (
        (8, (4, 4, 4, 4, 4, 4, 4, 5, 5, 5)),
        (9, (5, 5, 5, 5, 5, 5, 5, 5, 6, 6)),
        (10, (5, 5, 5, 5, 5, 5, 6, 6, 7, 7)),
        (11, (6, 6, 6, 6, 6, 7, 7, 7, 8, 8)),
    )
    for d, v in zip(ORACLE_DENSITIES, values)
)


def log_grid(count: int, lo: float, hi: float, offset: float = 0.5) -> list[int]:
    """count sizes at the same point (offset) of equal strata of [lo, hi]
    on a log scale: a log-uniform spread that is the same for every seed."""
    ratio = math.log(hi / lo)
    return [round(lo * math.exp((j + offset) / count * ratio)) for j in range(count)]


def _relabel(rng: random.Random, n: int, edges) -> list[tuple[int, int]]:
    """Apply a random vertex permutation so labels carry no structure."""
    perm = list(range(n))
    rng.shuffle(perm)
    out = set()
    for u, v in edges:
        a, b = perm[u], perm[v]
        out.add((a, b) if a < b else (b, a))
    return sorted(out)


def _grow_tree(rng: random.Random, edges: list, start: int, stop: int, anchors: int) -> None:
    """Attach vertices start..stop-1 one by one to a random earlier vertex
    among the first `anchors` plus those already attached."""
    for v in range(start, stop):
        edges.append((rng.randrange(anchors + v - start), v))


def tree_edges(rng: random.Random, n: int) -> list[tuple[int, int]]:
    edges: list[tuple[int, int]] = []
    _grow_tree(rng, edges, 1, n, 1)
    return edges


def unicyclic_edges(rng: random.Random, n: int) -> list[tuple[int, int]]:
    length = rng.randint(3, max(3, n // 10))
    edges = [(i, (i + 1) % length) for i in range(length)]
    _grow_tree(rng, edges, length, n, length)
    return edges


def _cactus_component(rng: random.Random, size: int, base: int) -> list[tuple[int, int]]:
    """A connected cactus on base..base+size-1: pendant vertices and short
    cycles hung at random existing vertices."""
    edges: list[tuple[int, int]] = []
    count = 1
    while count < size:
        at = base + rng.randrange(count)
        length = rng.randint(3, 10)
        if rng.random() < CYCLE_SHARE and count + length - 1 <= size:
            ring = [at] + [base + count + i for i in range(length - 1)]
            edges.extend((ring[i], ring[(i + 1) % length]) for i in range(length))
            count += length - 1
        else:
            edges.append((at, base + count))
            count += 1
    return edges


def cactus_forest_edges(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """One to three cactus components; connected members keep >= 2 cycles so
    the router cannot take them for a tree or a unicyclic graph."""
    parts = rng.randint(1, 3)
    cuts = sorted(rng.sample(range(n // 4, 3 * n // 4), parts - 1))
    sizes = [b - a for a, b in zip([0] + cuts, cuts + [n])]
    while True:
        edges: list[tuple[int, int]] = []
        base = 0
        for size in sizes:
            edges.extend(_cactus_component(rng, size, base))
            base += size
        cycles = len(edges) - (n - len(sizes))
        if parts > 1 or cycles >= 2:
            return edges


def _edge_list_text(n: int, edges, preoccupied=()) -> str:
    lines = [f"{n} {len(edges)}"]
    lines.extend(f"{u} {v}" for u, v in edges)
    if preoccupied:
        lines.append("preoccupied " + " ".join(map(str, preoccupied)))
    return "\n".join(lines) + "\n"


def _instance(name: str, n: int, edges, expect: dict, preoccupied=(), traced: bool = True) -> dict:
    """One input plus its expectations.  traced marks the instances the
    traced pass runs: one per grid cell, so that pass stays bounded."""
    return {
        "name": name,
        "text": _edge_list_text(n, edges, preoccupied),
        "expect": expect,
        "traced": traced,
    }


def cactus_large(rng: random.Random) -> list[dict]:
    """Trees, unicyclic graphs and cactus forests with n log-uniform in
    200..2000; a quarter of each kind carry ~10% preoccupied vertices."""
    makers = (
        ("tree", tree_edges),
        ("unicyclic", unicyclic_edges),
        ("cactus", cactus_forest_edges),
    )
    out = []
    for k, (kind, make) in enumerate(makers):
        # kinds interleave on the size grid so costs have no gaps
        for j, n in enumerate(log_grid(CACTUS_PER_KIND, 200, 2000, (k + 0.5) / len(makers))):
            edges = _relabel(rng, n, make(rng, n))
            pre: tuple[int, ...] = ()
            if j % 4 == 3:
                pre = tuple(sorted(rng.sample(range(n), n // 10)))
            reference = "preoccupied-bound" if pre else ("forest" if kind == "tree" else "cactus-dp")
            out.append(_instance(f"{kind}-{j:02d}", n, edges, {"reference": reference}, pre))
    return out


def _is_cactus(n: int, edges) -> bool:
    """Whether no edge lies on two cycles."""
    adj = checks.adjacency(n, edges)
    # A connected graph is a cactus iff each DFS back edge's tree path shares
    # no tree edge with another back edge's path.
    parent = [-1] * n
    depth = [-1] * n
    covered = [False] * n  # tree edge (parent[v], v) lies on a cycle
    for root in range(n):
        if depth[root] != -1:
            continue
        depth[root] = 0
        stack = [(root, iter(adj[root]))]
        back = []
        while stack:
            v, it = stack[-1]
            w = next(it, None)
            if w is None:
                stack.pop()
                continue
            if depth[w] == -1:
                parent[w] = v
                depth[w] = depth[v] + 1
                stack.append((w, iter(adj[w])))
            elif w != parent[v] and depth[w] < depth[v]:
                back.append((v, w))
        for v, top in back:
            while v != top:
                if covered[v]:
                    return False
                covered[v] = True
                v = parent[v]
    return True


def dismantlable_edges(rng: random.Random, pairs: int) -> list[tuple[int, int]]:
    """Grow a graph by pendant pairs (leaf 2i, anchor 2i+1): each anchor also
    joins one to three earlier vertices, so deleting the pairs newest first
    dismantles the graph completely."""
    while True:
        edges: list[tuple[int, int]] = []
        for i in range(pairs):
            leaf, anchor = 2 * i, 2 * i + 1
            edges.append((leaf, anchor))
            if i:
                for w in rng.sample(range(2 * i), min(2 * i, rng.randint(1, 3))):
                    edges.append((w, anchor))
        if not _is_cactus(2 * pairs, edges):
            return edges


def _connected(n: int, edges) -> bool:
    adj = checks.adjacency(n, edges)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def random_connected_edges(
    rng: random.Random, n: int, density: float, *, noncactus: bool
) -> list[tuple[int, int]]:
    """Uniform random connected graph with round(density * C(n, 2)) edges.

    With noncactus it is also redrawn until it has minimum degree 2 (so
    no pendant edge lets the router dismantle it) and is not a cactus.
    """
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    m = max(n, round(density * len(pairs)))
    while True:
        edges = sorted(rng.sample(pairs, m))
        degree = [0] * n
        for u, v in edges:
            degree[u] += 1
            degree[v] += 1
        if not _connected(n, edges):
            continue
        if not noncactus or (min(degree) >= 2 and not _is_cactus(n, edges)):
            return edges


def random_with_value(
    rng: random.Random, n: int, density: float, value: int, *, noncactus: bool
) -> list[tuple[int, int]]:
    """A random_connected_edges draw whose forcing number is value."""
    for _ in range(1000):
        edges = random_connected_edges(rng, n, density, noncactus=noncactus)
        if checks.czf_value(n, edges) == value:
            return edges
    raise RuntimeError(f"no graph with n={n}, density={density} and czf={value} in 1000 draws")


def clique_with_pendants(p: int) -> tuple[int, list[tuple[int, int]]]:
    """K(p+5) with a pendant leaf on p of its vertices; czf = p + 4."""
    k = p + 5
    edges = [(u, v) for u in range(k) for v in range(u + 1, k)]
    edges.extend((i, k + i) for i in range(p))
    return k + p, edges


def noncactus_route(rng: random.Random) -> list[dict]:
    """Non-cactus inputs for the router: pendant-dismantlable graphs from
    25..200 pairs, random graphs with no pendant edge (n 14..20, density
    0.25..0.45) that fall through to the exact search, and K(p+5) plus
    p pendants, accepted for p = 4..8 and refused over the ceiling for
    p = 10..13."""
    out = []
    for j, pairs in enumerate(log_grid(DISMANTLE_COUNT, *DISMANTLE_PAIRS)):
        n = 2 * pairs
        edges = _relabel(rng, n, dismantlable_edges(rng, pairs))
        expect = {"reference": "value", "value": n - pairs}
        traced = j % DISMANTLE_TRACED_EVERY == 0
        out.append(_instance(f"dismantle-{j:03d}", n, edges, expect, traced=traced))
    for copy in range(EXACT_COPIES):
        for j, (n, density, value) in enumerate(EXACT_CELLS):
            edges = _relabel(rng, n, random_with_value(rng, n, density, value, noncactus=True))
            expect = {"reference": "value", "value": value}
            out.append(_instance(f"random-{j:02d}.{copy}", n, edges, expect, traced=copy == 0))
        for p in KPP_ACCEPTED + KPP_REFUSED:
            n, edges = clique_with_pendants(p)
            edges = _relabel(rng, n, edges)
            expect = {"reference": "value", "value": p + 4} if p in KPP_ACCEPTED else {"refusal": True}
            out.append(_instance(f"kpp-{p:02d}.{copy}", n, edges, expect, traced=copy == 0))
    return out


def oracle_identity(rng: random.Random) -> list[dict]:
    """Random connected graphs with n 8..11 and density 0.33..0.82 for the
    four exhaustive oracles; checked against czf = d = cfms = n - mu."""
    out = []
    for copy in range(ORACLE_COPIES):
        for j, (n, density, value) in enumerate(ORACLE_CELLS):
            edges = _relabel(rng, n, random_with_value(rng, n, density, value, noncactus=False))
            expect = {"reference": "identity", "value": value}
            out.append(_instance(f"oracle-{j:02d}.{copy}", n, edges, expect, traced=copy == 0))
    return out


GENERATORS = {
    "cactus-large": cactus_large,
    "noncactus-route": noncactus_route,
    "oracle-identity": oracle_identity,
}


def generate(workload: str, seed: int) -> list[dict]:
    """The seeded pass of one workload.

    The seed draws the graphs; the order they run in is shuffled once and
    is the same for every seed, so that order-dependent effects (allocator
    growth, warm caches) do not move with the seed either.
    """
    instances = GENERATORS[workload](random.Random(f"{workload}:{seed}"))
    random.Random(f"{workload}:order").shuffle(instances)
    return instances
