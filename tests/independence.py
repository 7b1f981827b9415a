"""Independence number and vertex cover, for the tests that check the
paper's reductions and bounds against them.  No solver needs either."""

from onemove.exact import ParameterResult
from onemove.graphs import Graph, adjacency_masks


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
