"""Forcing numbers of every labeled graph on n <= 7 vertices, one numpy
table per n, for the tests that sweep all small graphs at once."""

import itertools

import numpy as np

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
