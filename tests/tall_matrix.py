"""A seeded tall integer matrix for the packed modular elimination, importable
without pytest or hypothesis (the CI job without packages builds it too)."""

import random

FREE = (0, 17, 40, 63, 74, 75)  # column 0 is zero, the others combine earlier columns


def tall_matrix(seed: int = 3301) -> tuple[list[list[int]], int]:
    """74 rows, 76 columns, rank 70: a unit row for each pivot column, then 4
    rows of entries -1..-3 in those columns.  Each column of FREE is a small
    combination of the pivot columns left of it, so it has no pivot, and each
    nullspace vector has small entries.  The unit rows are 0 where the rows
    below them are nearly p, so each elimination adds nearly 2^122 to the
    slots below: 70 pivots overflow a 128-bit slot that is never folded."""
    rng = random.Random(seed)
    width = 76
    pivot_cols = [c for c in range(width) if c not in FREE]
    rows = [[int(c == pc) for c in range(width)] for pc in pivot_cols]
    rows += [[-rng.randint(1, 3) * (c in pivot_cols) for c in range(width)] for _ in range(4)]
    for f in FREE[1:]:
        coefs = {c: rng.choice((-2, -1, 1, 2)) for c in rng.sample(pivot_cols[:f - FREE.index(f)], 4)}
        for row in rows:
            row[f] = sum(k * row[c] for c, k in coefs.items())
    return rows, width
