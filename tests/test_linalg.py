import math
from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from polykahan import linalg


def test_nullspace_and_rank_leave_the_callers_rows_alone():
    rows = [[2, -4, 6, 0], [1, -2, 3, 0], [0, 5, 1, -1]]
    snapshot = [list(r) for r in rows]
    first = linalg.nullspace(rows)
    assert rows == snapshot
    second = linalg.nullspace(rows)
    assert rows == snapshot
    assert first == second == [[17, 1, -5, 0], [2, 1, 0, 5]]
    assert linalg.rank(rows) == 2
    assert rows == snapshot
    first[0][0] = 99
    assert linalg.nullspace(rows) == second


@st.composite
def matrices(draw):
    """Small matrices with int or Fraction entries; some rows are zero, some
    are combinations of earlier rows, so the rank is often deficient."""
    ncols = draw(st.integers(1, 5))
    entry = st.integers(-4, 4) | st.fractions(-4, 4, max_denominator=3)
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["free", "zero", "combination"]))
        if kind == "zero":
            rows.append([draw(st.sampled_from([0, Fraction(0)]))] * ncols)
        elif kind == "combination" and rows:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = draw(entry), draw(entry)
            rows.append([s * u + t * v for u, v in zip(a, b)])
        else:
            rows.append(draw(st.lists(entry, min_size=ncols, max_size=ncols)))
    return rows, ncols


def _clear_denominators(row):
    scale = math.lcm(*(Fraction(v).denominator for v in row))
    return [int(v * scale) for v in row]


@given(
    matrices(),
    st.lists(st.integers(1, 6) | st.integers(-6, -1), min_size=6, max_size=6),
    st.randoms(use_true_random=False),
)
def test_nullspace_depends_only_on_the_row_space(case, factors, rnd):
    rows, ncols = case
    basis = linalg.nullspace(rows, ncols=ncols)
    for vec in basis:
        for row in rows:
            assert sum(Fraction(a) * b for a, b in zip(row, vec)) == 0
    assert len(basis) == ncols - linalg.rank(rows)
    scaled = [[f * v for v in row] for f, row in zip(factors, rows)]
    assert linalg.nullspace(scaled, ncols=ncols) == basis
    permuted = list(rows)
    rnd.shuffle(permuted)
    assert linalg.nullspace(permuted, ncols=ncols) == basis
    integer = [_clear_denominators(row) for row in rows]
    assert all(type(v) is int for row in integer for v in row)
    assert linalg.nullspace(integer, ncols=ncols) == basis
