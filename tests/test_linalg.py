import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from polykahan import linalg
from tall_matrix import tall_matrix


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
    assert basis == reference(rows, ncols)
    scaled = [[f * v for v in row] for f, row in zip(factors, rows)]
    assert linalg.nullspace(scaled, ncols=ncols) == basis
    permuted = list(rows)
    rnd.shuffle(permuted)
    assert linalg.nullspace(permuted, ncols=ncols) == basis
    integer = [_clear_denominators(row) for row in rows]
    assert all(type(v) is int for row in integer for v in row)
    assert linalg.nullspace(integer, ncols=ncols) == basis


# -- the modular path and its Bareiss fallback ------------------------------------

P = linalg._PRIME
BAREISS = linalg._bareiss_nullspace  # bound before any test patches it


def reference(rows, ncols=None):
    """The Bareiss basis, which nullspace must return on either path."""
    mat = linalg._integer_rows(rows)
    return BAREISS(mat, len(mat[0]) if ncols is None else ncols)


@pytest.mark.parametrize(
    "rows, basis",
    [
        ([[2**40, -1]], [[1, 2**40]]),
        ([[P + 1, -1]], [[1, P + 1]]),
        ([[3**20, -1]], [[1, 3**20]]),
    ],
)
def test_rows_the_modular_path_cannot_solve_fall_back_to_bareiss(bareiss_calls, rows, basis):
    assert linalg._modular_nullspace(rows, 2) is None
    assert linalg.nullspace(rows) == reference(rows) == basis
    assert len(bareiss_calls) == 1


def test_why_the_modular_path_fails_on_those_rows():
    # 2**61 = 1 mod p, so 1/2**40 = 2**21 mod p: a wrong small fraction
    assert linalg._reconstruct(pow(2**40, -1, P)) == 2**21
    # [[P + 1, -1]] is [[1, -1]] mod p, whose basis [1, 1] misses the row
    assert linalg._modular_nullspace([[1, -1]], 2) == [[1, 1]]
    # 1/3**20 has a denominator past the bound, and no other fraction fits
    assert 3**20 > linalg._BOUND
    assert linalg._reconstruct(pow(3**20, -1, P)) is None


@st.composite
def low_rank_products(draw):
    """Integer products B*C of rank below ncols, with entries of B and C up
    to 2**70, so that many basis entries exceed the reconstruction bound."""
    ncols = draw(st.integers(2, 6))
    inner = draw(st.integers(1, ncols - 1))
    nrows = draw(st.integers(1, 7))
    bits = draw(st.sampled_from([2, 12, 40, 70]))
    entry = st.integers(-(2**bits), 2**bits)
    B = [[draw(entry) for _ in range(inner)] for _ in range(nrows)]
    C = [[draw(entry) for _ in range(ncols)] for _ in range(inner)]
    return [[sum(b * c for b, c in zip(row, col)) for col in zip(*C)] for row in B], ncols


@given(low_rank_products())
def test_nullspace_equals_bareiss_on_low_rank_products(case):
    rows, ncols = case
    assert linalg.nullspace(rows, ncols=ncols) == reference(rows, ncols)


def _list_echelon(mat, width, reduced=False):
    """Row echelon form mod p on lists of residues, with unit pivots and the
    pivot rule of linalg (the first row from the current one with a nonzero
    entry), eliminating below each pivot only; with ``reduced``, above it
    too (Gauss-Jordan, the reduced echelon form)."""
    red = [[v % P for v in row] for row in mat]
    pivots = []
    for c in range(width):
        r = len(pivots)
        pr = next((i for i in range(r, len(red)) if red[i][c]), None)
        if pr is None:
            continue
        red[r], red[pr] = red[pr], red[r]
        inv = pow(red[r][c], -1, P)
        red[r] = [v * inv % P for v in red[r]]
        for i in range(len(red)) if reduced else range(r + 1, len(red)):
            f = red[i][c] if i != r else 0
            if f:
                red[i] = [(a - f * b) % P for a, b in zip(red[i], red[r])]
        pivots.append(c)
    return pivots, red[: len(pivots)]


def _list_nullspace(mat, ncols):
    """The modular nullspace read off the reduced echelon form: the same
    reconstruction and exact check, None where either fails."""
    pivots, echelon = _list_echelon(mat, len(mat[0]) if mat else 0, reduced=True)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for c, row in zip(pivots, echelon):
            entry = linalg._reconstruct(-row[f] % P)
            if entry is None:
                return None
            vec[c] = entry
        ints = linalg._normalize_int(vec)
        if any(sum(a * v for a, v in zip(row, ints)) for row in mat):
            return None
        basis.append(ints)
    return basis


@st.composite
def residue_matrices(draw):
    """Integer matrices up to 40 columns wide whose entries may be past p,
    negative or = 0 mod p, with zero rows and rows that combine earlier
    ones, so that the rank is often deficient.  ``small`` keeps every entry
    in -3..3, where the nullspace usually reconstructs."""
    width = draw(st.integers(1, 40))
    small = draw(st.booleans())
    rnd = random.Random(draw(st.integers(0, 2**32)))  # entries in bulk, not one draw each
    kinds = [
        lambda: rnd.randint(-3, 3),
        lambda: rnd.randint(-3, 3) * P,
        lambda: P + rnd.randint(-2, 2),
        lambda: rnd.randint(-(2**70), 2**70),
    ]
    rows = []
    for _ in range(draw(st.integers(0, width + 2))):
        kind = draw(st.sampled_from(["free", "zero", "combination"]))
        if kind == "zero":
            rows.append([0] * width)
        elif kind == "combination" and rows:
            a, b, s, t = rnd.choice(rows), rnd.choice(rows), rnd.randint(-3, 3), rnd.randint(-3, 3)
            rows.append([s * u + t * v for u, v in zip(a, b)])
        else:
            rows.append([rnd.choice(kinds[:1] if small else kinds)() for _ in range(width)])
    return rows, width


@given(residue_matrices())
def test_packed_elimination_equals_the_list_elimination(case):
    rows, width = case
    assert linalg._modular_echelon(rows) == _list_echelon(rows, width)
    assert linalg._modular_nullspace(rows, width) == _list_nullspace(rows, width)


@given(residue_matrices())
def test_nullspace_vectors_are_coprime_with_a_positive_lead(case):
    # _normalize_int divides by no gcd: the entry 1 at each free column leaves none
    rows, width = case
    for basis in (linalg.nullspace(rows, width), reference(rows, width)):
        for vec in basis:
            assert math.gcd(*vec) == 1
            assert next(v for v in vec if v) > 0


def test_elimination_past_the_fold_interval_equals_the_list_and_bareiss_eliminations(bareiss_calls):
    rows, width = tall_matrix()
    pivots, echelon = linalg._modular_echelon(rows)
    assert linalg._FOLD_EVERY < len(pivots) == 70 < width
    assert (pivots, echelon) == _list_echelon(rows, width)
    assert linalg.nullspace(rows) == reference(rows)
    assert bareiss_calls == []  # solved mod p, and the basis passed the exact check


@pytest.mark.parametrize("rows", [[[3**20, -1]], [[2**40, -1], [2**41, -2]]])
def test_rank_is_exact_where_the_modular_path_falls_back(bareiss_calls, rows):
    assert linalg.rank(rows) == 1
    assert len(bareiss_calls) == 1


@st.composite
def square_systems(draw):
    """A square A, its last row often a combination of two rows (singular), and b."""
    n = draw(st.integers(0, 4))
    entry = st.integers(-4, 4) | st.fractions(-4, 4, max_denominator=3)
    A = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(n)]
    if n > 1 and draw(st.booleans()):
        s, t = draw(entry), draw(entry)
        A[-1] = [s * u + t * v for u, v in zip(A[0], A[-2])]
    return A, draw(st.lists(entry, min_size=n, max_size=n))


@given(square_systems())
def test_solve_and_inverse_are_exact_or_raise_singular(case):
    A, b = case
    n = len(A)
    if reference(A, n):  # A has a nonzero nullspace
        with pytest.raises(linalg.SingularMatrix):
            linalg.solve(A, b)
        with pytest.raises(linalg.SingularMatrix):
            linalg.inverse(A)
        return
    x = linalg.solve(A, b)
    assert all(type(v) is Fraction for v in x)
    assert [sum(a * v for a, v in zip(row, x)) for row in A] == b
    inv = linalg.inverse(A)
    product = [[sum(inv[i][k] * A[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    assert product == [[int(i == j) for j in range(n)] for i in range(n)]


def test_solve_rejects_a_matrix_that_is_not_square():
    with pytest.raises(linalg.SingularMatrix):
        linalg.solve([[1, 2]], [3])
    with pytest.raises(linalg.SingularMatrix):
        linalg.inverse([[1, 0, 0], [0, 1, 0]])
