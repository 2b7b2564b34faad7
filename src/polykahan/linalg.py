"""Exact linear algebra over the rationals.

``nullspace`` first solves its integer rows modulo one word-size prime,
_PRIME = 2^61 - 1: a row echelon form, pivot rule first nonzero entry in
column order, on rows packed one to an int in lazily reduced slots, column 0
the most significant, so a row shortens as its leading columns are cleared;
back-substitution; and Wang's rational reconstruction (SYMSAC 1981) of each
basis entry.  Every reconstructed vector is then checked exactly against
every row, and only a basis that passes is returned; otherwise the
fraction-free (Bareiss) elimination with the same pivot rule gives it.
Both paths return the same basis (see ``nullspace``).  ``rank``, ``solve``
and ``inverse`` read their answers off that checked nullspace: the module
has one exact elimination.
"""

from __future__ import annotations

import math
import operator
import struct
from fractions import Fraction
from typing import Sequence

from .poly import Polynomial, RationalFunction


class SingularMatrix(ArithmeticError):
    """Raised when a solve or inverse meets a singular matrix."""


def _integer_rows(rows: Sequence[Sequence[Fraction | int]]) -> list[list[int]]:
    """Each row scaled to integers, as a new list (elimination works in place)."""
    out = []
    for row in rows:
        if not all(type(v) is int for v in row):
            fr = [Fraction(v) for v in row]
            scale = math.lcm(*(v.denominator for v in fr))
            row = [int(v * scale) for v in fr]
        out.append(list(row))
    return out


def nullspace(rows: Sequence[Sequence[Fraction | int]], ncols: int | None = None) -> list[list[int]]:
    """Exact basis of the right nullspace.

    Basis vectors are scaled to coprime integer entries with the first
    nonzero entry positive; one vector per free column, in column order.

    The modular path returns the same basis as Bareiss elimination.  Every
    vector it returns lies in the rational nullspace N, since it is checked
    exactly.  The vectors are independent (each is 1 at its own free column
    mod p and 0 at the others), so there are at most dim N of them.  The
    rank mod p is at most the rank over Q, so there are at least dim N.
    Each vector writes column f through pivot columns left of f, so f is no
    pivot over Q: the free columns mod p are exactly the free columns over
    Q, and each vector is the unique one in N with the identity pattern on
    them.  A failed reconstruction or check falls back to Bareiss.  Mod p the
    rows below each pivot are those of Gauss-Jordan, so the pivots, the entries
    -RREF[r][f] that back-substitution gives and any failure are the same.
    """
    mat = _integer_rows(rows)
    if ncols is None:
        ncols = len(mat[0]) if mat else 0
    basis = _modular_nullspace(mat, ncols)
    return basis if basis is not None else _bareiss_nullspace(mat, ncols)


def rank(rows: Sequence[Sequence[Fraction | int]]) -> int:
    """Rank over Q: the column count minus the nullspace dimension.

    Exact on both paths of ``nullspace``: the Bareiss basis is exact, and a
    modular basis is returned only after the exact check, when it has
    exactly dim N vectors (see ``nullspace``).
    """
    ncols = len(rows[0]) if rows else 0
    return ncols - len(nullspace(rows, ncols))


_PRIME = 2**61 - 1
_BOUND = math.isqrt(_PRIME // 2)  # Wang's bound on |numerator| and denominator
_FOLD_EVERY = (2**128 - 2**68) // 2**122  # 63 additions to a slot between folds


def _modular_nullspace(mat: list[list[int]], ncols: int) -> list[list[int]] | None:
    """The nullspace basis from the row echelon form mod _PRIME, or None
    when an entry does not reconstruct or a vector misses a row exactly."""
    pivots, echelon = _modular_echelon(mat)
    pivot_cols = set(pivots)
    basis: list[list[int]] = []
    for f in range(ncols):
        if f in pivot_cols:
            continue
        back = [0] * ncols  # back[c] becomes -RREF[r][f], c the pivot of row r
        back[f] = 1
        for row, c in zip(reversed(echelon), reversed(pivots)):
            back[c] = -sum(map(operator.mul, row, back)) % _PRIME
        vec = [_reconstruct(v) for v in back]  # free entries, 0 and 1, never fail
        if any(v is None for v in vec):
            return None
        ints = _normalize_int(vec)
        if any(sum(a * v for a, v in zip(row, ints) if v) for row in mat):
            return None
        basis.append(ints)
    return basis


def _modular_echelon(mat: list[list[int]]) -> tuple[list[int], list[list[int]]]:
    """Pivot columns and nonzero rows of a row echelon form of ``mat`` mod
    _PRIME with unit pivots, each eliminating the rows below it only.

    A row is one int of 128-bit slots, column 0 the most significant, each
    below 2^128 and congruent to its entry.  Once column c is done, its slot
    and those left of it (0 mod p) are cleared in the rows below, so that the
    top slot is the entry the pivot test and multiplier f read.  An addition
    f*(p - v), f, v < p, adds below 2^122 and a fold by 2^61 = 1 mod p leaves
    a slot below 2^68, so the rows below fold every _FOLD_EVERY pivots, as
    2^68 + 63 * 2^122 < 2^128.  The pivot row is folded twice, to below 2^62,
    before it is unpacked, which reads the low 64 bits of each slot."""
    p, n = _PRIME, len(mat)
    width = len(mat[0]) if mat else 0
    slots = struct.Struct(">" + "8xQ" * width)
    ones = ((1 << 128 * width) - 1) // ((1 << 128) - 1)  # a 1 in every slot
    m61, m67 = p * ones, ((1 << 67) - 1) * ones  # p = 2^61 - 1 is also M61

    def pack(values) -> int:
        return int.from_bytes(slots.pack(*values), "big")

    def unpack(x: int) -> list[int]:
        return [v % p for v in slots.unpack(x.to_bytes(slots.size, "big"))]

    def fold(x: int) -> int:  # each slot below 2^128 to below 2^61 + 2^67
        return (x & m61) + (x >> 61 & m67)

    red = [pack([v % p for v in row]) for row in mat]
    pivots: list[int] = []
    for c in range(width):
        r, shift = len(pivots), 128 * (width - 1 - c)
        low = (1 << shift) - 1  # clears column c and the columns left of it
        pr = next((i for i in range(r, n) if (red[i] >> shift) % p), None)
        if pr is None:
            red[r:] = [x & low for x in red[r:]]
            continue
        red[r], red[pr] = red[pr], red[r]
        row = unpack(fold(fold(red[r])))
        inv = pow(row[c], -1, p)
        red[r] = pack([v * inv % p for v in row])
        neg = (m61 & ((1 << shift + 128) - 1)) - red[r]  # p - v in the slots from c on
        pivots.append(c)
        due = len(pivots) % _FOLD_EVERY == 0
        for i in range(r + 1, n):  # below the pivot only: row echelon
            x = red[i]
            if f := (x >> shift) % p:
                x += f * neg
            red[i] = fold(x & low) if due else x & low
        if len(pivots) == n:
            break
    return pivots, [unpack(x) for x in red[: len(pivots)]]


def _reconstruct(u: int) -> Fraction | None:
    """Wang's rational reconstruction: n/d = u mod _PRIME with |n|, d <= _BOUND
    and gcd(n, d) = 1, or None when no such fraction exists."""
    r0, r1, t0, t1 = _PRIME, u, 0, 1
    while r1 > _BOUND:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if abs(t1) > _BOUND or math.gcd(r1, t1) != 1:
        return None
    return Fraction(r1, t1)


def _bareiss_nullspace(mat: list[list[int]], ncols: int) -> list[list[int]]:
    """The nullspace basis by fraction-free (Bareiss) elimination with the
    same pivot rule and back-substitution over Q; echelonizes ``mat`` in
    place.  The fallback of ``nullspace`` and the tests' reference for it."""
    m = len(mat)
    n = len(mat[0]) if m else 0
    pivots: list[int] = []  # pivot column of row r at index r
    prev = 1
    for c in range(n):
        r = len(pivots)
        pr = next((i for i in range(r, m) if mat[i][c] != 0), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        piv = mat[r][c]
        for i in range(r + 1, m):
            if all(v == 0 for v in mat[i]):
                continue
            mic = mat[i][c]
            for j in range(c + 1, n):  # rows r.. are already zero left of c
                q, rem = divmod(mat[i][j] * piv - mic * mat[r][j], prev)
                if rem:  # Bareiss one-step division is exact by construction
                    raise AssertionError("fraction-free elimination lost exactness")
                mat[i][j] = q
            mat[i][c] = 0
        pivots.append(c)
        prev = piv
        if len(pivots) == m:
            break
    pivot_cols = set(pivots)
    basis: list[list[int]] = []
    for f in range(ncols):
        if f in pivot_cols:
            continue
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for r, c in reversed(list(enumerate(pivots))):
            s = sum((mat[r][j] * vec[j] for j in range(c + 1, ncols)), Fraction(0))
            vec[c] = -s / mat[r][c]
        basis.append(_normalize_int(vec))
    return basis


def _normalize_int(vec: list[Fraction]) -> list[int]:
    scale = math.lcm(*(v.denominator for v in vec))
    ints = [int(v * scale) for v in vec]
    g = math.gcd(*ints)
    if g > 1:
        ints = [v // g for v in ints]
    lead = next((v for v in ints if v), 0)
    if lead < 0:
        ints = [-v for v in ints]
    return ints


def solve(
    A: Sequence[Sequence[Fraction | int]], b: Sequence[Fraction | int]
) -> list[Fraction]:
    """Unique solution of A x = b over Q; raises SingularMatrix otherwise."""
    return [row[0] for row in _solve(A, [b])]


def inverse(A: Sequence[Sequence[Fraction | int]]) -> list[list[Fraction]]:
    """A^-1 over Q; raises SingularMatrix when A is singular or not square."""
    n = len(A)
    return _solve(A, [[int(i == k) for i in range(n)] for k in range(n)])


def _solve(A: Sequence[Sequence[Fraction | int]], cols: Sequence[Sequence]) -> list[list[Fraction]]:
    """X with A X = B, B given by its columns, read off nullspace([A | -B]).

    A basis vector's last nonzero entry is its free column.  A is
    nonsingular exactly when its n columns are all pivots; then the vector
    of free column n + k over its entry there is column k of X.
    """
    n, k = len(A), len(cols)
    if any(len(row) != n for row in A):
        raise SingularMatrix("matrix is not square")
    basis = nullspace([[*A[i], *(-c[i] for c in cols)] for i in range(n)], n + k)
    if [max(j for j, v in enumerate(vec) if v) for vec in basis] != list(range(n, n + k)):
        raise SingularMatrix("matrix is singular")
    return [[Fraction(vec[i], vec[n + j]) for j, vec in enumerate(basis)] for i in range(n)]


def det_poly(M: Sequence[Sequence[Polynomial | RationalFunction]]):
    """Determinant of a small matrix of Polynomial or RationalFunction entries,
    by Laplace expansion along the first column; of the entries' type."""
    n = len(M)
    if n == 1:
        return M[0][0]
    out = RationalFunction(Polynomial()) if isinstance(M[0][0], RationalFunction) else Polynomial()
    for i in range(n):
        entry = M[i][0]
        if entry.is_zero():
            continue
        minor = [[M[r][c] for c in range(1, n)] for r in range(n) if r != i]
        term = entry * det_poly(minor)
        out = out + (term if i % 2 == 0 else -term)
    return out


det_rational = det_poly  # the same routine under the name maps.jacobian calls
