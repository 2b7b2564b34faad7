"""Exact linear algebra over the rationals.

``nullspace`` first solves its integer rows modulo one word-size prime,
_PRIME = 2^61 - 1: Gauss-Jordan elimination with a deterministic pivot
rule -- first nonzero entry in column order -- on rows packed one to an int
in lazily reduced slots, and Wang's rational reconstruction (SYMSAC 1981)
of each basis entry.  Every reconstructed vector is then checked exactly
against every row, and only a basis that passes is returned; otherwise
the fraction-free (Bareiss) elimination with the same pivot rule gives it.  Both paths return the same basis (see
``nullspace``), so it is reproducible across runs.  ``rank``, ``solve`` and
``inverse`` read their answers off that checked nullspace: the module has
one exact elimination.
"""

from __future__ import annotations

import math
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
        if all(type(v) is int for v in row):
            out.append(list(row))
            continue
        fr = [Fraction(v) for v in row]
        scale = math.lcm(*(v.denominator for v in fr))
        out.append([int(v * scale) for v in fr])
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
    them.  A failed reconstruction or check falls back to Bareiss.
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
_WORD = (1 << 64) - 1


def _modular_nullspace(mat: list[list[int]], ncols: int) -> list[list[int]] | None:
    """The nullspace basis from Gauss-Jordan elimination mod _PRIME, or None
    when an entry does not reconstruct or a vector misses a row exactly."""
    pivots, echelon = _modular_echelon(mat)
    pivot_cols = set(pivots)
    basis: list[list[int]] = []
    for f in range(ncols):
        if f in pivot_cols:
            continue
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for r, c in enumerate(pivots):
            entry = _reconstruct(-echelon[r][f] % _PRIME)
            if entry is None:
                return None
            vec[c] = entry
        ints = _normalize_int(vec)
        if any(sum(a * v for a, v in zip(row, ints) if v) for row in mat):
            return None
        basis.append(ints)
    return basis


def _modular_echelon(mat: list[list[int]]) -> tuple[list[int], list[list[int]]]:
    """Pivot columns and nonzero rows of the reduced echelon form of ``mat``
    mod _PRIME (unique, so any elimination gives it).  A row is one int of
    128-bit slots, each below 2^63 and congruent to its entry; the pivot
    test, the multiplier f and the stored pivot row read them reduced."""
    p = _PRIME
    width = len(mat[0]) if mat else 0
    slots = struct.Struct("<" + "Q8x" * width)  # a slot is below 2^64 when packed or read

    def pack(values) -> int:
        return int.from_bytes(slots.pack(*values), "little")

    def unpack(x: int) -> list[int]:
        return [v % p for v in slots.unpack(x.to_bytes(slots.size, "little"))]

    red = [pack([v % p for v in row]) for row in mat]
    m61, m62 = pack([p] * width), pack([(1 << 62) - 1] * width)  # p = 2^61 - 1 is also M61
    pivots: list[int] = []
    for c in range(width):
        r, shift = len(pivots), 128 * c
        pr = next((i for i in range(r, len(red)) if (red[i] >> shift & _WORD) % p), None)
        if pr is None:
            continue
        red[r], red[pr] = red[pr], red[r]
        row = unpack(red[r])
        inv = pow(row[c], -1, p)
        red[r] = pack([v * inv % p for v in row])
        neg = (m61 >> shift << shift) - red[r]  # p - v in the slots from c on, each <= p
        for i, x in enumerate(red):
            f = (x >> shift & _WORD) % p
            if f and i != r:  # the pivot row is zero left of c
                # a slot is below 2^63 + 2^122 < 2^128 here, so none carries into
                # the next; the fold by 2^61 = 1 mod p puts it below 2^61 + 2^62
                x += f * neg
                red[i] = (x & m61) + (x >> 61 & m62)
        pivots.append(c)
        if len(pivots) == len(red):
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
