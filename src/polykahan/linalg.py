"""Exact linear algebra over the rationals.

``nullspace`` first solves its integer rows modulo one word-size prime,
_PRIME = 2^61 - 1: Gauss-Jordan elimination with a deterministic pivot
rule -- first nonzero entry in column order -- and Wang's rational
reconstruction (SYMSAC 1981) of each basis entry.  Every reconstructed
vector is then checked exactly against every row, and only a basis that
passes is returned; otherwise the fraction-free (Bareiss) elimination with
the same pivot rule gives it.  Both paths return the same basis (see
``nullspace``), so it is reproducible across runs.  ``rank``, and so
``darboux.in_span``, stays on Bareiss, because nothing checks its answer.
Small dense solves and inverses work directly on Fractions.
"""

from __future__ import annotations

import math
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


def _bareiss_echelon(mat: list[list[int]]) -> tuple[list[list[int]], list[tuple[int, int]]]:
    """Fraction-free row echelon form; returns (matrix, [(row, pivot_col)])."""
    m = len(mat)
    n = len(mat[0]) if m else 0
    pivots: list[tuple[int, int]] = []
    prev = 1
    r = 0
    for c in range(n):
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
        pivots.append((r, c))
        prev = piv
        r += 1
        if r == m:
            break
    return mat, pivots


def rank(rows: Sequence[Sequence[Fraction | int]]) -> int:
    mat = _integer_rows(rows)
    if not mat or not mat[0]:
        return 0
    return len(_bareiss_echelon(mat)[1])


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


_PRIME = 2**61 - 1
_BOUND = math.isqrt(_PRIME // 2)  # Wang's bound on |numerator| and denominator


def _modular_nullspace(mat: list[list[int]], ncols: int) -> list[list[int]] | None:
    """The nullspace basis from Gauss-Jordan elimination mod _PRIME, or None
    when an entry does not reconstruct or a vector misses a row exactly."""
    p = _PRIME
    red = [[v % p for v in row] for row in mat]
    width = len(red[0]) if red else 0
    pivots: list[int] = []
    for c in range(width):
        r = len(pivots)
        pr = next((i for i in range(r, len(red)) if red[i][c]), None)
        if pr is None:
            continue
        red[r], red[pr] = red[pr], red[r]
        inv = pow(red[r][c], -1, p)
        tail = red[r][c + 1 :] = [v * inv % p for v in red[r][c + 1 :]]
        red[r][c] = 1
        for i, row in enumerate(red):
            f = row[c]
            if f and i != r:  # the pivot row is zero left of c
                row[c + 1 :] = [(a - f * b) % p for a, b in zip(row[c + 1 :], tail)]
                row[c] = 0
        pivots.append(c)
        if len(pivots) == len(red):
            break
    pivot_cols = set(pivots)
    basis: list[list[int]] = []
    for f in range(ncols):
        if f in pivot_cols:
            continue
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for r, c in enumerate(pivots):
            entry = _reconstruct(-red[r][f] % p)
            if entry is None:
                return None
            vec[c] = entry
        ints = _normalize_int(vec)
        if any(sum(a * v for a, v in zip(row, ints) if v) for row in mat):
            return None
        basis.append(ints)
    return basis


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
    """The nullspace basis by Bareiss elimination and back-substitution over
    Q; echelonizes ``mat`` in place.  The tests' reference for ``nullspace``."""
    mat, pivots = _bareiss_echelon(mat)
    pivot_cols = {c for _, c in pivots}
    basis: list[list[int]] = []
    for f in range(ncols):
        if f in pivot_cols:
            continue
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for r, c in reversed(pivots):
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
    n = len(A)
    aug = [[Fraction(v) for v in row] + [Fraction(b[i])] for i, row in enumerate(A)]
    for c in range(n):
        pr = next((i for i in range(c, n) if aug[i][c] != 0), None)
        if pr is None:
            raise SingularMatrix("matrix is singular")
        aug[c], aug[pr] = aug[pr], aug[c]
        piv = aug[c][c]
        for i in range(n):
            if i == c or aug[i][c] == 0:
                continue
            f = aug[i][c] / piv
            aug[i] = [a - f * p for a, p in zip(aug[i], aug[c])]
    return [aug[i][n] / aug[i][i] for i in range(n)]


def inverse(A: Sequence[Sequence[Fraction | int]]) -> list[list[Fraction]]:
    n = len(A)
    cols = []
    for k in range(n):
        e = [Fraction(1) if i == k else Fraction(0) for i in range(n)]
        cols.append(solve(A, e))
    return [[cols[j][i] for j in range(n)] for i in range(n)]


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
