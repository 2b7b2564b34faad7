"""Exact linear algebra over the rationals.

Nullspace computation uses fraction-free (Bareiss) elimination on integer
rows with a deterministic pivot rule -- first nonzero entry in column order
-- so the returned basis is reproducible across runs.  Small dense solves
and inverses work directly on Fractions.
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
    """
    mat = _integer_rows(rows)
    if ncols is None:
        ncols = len(mat[0]) if mat else 0
    if not mat:
        return [[1 if j == f else 0 for j in range(ncols)] for f in range(ncols)]
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
