"""Exact linear algebra over the rationals.

``nullspace`` solves its integer rows modulo the Mersenne primes
p = 2^e - 1, e in _MERSENNE_EXPONENTS = (61, 89, 127, 521), in turn.  At each
prime: a row echelon form, pivot rule first nonzero entry in column order,
on rows packed one to an int in lazily reduced slots of about 2e + 6 bits,
column 0 the most significant, so a row shortens as its leading columns
are cleared; back-substitution; and Wang's rational reconstruction (SYMSAC
1981) of each basis entry, which needs the entry's numerator and
denominator below sqrt(p/2).  Every reconstructed vector is then checked
exactly against every row, and the first prime whose basis passes gives
it; after the last, the fraction-free (Bareiss) elimination with the same
pivot rule does.  All paths return the same basis (see ``nullspace``).
``rank``, ``solve`` and ``inverse`` read their answers off that checked
nullspace: the module has one exact elimination.
"""

from __future__ import annotations

import math
import operator
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

    Each prime of the ladder returns the same basis as Bareiss elimination,
    or none.  Every vector it returns lies in the rational nullspace N, since
    it is checked exactly.  The vectors are independent (each is 1 at its
    own free column mod p and 0 at the others), so there are at most dim N
    of them.  The rank mod p is at most the rank over Q, so there are at
    least dim N.  Each vector writes column f through pivot columns left of
    f, so f is no pivot over Q: the free columns mod p are exactly the free
    columns over Q, and each vector is the unique one in N with the identity
    pattern on them.  None of this depends on which prime p is, so each
    prime's basis is checked on its own and no residues are combined; a
    failed reconstruction or check moves to the next prime, and after the
    last to Bareiss.  Mod p the rows below each pivot are those of
    Gauss-Jordan, so the pivots, the entries -RREF[r][f] that
    back-substitution gives and any failure are the same.
    """
    mat = _integer_rows(rows)
    if ncols is None:
        ncols = len(mat[0]) if mat else 0
    for e in _MERSENNE_EXPONENTS:
        if (basis := _modular_nullspace(mat, ncols, e)) is not None:
            return basis
    return _bareiss_nullspace(mat, ncols)


def rank(rows: Sequence[Sequence[Fraction | int]]) -> int:
    """Rank over Q: the column count minus the nullspace dimension.

    Exact on every path of ``nullspace``: the Bareiss basis is exact, and a
    modular basis is returned only after the exact check, when it has
    exactly dim N vectors (see ``nullspace``).
    """
    ncols = len(rows[0]) if rows else 0
    return ncols - len(nullspace(rows, ncols))


_MERSENNE_EXPONENTS = (61, 89, 127, 521)  # the ladder: the primes 2^e - 1 tried in turn
_PRIME = 2**61 - 1  # the first rung, and the default of the modular routines
_BOUND = math.isqrt(_PRIME // 2)  # Wang's bound on |numerator| and denominator mod _PRIME
_FOLD_EVERY = 63  # additions to a slot between folds, at every rung (see _modular_echelon)


def _modular_nullspace(mat: list[list[int]], ncols: int, e: int = 61) -> list[list[int]] | None:
    """The nullspace basis from the row echelon form mod p = 2^e - 1, or None
    when an entry does not reconstruct or a vector misses a row exactly."""
    p = 2**e - 1
    bound = math.isqrt(p // 2)
    pivots, echelon = _modular_echelon(mat, e)
    pivot_cols = set(pivots)
    basis: list[list[int]] = []
    for f in range(ncols):
        if f in pivot_cols:
            continue
        back = [0] * ncols  # back[c] becomes -RREF[r][f], c the pivot of row r
        back[f] = 1
        for row, c in zip(reversed(echelon), reversed(pivots)):
            back[c] = -sum(map(operator.mul, row, back)) % p
        vec = [_reconstruct(v, p, bound) for v in back]  # free entries, 0 and 1, never fail
        if any(v is None for v in vec):
            return None
        ints = _normalize_int(vec)
        if any(sum(a * v for a, v in zip(row, ints) if v) for row in mat):
            return None
        basis.append(ints)
    return basis


def _modular_echelon(mat: list[list[int]], e: int = 61) -> tuple[list[int], list[list[int]]]:
    """Pivot columns and nonzero rows of a row echelon form of ``mat`` mod
    p = 2^e - 1 with unit pivots, each eliminating the rows below it only.

    A row is one int of w-bit slots, w = 2e + 6 rounded up to whole bytes
    (128 at e = 61), column 0 the most significant, each slot below 2^w and
    congruent to its entry.  Once column c is done, its slot and those left
    of it (0 mod p) are cleared in the rows below, so that the top slot is
    the entry the pivot test and multiplier f read.  A fold by 2^e = 1 mod p
    leaves a slot below 2^e + 2^(w - e) < 2^(w - e + 1), and an addition
    f*(p - v), f < p, v <= p, adds below 2^2e, so the rows below fold every
    _FOLD_EVERY = 63 pivots: 2^(w - e + 1) + 63 * 2^2e <= 2^w for w >= 2e + 6
    and e >= 7.  The pivot row is scaled on its packed int: two folds leave
    its slots below 2^e + 2^14 (w - 2e <= 13), the product with the inverse
    of its pivot below 2^(2e + 1), and three more folds at most p, so that
    the pivot slot is 1.  Rows are unpacked only when returned."""
    p, n = 2**e - 1, len(mat)
    width = len(mat[0]) if mat else 0
    size = (2 * e + 13) // 8  # bytes per slot
    w = 8 * size
    ones = ((1 << w * width) - 1) // ((1 << w) - 1)  # a 1 in every slot
    low_e, high = p * ones, ((1 << w - e) - 1) * ones  # p = 2^e - 1 is also the mask

    def fold(x: int) -> int:  # each slot below 2^w to below 2^e + 2^(w - e)
        return (x & low_e) + (x >> e & high)

    red = [int.from_bytes(b"".join([(v % p).to_bytes(size, "big") for v in row]), "big") for row in mat]
    pivots: list[int] = []
    for c in range(width):
        r, shift = len(pivots), w * (width - 1 - c)
        low = (1 << shift) - 1  # clears column c and the columns left of it
        pr = next((i for i in range(r, n) if (red[i] >> shift) % p), None)
        if pr is None:
            red[r:] = [x & low for x in red[r:]]
            continue
        red[r], red[pr] = red[pr], red[r]
        inv = pow((red[r] >> shift) % p, -1, p)
        red[r] = fold(fold(fold(fold(fold(red[r])) * inv)))
        neg = (low_e & ((1 << shift + w) - 1)) - red[r]  # p - v in the slots from c on
        pivots.append(c)
        due = len(pivots) % _FOLD_EVERY == 0
        for i in range(r + 1, n):  # below the pivot only: row echelon
            x = red[i]
            if f := (x >> shift) % p:
                x += f * neg
            red[i] = fold(x & low) if due else x & low
        if len(pivots) == n:
            break
    echelon = []
    for x in red[: len(pivots)]:
        raw = x.to_bytes(size * width, "big")
        echelon.append([int.from_bytes(raw[i : i + size], "big") % p for i in range(0, len(raw), size)])
    return pivots, echelon


def _reconstruct(u: int, p: int = _PRIME, bound: int = _BOUND) -> Fraction | None:
    """Wang's rational reconstruction: n/d = u mod p with |n|, d <= bound =
    isqrt(p // 2) and gcd(n, d) = 1, or None when no such fraction exists."""
    r0, r1, t0, t1 = p, u, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if abs(t1) > bound or math.gcd(r1, t1) != 1:
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
    """``vec``, with some entry 1, as coprime integers, lead positive: the 1 scales to the lcm,
    and an entry whose denominator holds a prime's full power in it scales prime to it."""
    scale = math.lcm(*(v.denominator for v in vec))
    ints = [int(v * scale) for v in vec]
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


det_rational = det_poly  # an alias kept for perfbench's tracing targets; no module calls it
