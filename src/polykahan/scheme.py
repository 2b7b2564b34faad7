"""Shift-averaged discretization of polynomial ODE systems.

An order-n system  d^n x_i / dt^n = f_i(x)  with polynomial right-hand
sides of total degree at most n+1 is discretized by replacing the n-th
derivative with the n-th power of the forward difference and replacing each
degree-d monomial of f_i by the average over all assignments of the n+1
distinct shift levels 0..n to its d factors (the remaining levels fall on
an implicit dummy factor equal to 1).  For n = 1 this is exactly Kahan's
rule  x_j x_k -> (x_j x~_k + x~_j x_k)/2,  x_j -> (x_j + x~_j)/2.

The resulting implicit equations are jointly linear in the highest shifts
and in the lowest shifts, which is what makes them solvable into an
explicit birational map (see :mod:`polykahan.maps`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import linalg
from .poly import Monomial, Polynomial, Var, param, x

H = param("h")  # the step symbol; numeric values are bound at iteration time


class DegreeTooHigh(ValueError):
    """Right-hand side monomial exceeds the order's degree bound n+1."""


@dataclass(frozen=True)
class PolyOdeSystem:
    """d^n x_i/dt^n = rhs_i(x_1..x_N), each rhs of state degree <= n+1.

    The right-hand sides contain only shift-0 state variables (components
    1..dim) and parameters.
    """

    order: int
    dim: int
    rhs: tuple[Polynomial, ...]

    def __post_init__(self):
        if self.order < 1 or self.dim < 1:
            raise ValueError("order and dim must be >= 1")
        if len(self.rhs) != self.dim:
            raise ValueError("need one right-hand side per component")
        for i, p in enumerate(self.rhs):
            for v in sorted(p.vars()):  # the first offending variable, in canonical order
                if v.is_param:
                    continue
                if v.shift != 0:
                    raise ValueError(f"rhs[{i}] contains shifted variable {v}")
                if not 1 <= v.comp <= self.dim:
                    raise ValueError(f"rhs[{i}] contains out-of-range component {v}")
            if p.state_degree() > self.order + 1:
                raise DegreeTooHigh(
                    f"rhs[{i}] has state degree {p.state_degree()} > {self.order + 1}"
                )


@dataclass(frozen=True)
class ImplicitScheme:
    """Equations E_i = 0 on the shift window 0..order, linear in both the
    highest and the lowest shift level of every component."""

    order: int
    dim: int
    step: Var
    equations: tuple[Polynomial, ...]

    def shift_vars(self, level: int) -> frozenset[Var]:
        return frozenset(x(j, level) for j in range(1, self.dim + 1))

    def recentered(self, offset: int) -> "ImplicitScheme":
        """Same scheme on a shifted window (e.g. -n/2..n/2 for display)."""
        return ImplicitScheme(
            self.order,
            self.dim,
            self.step,
            tuple(e.shift_states(offset) for e in self.equations),
        )


def symmetrize_monomial(m: Monomial, n: int) -> Polynomial:
    """Average a shift-0 monomial over all shift-level assignments.

    The monomial's state factors (with multiplicity) are padded to n+1
    slots by dummy factors; every injective assignment of the levels 0..n
    to the real factors contributes with weight (n+1-d)!/(n+1)!, where d is
    the state degree.  Parameters pass through untouched.

    Assignments that differ only by permuting equal factors give the same
    monomial, so each distinct one is built once, with levels increasing
    inside each group of equal factors, weighted by its multiplicity, and in
    the order in which ``itertools.permutations`` first reaches it.
    """
    state_factors: list[Var] = []
    groups: list[int] = []
    params: list[tuple[Var, int]] = []
    for v, e in m.factors:
        if v.is_param:
            params.append((v, e))
        else:
            if v.shift != 0:
                raise ValueError(f"cannot symmetrize shifted variable {v}")
            state_factors.extend([v] * e)
            groups.append(e)
    d = len(state_factors)
    if d > n + 1:
        raise DegreeTooHigh(f"monomial {m} has state degree {d} > {n + 1}")
    weight = Fraction(math.factorial(n + 1 - d), math.factorial(n + 1))
    weight *= math.prod(map(math.factorial, groups))
    # Lexicographic order: each group's levels are combinations of the levels
    # the groups before it left free.
    assignments: list[tuple[int, ...]] = [()]
    for e in groups:
        assignments = [
            done + levels
            for done in assignments
            for levels in itertools.combinations([k for k in range(n + 1) if k not in done], e)
        ]
    terms = []
    for levels in assignments:
        shifted = [(Var(comp=v.comp, shift=k), 1) for v, k in zip(state_factors, levels)]
        terms.append((Monomial.from_pairs(shifted + params), weight))
    return Polynomial(terms)


def symmetrize(p: Polynomial, n: int) -> Polynomial:
    """Apply :func:`symmetrize_monomial` term by term."""
    return Polynomial(
        (sm, c * sc) for m, c in p.terms() for sm, sc in symmetrize_monomial(m, n).terms()
    )


def discretize(sys: PolyOdeSystem) -> ImplicitScheme:
    """Build the implicit scheme  Delta^n x_i - h^n * symmetrized rhs_i = 0.

    The difference part is written in cleared form
    sum_k (-1)^(n-k) C(n,k) x_i^(k), so each equation is a polynomial in the
    window variables x_j^(0..n), the parameters, and the step symbol h.
    """
    n = sys.order
    hn = Polynomial.var(H) ** n
    eqs = []
    for i in range(1, sys.dim + 1):
        diff = Polynomial(
            (Monomial.from_pairs([(x(i, k), 1)]), (-1) ** (n - k) * math.comb(n, k))
            for k in range(n + 1)
        )
        eqs.append(diff - hn * symmetrize(sys.rhs[i - 1], n))
    return ImplicitScheme(n, sys.dim, H, tuple(eqs))


def reverse_shifts(p: Polynomial, n: int) -> Polynomial:
    """Reverse the shift window: x_j^(k) -> x_j^(n-k)."""
    return p.map_vars(lambda v: v if v.is_param else Var(comp=v.comp, shift=n - v.shift))


def is_self_adjoint(scheme: ImplicitScheme) -> bool:
    """Reversing the window and negating h multiplies each equation by (-1)^n.

    This is the discrete time-reversal symmetry of the symmetric scheme:
    the equation set is mapped onto itself exactly.
    """
    n = scheme.order
    sign = 1 if n % 2 == 0 else -1
    neg_h = {scheme.step: Polynomial.var(scheme.step) * -1}
    for e in scheme.equations:
        if reverse_shifts(e, n).subs_poly(neg_h) != sign * e:
            return False
    return True


def check_affine_recombination(sys: PolyOdeSystem):
    """For n = 2 the shift-averaged right-hand side equals a fixed affine
    combination of f evaluated at window averages:

        9/2 f((u+v+w)/3) - 4/3 [f((u+v)/2) + f((u+w)/2) + f((v+w)/2)]
        + 1/6 [f(u) + f(v) + f(w)]

    with (u, v, w) the three window levels.  Returns (True, None) on exact
    equality, else (False, witness_monomial) for the first differing term.
    """
    if sys.order != 2:
        raise ValueError("identity is specific to order 2")
    levels = range(3)

    def combo(weights: dict[int, Fraction]) -> dict[Var, Polynomial]:
        return {
            x(j): sum(
                (Polynomial.var(x(j, k)) * w for k, w in weights.items()), Polynomial()
            )
            for j in range(1, sys.dim + 1)
        }

    third = Fraction(1, 3)
    half = Fraction(1, 2)
    for i in range(sys.dim):
        f = sys.rhs[i]
        rhs = f.subs_poly(combo({0: third, 1: third, 2: third})) * Fraction(9, 2)
        for a, b in itertools.combinations(levels, 2):
            rhs = rhs - f.subs_poly(combo({a: half, b: half})) * Fraction(4, 3)
        for k in levels:
            rhs = rhs + f.subs_poly(combo({k: Fraction(1)})) * Fraction(1, 6)
        diff = rhs - symmetrize(f, 2)
        if not diff.is_zero():
            witness = diff.sorted_terms()[0][0]
            return False, witness
    return True, None


def affine_conjugate(
    sys: PolyOdeSystem,
    A: Sequence[Sequence[Fraction | int]],
    b: Sequence[Fraction | int],
) -> PolyOdeSystem:
    """Pull the system back through the affine change x = A y + b.

    The new right-hand sides are A^-1 f(A y + b); the degree bound is
    preserved.  Raises linalg.SingularMatrix when A is not invertible.
    """
    n = sys.dim
    inv = linalg.inverse(A)
    sigma = {
        x(k + 1): sum(
            (Polynomial.var(x(m + 1)) * Fraction(A[k][m]) for m in range(n)),
            Polynomial.const(Fraction(b[k])),
        )
        for k in range(n)
    }
    pulled = [f.subs_poly(sigma) for f in sys.rhs]
    new_rhs = tuple(
        sum((pulled[j] * inv[i][j] for j in range(n)), Polynomial()) for i in range(n)
    )
    return PolyOdeSystem(sys.order, sys.dim, new_rhs)
