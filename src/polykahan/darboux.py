"""Darboux polynomials of birational maps, with Jacobian cofactor.

A polynomial P is Darboux for the map Phi when P(Phi(x)) = J(x) P(x) with J
the Jacobian determinant.  Such a P makes the volume form dx_1^...^dx_d / P
invariant, and the ratio of two Darboux polynomials with the same cofactor
is a first integral.

The search is linear algebra at points (Celledoni, Evripidou, McLaren, Owren,
Quispel, Tapley, van der Kamp, J. Phys. A 52 (2019), arXiv:1902.04685): over
an ansatz of all monomials up to a degree bound, each exact rational point p
gives the row [m(Phi(p)) - J(p) m(p)].  Rows are built on integers: Phi and
J are compiled once per bound map over one monomial table, each monomial is
evaluated once per point p = a/q, and each row is scaled by a positive
integer of its point and divided by its gcd, which keeps its nullspace.
Every Darboux polynomial satisfies every row, so the nullspace contains the
true space; an exact pullback identity certifies each basis vector, and a
failure draws more points from a wider box.  A nonzero relation of bounded
degree vanishes at a random point of a box of side S with probability at
most degree/S, so the loop ends, and the echelonized basis depends only on
the space, not on the points.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from operator import getitem
from typing import Sequence

from . import linalg
from .maps import BirationalMap, jacobian
from .poly import DenominatorVanished, try_divide
from .poly import Monomial, Polynomial, RationalFunction, Var, _grlex_key, _powers, param, x

_EXTRA_ROWS = 2  # rows per batch beyond the number of ansatz monomials


class CofactorMismatch(ArithmeticError):
    """Certificates do not share a cofactor, or a witness is nonzero."""


@dataclass
class DarbouxCertificate:
    """A primitive Darboux polynomial with its cofactor and a zero witness.

    ``witness`` is a*num - b*P, where num/den = P(Phi) is the pullback and
    a*num = b*P is P(Phi) = J*P with denominators cleared; it is zero exactly
    when the residual is, and is kept as evidence rather than re-derived.
    """

    P: Polynomial
    cofactor: RationalFunction
    witness: Polynomial
    map: BirationalMap

    @property
    def valid(self) -> bool:
        return self.witness.is_zero()

    def to_text(self) -> str:
        """Canonical serialization (graded-lex term order)."""
        return str(self.P)


@dataclass
class Pencil:
    """The family lambda*P1 + P2 of invariant curves of a planar map."""

    P1: Polynomial
    P2: Polynomial

    def level(self, point) -> float:
        """The lambda-level of the member passing through a point."""
        p1 = self.P1.eval(point)
        if p1 == 0:
            raise ZeroDivisionError("base member vanishes at the point")
        return -self.P2.eval(point) / p1


def jacobian_det_2d(m: BirationalMap) -> RationalFunction:
    """Jacobian determinant of a planar map as a reduced rational function."""
    if m.dim != 2:
        raise ValueError("expected a two-dimensional map")
    return jacobian(m)[1]


def _monomial_basis(vars_: Sequence[Var], maxdeg: int) -> list[Monomial]:
    """All monomials of total degree <= maxdeg, ascending graded-lex."""
    out = []
    k = len(vars_)
    for total in range(maxdeg + 1):
        for combo in itertools.combinations_with_replacement(range(k), total):
            exps = [0] * k
            for i in combo:
                exps[i] += 1
            out.append(Monomial.from_pairs(list(zip(vars_, exps))))
    universe = tuple(sorted(vars_, key=lambda v: v.sort_key()))
    out.sort(key=lambda m: _grlex_key(m, universe))
    return out


def _require_bound(m: BirationalMap):
    free = m.free_parameters()
    for e in m.scheme.equations:
        if m.scheme.step in e.vars():
            free = free | {m.scheme.step}
            break
    if free:
        raise ValueError(
            f"Darboux search needs bound parameters, free: {sorted(map(str, free))}"
        )
    if m.forward is None:
        raise ValueError("Darboux search needs the symbolic map")


def _sample_points(dim: int, count: int, batch: int) -> list[tuple[Fraction, ...]]:
    """The ``batch``-th draw of ``count`` exact rational points: seeded by the
    batch, with a height bound that doubles from one batch to the next."""
    rng = random.Random(batch)
    height = 8 << batch
    return [
        tuple(Fraction(rng.randint(-height, height), rng.randint(1, height)) for _ in range(dim))
        for _ in range(count)
    ]


def _relation_rows(m: BirationalMap, J: RationalFunction, exps):
    """Compile Phi and J once per bound map and cofactor; return the function
    that maps a rational point p = a/q to the integer row

        Jd q^k prod_j d_j^k * [mono(Phi(p)) - J(p)*mono(p) per ansatz exponent vector]

    divided by the gcd of its entries, where Phi_j(p) = n_j/d_j, J(p) = Jn/Jd
    and k = maxdeg.  It raises DenominatorVanished where Phi or J is undefined.

    Each numerator and denominator is compiled with integer coefficients to
    terms (c, index of x^e in one table of exponent vectors, degree - |e|),
    the ansatz exponents extend a copy of the table, and a point computes
    each monomial a^e of it once.  Each value is an integer pair (n, d), d > 0,
    some t > 0 times its lowest terms; the row is then the lowest-terms row
    times t_J prod_j t_j^k > 0, and the primitive row is the same bit for bit."""
    if m._cache.get("relation_forms", (None,))[0] is not J:
        table, forms, top = {}, [], 0
        slot = {v: i for i, v in enumerate(m.state_vars)}

        def terms(p: Polynomial, scale: Fraction, deg: int):
            out = []
            for mono, c in p.terms():
                ex = [0] * len(slot)
                for v, e in mono.factors:
                    ex[slot[v]] = e
                out.append((int(c * scale), table.setdefault(tuple(ex), len(table)), deg - sum(ex)))
            return out

        for rf in (*m.forward, J):
            cn, cd = rf.num.content(), rf.den.content()
            ratio, deg = cn / cd, max(rf.num.degree(), rf.den.degree())
            forms.append(
                (terms(rf.num, ratio.numerator / cn, deg), terms(rf.den, ratio.denominator / cd, deg))
            )
            top = max(top, deg)
        m._cache["relation_forms"] = (J, forms, top, table)
    _, forms, top, table = m._cache["relation_forms"]
    table = dict(table)
    k = max(map(sum, exps))
    top = max(top, k)
    shape = [(ex, table.setdefault(tuple(ex), len(table)), k - sum(ex)) for ex in exps]

    def row(point) -> list[int]:
        q = math.lcm(*(v.denominator for v in point))
        apow = [_powers(v.numerator * (q // v.denominator), top) for v in point]
        qpow = _powers(q, top)
        mono = [math.prod(map(getitem, apow, ex)) for ex in table]
        pairs = []
        for num, den in forms:
            d = sum(c * mono[i] * qpow[r] for c, i, r in den)
            if d == 0:
                raise DenominatorVanished("denominator vanished at a sample point")
            n = sum(c * mono[i] * qpow[r] for c, i, r in num)
            pairs.append((n, d) if d > 0 else (-n, -d))
        *image, (jn, jd) = pairs
        ratios = [[n**e * d ** (k - e) for e in range(k + 1)] for n, d in image]
        lhs = jd * qpow[k]
        rhs = jn * math.prod(t[0] for t in ratios)
        out = [
            lhs * math.prod(map(getitem, ratios, ex)) - rhs * mono[i] * qpow[rest]
            for ex, i, rest in shape
        ]
        g = math.gcd(*out)
        return [v // g for v in out] if g > 1 else out

    return row


def pullback(m: BirationalMap, P: Polynomial) -> tuple[Polynomial, Polynomial]:
    """(num, den) with P(Phi) = num/den exactly; parameters may stay symbolic.

    Coordinates that Phi only shifts (Phi_v a bare variable) are renamed.
    Terms are grouped by their exponents e_v in the solved coordinates,
    Phi_v = n_v/d_v, and each group times prod_v n_v^e_v d_v^(E_v - e_v),
    E_v = deg_v P, from tables cached per v and E_v; den = prod_v d_v^E_v."""
    renames, solved = {}, {}
    for v, rf in zip(m.state_vars, m.forward):
        if rf.den == 1 and rf.num == Polynomial.var(w := next(iter(rf.num.vars()), v)):
            renames[v] = w
        elif E := P.degree_in({v}):
            solved[v] = rf, E
    groups: dict[tuple[int, ...], list] = {}
    for mono, c in P.terms():
        rest = [(renames.get(v, v), e) for v, e in mono.factors if v not in solved]
        key = tuple(mono.exponent(v) for v in solved)
        groups.setdefault(key, []).append((Monomial.from_pairs(rest), c))
    tables = []
    for v, (rf, E) in solved.items():
        if ("pullback", v, E) not in m._cache:
            npow, dpow = _powers(rf.num, E), _powers(rf.den, E)
            m._cache["pullback", v, E] = [npow[e] * dpow[E - e] for e in range(E + 1)]
        tables.append(m._cache["pullback", v, E])
    num = []
    for key, pairs in groups.items():
        g = Polynomial(pairs)
        for t, e in zip(tables, key):
            g = g * t[e]
        num.extend(g.terms())
    return Polynomial(num), math.prod((t[0] for t in tables), start=Polynomial.const(1))


def _certify(P: Polynomial, m: BirationalMap, J: RationalFunction) -> DarbouxCertificate:
    """Check P(Phi) = J*P as a*num == b*P, num/den the pullback of P: (a, b) is
    (1, Jn*den/Jd), (Jd/den, Jn) or (Jd, Jn*den) as Jd | den, den | Jd or neither."""
    P = P.primitive()
    num, den = pullback(m, P)
    key = ("certify", *(P.degree_in({v}) for v in m.state_vars))
    if m._cache.get(key, (None,))[0] is not J:
        if (q := try_divide(den, J.den)) is not None:
            m._cache[key] = (J, 1, J.num * q)
        else:
            q = try_divide(J.den, den)
            m._cache[key] = (J, J.den, J.num * den) if q is None else (J, q, J.num)
    _, a, b = m._cache[key]
    witness = num * a - b * P
    if not witness.is_zero():
        raise CofactorMismatch(
            f"P is not Darboux: the witness has {len(witness.terms())} terms of degree"
            f" {witness.degree()}, leading term {Polynomial(witness.sorted_terms()[:1])}"
        )
    return DarbouxCertificate(P=P, cofactor=J, witness=witness, map=m)


def find_darboux(m: BirationalMap, maxdeg: int) -> list[DarbouxCertificate]:
    """All Darboux polynomials of total degree <= maxdeg, cofactor J.

    Returns a deterministic (echelonized, primitive) basis of the solution
    space; an empty list is a legitimate outcome.  Parameters and the step
    symbol must be bound to exact rationals first.
    """
    if maxdeg < 0:
        raise ValueError("maxdeg must be >= 0")
    _require_bound(m)
    basis = _monomial_basis(m.state_vars, maxdeg)
    exps = [[mono.exponent(v) for v in m.state_vars] for mono in basis]
    J = jacobian(m)[1]
    relation_row = _relation_rows(m, J, exps)
    rows: list[list[int]] = []
    for batch in itertools.count():
        for point in _sample_points(m.dim, len(basis) + _EXTRA_ROWS, batch):
            try:
                rows.append(relation_row(point))
            except DenominatorVanished:
                continue
        null = linalg.nullspace(rows, ncols=len(basis))
        try:
            return [_certify(Polynomial(zip(basis, vec)), m, J) for vec in null]
        except CofactorMismatch:
            continue  # too few or too special points: sample more


def verify_darboux(P: Polynomial, m: BirationalMap) -> DarbouxCertificate:
    """Exact check that P(Phi) = J*P; parameters may stay symbolic.

    Raises CofactorMismatch when the relation fails.
    """
    return _certify(P, m, jacobian(m)[1])


@dataclass
class InvariantMeasure:
    density: Polynomial
    form: str

    def __str__(self) -> str:
        return self.form


def invariant_measure(cert: DarbouxCertificate) -> InvariantMeasure:
    """The invariant volume form dx_1^...^dx_d / P certified by ``cert``.

    The certificate equation P(Phi) = J*P is exactly the change-of-variables
    identity for this form; a nonzero witness is a CofactorMismatch.
    """
    if not cert.valid:
        raise CofactorMismatch("certificate witness is nonzero")
    wedge = "^".join(f"d{v}" for v in cert.map.state_vars)
    return InvariantMeasure(density=cert.P, form=f"({wedge}) / ({cert.P})")


def first_integral(
    c1: DarbouxCertificate, c2: DarbouxCertificate
) -> RationalFunction:
    """The ratio c2.P / c1.P, verified invariant under the map exactly."""
    if c1.map is not c2.map or c1.cofactor != c2.cofactor:
        raise CofactorMismatch("certificates have different maps or cofactors")
    if not (c1.valid and c2.valid):
        raise CofactorMismatch("certificate witness is nonzero")
    (n1, d1), (n2, d2) = pullback(c1.map, c1.P), pullback(c1.map, c2.P)
    if n2 * d1 * c1.P != n1 * d2 * c2.P:
        raise CofactorMismatch("ratio is not invariant under the map")
    return RationalFunction(c2.P, c1.P)


def in_span(polys: Sequence[Polynomial], candidate: Polynomial) -> bool:
    """Exact membership of ``candidate`` in the rational span of ``polys``."""
    vecs, _ = _coefficient_matrix(list(polys) + [candidate])
    base = vecs[:-1]
    return linalg.rank(base) == linalg.rank(vecs)


def _coefficient_matrix(polys: Sequence[Polynomial]):
    monos: set[Monomial] = set()
    for p in polys:
        monos.update(m for m, _ in p.terms())
    universe = tuple(
        sorted({v for m in monos for v in m.vars()}, key=lambda v: v.sort_key())
    )
    index = sorted(monos, key=lambda m: _grlex_key(m, universe))
    return [[p.coefficient(m) for m in index] for p in polys], index


@dataclass
class PencilComparison:
    equal: bool
    witness: Polynomial | None = None  # a member of one span not in the other

    @property
    def verdict(self) -> str:
        return "equal" if self.equal else "different"


def pencil_compare(p: Pencil, q: Pencil) -> PencilComparison:
    """Decide whether two pencils span the same family of curves.

    Exact linear algebra on coefficient vectors over the rationals; on a
    negative answer the witness is a member of one pencil that is not in the
    span of the other.
    """
    span_p = [p.P1, p.P2]
    span_q = [q.P1, q.P2]
    for member in span_q:
        if not in_span(span_p, member):
            return PencilComparison(equal=False, witness=member)
    for member in span_p:
        if not in_span(span_q, member):
            return PencilComparison(equal=False, witness=member)
    return PencilComparison(equal=True)


@dataclass
class ContinuumLimitReport:
    """Exact h-expansion checks of the two invariant polynomials of the
    quartic-oscillator map under alpha = a h^2, beta = b h^2/3,
    gamma = 1 + c h^2/3, delta = d h^2 and y = x + h p."""

    p1_order0_is_one: bool
    p1_order1_is_zero: bool
    p2_order0_is_zero: bool
    p2_order1_is_zero: bool
    p2_order2_is_four_h: bool
    p1_series: dict[int, Polynomial]
    p2_series: dict[int, Polynomial]

    @property
    def all_hold(self) -> bool:
        return (
            self.p1_order0_is_one
            and self.p1_order1_is_zero
            and self.p2_order0_is_zero
            and self.p2_order1_is_zero
            and self.p2_order2_is_four_h
        )


def continuum_limit_check(P1: Polynomial, P2: Polynomial) -> ContinuumLimitReport:
    """Verify P1 = 1 + O(h^2) and P2 = 4 H h^2 + O(h^3) exactly.

    ``P1``/``P2`` are polynomials in the planar variables x = x1^(0),
    y = x1^(1) and the parameters alpha, beta, gamma, delta; the check
    substitutes the step-scalings and the momentum expansion y = x + h p,
    then compares h-coefficients with the Hamiltonian
    H = p^2/2 + a x^4/4 + b x^3/3 + c x^2/2 + d x.
    """
    hvar = param("h")
    h = Polynomial.var(hvar)
    a, b, c, d, p = (Polynomial.var(param(s)) for s in ("a", "b", "c", "d", "p"))
    xv = Polynomial.var(x(1, 0))
    sigma = {
        param("alpha"): a * h**2,
        param("beta"): b * h**2 / 3,
        param("gamma"): 1 + c * h**2 / 3,
        param("delta"): d * h**2,
        x(1, 1): xv + h * p,
    }
    s1 = P1.subs_poly(sigma).split_by(hvar)
    s2 = P2.subs_poly(sigma).split_by(hvar)
    hamiltonian4 = (
        2 * p**2 + a * xv**4 + Fraction(4, 3) * b * xv**3 + 2 * c * xv**2 + 4 * d * xv
    )
    return ContinuumLimitReport(
        p1_order0_is_one=s1.get(0, Polynomial()) == Polynomial.const(1),
        p1_order1_is_zero=s1.get(1, Polynomial.zero()).is_zero(),
        p2_order0_is_zero=s2.get(0, Polynomial.zero()).is_zero(),
        p2_order1_is_zero=s2.get(1, Polynomial.zero()).is_zero(),
        p2_order2_is_four_h=s2.get(2, Polynomial()) == hamiltonian4,
        p1_series=s1,
        p2_series=s2,
    )
