"""Darboux polynomials of birational maps, with Jacobian cofactor.

A polynomial P is Darboux for the map Phi when P(Phi(x)) = J(x) P(x) with J
the Jacobian determinant.  Such a P makes the volume form dx_1^...^dx_d / P
invariant, and the ratio of two Darboux polynomials with the same cofactor
is a first integral.

The search is linear algebra at points (Celledoni, Evripidou, McLaren, Owren,
Quispel, Tapley, van der Kamp, J. Phys. A 52 (2019), arXiv:1902.04685): over
an ansatz of all monomials up to a degree bound, generated as exponent
vectors in graded-lex order, each exact rational point p gives the row
[m(Phi(p)) - J(p) m(p)].  Rows are built on small integers: the shift
components of Phi are the point's own coordinates, and Phi's solved block
and J are compiled once per bound map over one monomial table, closed
downward per ansatz so that a monomial at p = a/q is one product, a lower
entry times a coordinate; each value is a pair in lowest terms, the image
side is one such table over the lcm D of the image denominators, J's
denominator, where it is a power of Phi's, is that power of the value the
row has just read, and each row is scaled by lcm(Jd q^k, D^k) and divided
by its gcd.  The nullspace stays modular on a ladder of Mersenne primes
(``linalg.nullspace``).  Every Darboux polynomial satisfies every row, so
the nullspace contains the true space; an exact pullback identity, one
accumulation of integer products, certifies each basis vector, and a
failure draws more points from a wider box.  A nonzero relation of bounded
degree vanishes at a random point of a box of side S with probability at
most degree/S, so the loop ends, and the echelonized basis depends only on
the space, not on the points.  Monomials are made only for the vectors
certified.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import linalg
from .maps import BirationalMap, jacobian
from .poly import DenominatorVanished, _cleared, _sum_of_products, try_divide
from .poly import Monomial, Polynomial, RationalFunction, Var, _compose, _powers, param, x

_EXTRA_ROWS = 2  # rows per batch beyond the number of ansatz monomials


class CofactorMismatch(ArithmeticError):
    """Certificates do not share a cofactor, or a witness is nonzero."""


@dataclass
class DarbouxCertificate:
    """A primitive Darboux polynomial with its cofactor and a zero witness.

    ``witness`` is a*num - b*P, where num/den = P(Phi) is the pullback and
    a*num = b*P is P(Phi) = J*P with denominators cleared; it is zero exactly
    when the residual is, and is kept as evidence rather than re-derived.
    ``_certify`` sums it on integers, times the lcm of the denominators of a,
    b and num, and divides a nonzero sum back.
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


def _grlex_exponents(vars_: Sequence[Var], maxdeg: int) -> list[tuple[int, ...]]:
    """The exponent vectors over ``vars_`` of all monomials of total degree <=
    maxdeg, ascending graded-lex: by degree, then lexicographically in the
    canonical variable order, as ``poly._grlex_key`` orders monomials."""
    order = sorted(range(len(vars_)), key=lambda j: vars_[j].sort_key())
    out = []
    for total in range(maxdeg + 1):
        # multisets of canonical positions come in lex order, their exponent vectors descending
        for combo in reversed(list(itertools.combinations_with_replacement(order, total))):
            ex = [0] * len(vars_)
            for j in combo:
                ex[j] += 1
            out.append(tuple(ex))
    return out


def _polynomial(vars_: Sequence[Var], exps, coefficients) -> Polynomial:
    """The polynomial with these coefficients on the monomials x^ex, ex in ``exps``."""
    return Polynomial((Monomial.from_pairs(zip(vars_, ex)), c) for ex, c in zip(exps, coefficients) if c)


def _require_bound(m: BirationalMap):
    free = {v for e in m.scheme.equations for v in e.vars() if v.is_param}
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
    """Compile Phi's solved block and J once per bound map and cofactor, plan
    once per ansatz; return the function that maps a rational point p = a/q
    to the integer row

        L * [mono(Phi(p)) - J(p)*mono(p) per ansatz exponent vector]

    divided by the gcd of its entries, where Phi_j(p) = n_j/d_j in lowest
    terms, D = lcm(d_j), J(p) = Jn/Jd in lowest terms, k = maxdeg and
    L = lcm(Jd q^k, D^k); DenominatorVanished where Phi or J is undefined.

    The first (n-1)N components of Phi are shifts, read off the point as its
    own coordinates.  Each numerator and denominator of the others and of J
    is compiled with integer coefficients to terms (c, index of x^e in one
    table of exponent vectors, degree - |e|), and the ansatz extends a copy
    of the table that ``_close`` closes.  Each value is an integer pair
    (n, d), d > 0, a positive multiple of its lowest terms, divided by its
    gcd.  J's denominator is d^s * rest, d = m.forward[-1].den the solved
    denominator: where J.den = d^s (s = deg J.den / deg d, checked once per
    map and cofactor), rest = 1 and Jd is d's value at the point, as the row
    has just read it for Phi, to the power s; otherwise s = 0, rest = J.den.
    With y_j = n_j*(D/d_j) and g = gcd(Jd q^k, D^k), entry e is
    (Jd q^k/g) D^r y^e - Jn (D^k/g) q^r a^e, r = k - |e|, y^e from the
    ansatz closed alike: a positive multiple of the rational row, so the
    primitive row is the same bit for bit."""
    if m._cache.get("relation_forms", (None,))[0] is not J:
        table, forms, top = {}, [], 0
        slot = {v: i for i, v in enumerate(m.state_vars)}
        d = m.forward[-1].den
        s = J.den.degree() // d.degree() if d.degree() else 0
        if s and J.den != _powers(d, s)[-1]:
            s = 0

        def terms(p: Polynomial, scale: Fraction, deg: int):
            out = []
            for mono, c in p.terms():
                ex = [0] * len(slot)
                for v, e in mono.factors:
                    ex[slot[v]] = e
                out.append((int(c * scale), table.setdefault(tuple(ex), len(table)), deg - sum(ex)))
            return out

        # (num, rest, e): the denominator is rest times the one before it to the e
        parts = [(rf.num, rf.den, 0) for rf in m.forward[m.dim - m.N :]]
        parts.append((J.num, J.den if s == 0 else Polynomial.const(1), s))
        d_deg, d_scale = 0, 1
        for num, den, e in parts:
            cn, cd = num.content(), den.content()
            ratio, deg = cn / cd, max(num.degree(), den.degree() + e * d_deg)
            n_scale, den_scale = ratio.numerator / cn * d_scale**e, ratio.denominator / cd
            forms.append((terms(num, n_scale, deg), terms(den, den_scale, deg - e * d_deg), e))
            top, d_deg, d_scale = max(top, deg), deg, den_scale
        m._cache["relation_forms"] = (J, forms, top, table, {})
    _, forms, top, table, plans = m._cache["relation_forms"]
    if (key := tuple(exps)) not in plans:
        table, k = dict(table), max(map(sum, exps))
        shape = [(table.setdefault(ex, len(table)), k - sum(ex)) for ex in key]
        ansatz = {ex: s for s, ex in enumerate(key)}  # y^ex at the ansatz position s
        plans[key] = (k, max(top, k), shape, _close(table), _close(ansatz))
    k, top, shape, steps, image_steps = plans[key]

    def row(point) -> list[int]:
        q = math.lcm(*(v.denominator for v in point))
        qpow = _powers(q, top)
        mono = _table_values(steps, [v.numerator * (q // v.denominator) for v in point])
        pairs, d = [(v.numerator, v.denominator) for v in point[m.N :]], 1
        for num, den, e in forms:
            d = sum(c * mono[i] * qpow[r] for c, i, r in den) * d**e
            if d == 0:
                raise DenominatorVanished("denominator vanished at a sample point")
            n = sum(c * mono[i] * qpow[r] for c, i, r in num)
            g = math.gcd(n, d) if d > 0 else -math.gcd(n, d)
            pairs.append((n // g, d // g))
        *image, (jn, jd) = pairs
        D = math.lcm(*(d for _, d in image))
        y = _table_values(image_steps, [n * (D // d) for n, d in image])
        Dpow = _powers(D, k)
        jq = jd * qpow[k]
        g = math.gcd(jq, Dpow[k])
        lhs = [jq // g * v for v in Dpow]
        rhs = [jn * (Dpow[k] // g) * v for v in qpow[: k + 1]]
        out = [lhs[r] * y[s] - rhs[r] * mono[i] for s, (i, r) in enumerate(shape)]
        g = math.gcd(*out)
        return [v // g for v in out] if g > 1 else out

    return row


def _close(table: dict) -> list[tuple[int, int, int]]:
    """Extend ``table`` (exponent tuple -> index) downward so that each entry but
    the zero exponent is a lower entry, one already there if any, times one
    coordinate; return these steps (index, lower index, j), lower degrees first."""
    steps = []
    for deg in range(max(map(sum, table)), 0, -1):
        for ex in [ex for ex in table if sum(ex) == deg]:
            lowers = [(j, (*ex[:j], e - 1, *ex[j + 1 :])) for j, e in enumerate(ex) if e]
            j, lower = next((pair for pair in lowers if pair[1] in table), lowers[0])
            steps.append((table[ex], table.setdefault(lower, len(table)), j))
    return steps[::-1]


def _table_values(steps: list, a: list[int]) -> list[int]:
    """a^e per entry of a table closed by ``_close``: 1 at the zero exponent,
    and a^e = a^lower * a_j for each step (index of e, index of lower, j)."""
    mono = [1] * (len(steps) + 1)
    for i, lower, j in steps:
        mono[i] = mono[lower] * a[j]
    return mono


def pullback(m: BirationalMap, P: Polynomial) -> tuple[Polynomial, Polynomial]:
    """(num, den) with P(Phi) = num/den exactly, for P a polynomial in the
    window's state variables and parameters.  The first (n-1)N components of
    Phi are shifts, so P is shifted up one level and ``poly._compose``
    substitutes the solved block for the top level, with its tables kept per
    map; parameters may stay symbolic."""
    solved = {x(j, m.n): rf for j, rf in enumerate(m.forward[-m.N:], start=1)}
    (num,), den = _compose((P.shift_states(1),), solved, m._cache.setdefault("pullback", {}))
    return num, den


def _certify(P: Polynomial, m: BirationalMap, J: RationalFunction) -> DarbouxCertificate:
    """Check P(Phi) = J*P as a*num == b*P, num/den the pullback of P: (a, b) is
    (1, Jn*den/Jd), (Jd/den, Jn) or (Jd, Jn*den) as Jd | den, den | Jd or neither.

    (a, b) depend only on J and den, and are cached per den times the lcm L
    of their coefficients' denominators.  With num times the lcm L1 of its own,
    the witness a*num - b*P times L*L1 is one accumulation on integers, so
    a valid certificate's is summed with no Fraction and no monomial made; a
    nonzero one is divided by L*L1 for the CofactorMismatch."""
    if P.is_zero():
        raise ValueError("the zero polynomial is not a Darboux polynomial")
    P = P.primitive()
    num, den = pullback(m, P)
    key = ("certify", *den.terms())
    if m._cache.get(key, (None,))[0] is not J:
        if (q := try_divide(den, J.den)) is not None:
            a, b = Polynomial.const(1), J.num * q
        elif (q := try_divide(J.den, den)) is not None:
            a, b = q, J.num
        else:
            a, b = J.den, J.num * den
        L = math.lcm(*(c.denominator for p in (a, b) for _, c in p.terms()))
        m._cache[key] = (J, L, a * L, b * -L)
    _, L, a, minus_b = m._cache[key]
    num, L1 = _cleared(num)
    witness = _sum_of_products([(num, a), (minus_b, P * L1)])
    if not witness.is_zero():
        witness = witness / (L * L1)
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
    exps = _grlex_exponents(m.state_vars, maxdeg)
    J = jacobian(m)[1]
    relation_row = _relation_rows(m, J, exps)
    rows: list[list[int]] = []
    for batch in itertools.count():
        for point in _sample_points(m.dim, len(exps) + _EXTRA_ROWS, batch):
            try:
                rows.append(relation_row(point))
            except DenominatorVanished:
                continue
        null = linalg.nullspace(rows, ncols=len(exps))
        try:
            return [_certify(_polynomial(m.state_vars, exps, vec), m, J) for vec in null]
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


def _coefficient_rows(polys: Sequence[Polynomial]) -> list[list]:
    """Coefficient vectors of ``polys``, columns in first-seen monomial order (ranks ignore it)."""
    monos = dict.fromkeys(m for p in polys for m, _ in p.terms())
    return [[p.coefficient(m) for m in monos] for p in polys]


def in_span(polys: Sequence[Polynomial], candidate: Polynomial) -> bool:
    """Exact membership of ``candidate`` in the rational span of ``polys``."""
    vecs = _coefficient_rows([*polys, candidate])
    return linalg.rank(vecs[:-1]) == linalg.rank(vecs)


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
    vecs = _coefficient_rows([p.P1, p.P2, q.P1, q.P2])
    both = linalg.rank(vecs)
    sides = ((vecs[:2], vecs[2], (q.P1, q.P2)), (vecs[2:], vecs[0], (p.P1, p.P2)))
    for base, first, members in sides:
        if (r := linalg.rank(base)) < both:  # a member of the other pencil is outside
            return PencilComparison(False, members[linalg.rank([*base, first]) == r])
    return PencilComparison(equal=True)


@dataclass
class ContinuumLimitReport:
    """Exact h-expansion checks of the two invariant polynomials of the
    quartic-oscillator map under ``_qrt_coefficients`` and y = x + h p."""

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


def _qrt_coefficients(a, b, c, d, h):
    """(alpha, beta, gamma, delta) = (a h^2, b h^2/3, 1 + c h^2/3, d h^2): the
    coefficients of the solved QRT update of x'' = -a x^3 - b x^2 - c x - d
    with step h, for Fraction or Polynomial arguments."""
    h2 = h**2
    return a * h2, b * h2 / 3, 1 + c * h2 / 3, d * h2


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
    names = map(param, ("alpha", "beta", "gamma", "delta"))
    sigma = {**dict(zip(names, _qrt_coefficients(a, b, c, d, h))), x(1, 1): xv + h * p}
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
