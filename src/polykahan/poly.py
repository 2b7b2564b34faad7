"""Exact sparse multivariate polynomials and rational functions over Q.

Variables come in two kinds: lattice state variables addressed by
(component, shift) -- component ``j`` at time shift ``k``, printed as ``xj``
with one apostrophe per forward shift and one underscore prefix per backward
shift -- and named symbolic parameters such as ``a`` or ``h``.

Coefficients are exact rationals: a stored coefficient is an ``int`` when it
is integral and a ``fractions.Fraction`` otherwise, so polynomial identity
is decidable and every algebraic check in this package is exact.  The zero
polynomial stores no terms; nonzero polynomials never store a zero
coefficient, so two equal polynomials have identical term dictionaries.  A
RationalFunction reduces by content and shared monomials only; its arithmetic
follows the definition, equal denominators adding over the shared one, and
never trial-divides.

Variables and monomials are interned: there is one ``Var`` per (component,
shift, name) and one live ``Monomial`` per exponent vector, so equality is
identity and both hash by identity.  Each variable owns a bit field of every
monomial's packed key, sum_v e_v << v._at; a weakly held table maps keys to
live monomials, and a monomial nothing refers to is collected with its entry.
A product of polynomials, or a sum of such products, adds c1*c2 on the keys
m1._key + m2._key in one accumulation and looks up or makes a monomial only
for a key whose sum survives.  An exponent must lie in 1..``MAX_EXPONENT``;
one beyond it raises ValueError, also in a product term that cancels.

All values are immutable after construction.  Arithmetic never mutates its
operands, and the intern tables change only under one lock, which makes
every object here safe to share between threads.

Component 0 is reserved for the dummy state variable that is identically 1;
it is eliminated when a monomial is built and never appears in a stored
polynomial.
"""

from __future__ import annotations

import functools
import math
import threading
import weakref
from collections.abc import Collection, Iterable, Mapping, Sequence
from fractions import Fraction
from typing import Union

Scalar = Union[int, Fraction]
Number = Union[int, float, Fraction]


class DenominatorVanished(ArithmeticError):
    """Raised when a rational function is evaluated where its denominator is 0."""


class NotLinear(ValueError):
    """Raised by :func:`collect_linear` when a monomial is jointly nonlinear."""


# A monomial's packed key is sum_v e_v << v._at: each variable owns a field
# of _FIELD bits, fixed when the variable is created.  Stored exponents are
# at most MAX_EXPONENT, so the top bit of every field is a guard that no
# stored key sets and the sum of two keys never carries into the next field.
_FIELD = 16
MAX_EXPONENT = (1 << (_FIELD - 1)) - 1
_MASK = (1 << _FIELD) - 1

# One lock makes creating an interned object, and dropping the table entry
# of a collected monomial, atomic; it is reentrant because a collection can
# run that removal in the thread that holds it.  _VARS holds the variables in
# the order they were made, which is the order of their fields, and _GUARDS
# the guard bits of all their fields.
_INTERN = threading.RLock()
_VARS: dict[tuple[int, int, str], "Var"] = {}
_MONOMIALS: dict[int, weakref.KeyedRef] = {}
_GUARDS = 0


def _frozen(self, *args):
    raise AttributeError(f"{type(self).__name__} is immutable")


def _init_slots(obj, **values) -> None:
    for slot, value in values.items():
        object.__setattr__(obj, slot, value)


class Var:
    """A single variable: a lattice state variable or a named parameter.

    State variables have ``name == ''`` and carry (component, shift);
    parameters have a nonempty name and zero component/shift.  There is one
    object per (component, shift, name), so equality is identity.
    """

    __slots__ = ("comp", "shift", "name", "is_param", "_key", "_at")
    __setattr__ = __delattr__ = _frozen

    def __new__(cls, comp: int = 0, shift: int = 0, name: str = ""):
        global _GUARDS
        ident = (comp, shift, name)
        v = _VARS.get(ident)
        if v is None:
            with _INTERN:
                v = _VARS.get(ident)
                if v is None:
                    v = object.__new__(cls)
                    # States order before parameters, by (component, shift)
                    # resp. name; the key fixes canonical monomial order.
                    key = (1, name, comp, shift) if name else (0, comp, shift)
                    _init_slots(
                        v, comp=comp, shift=shift, name=name, is_param=name != "",
                        _key=key, _at=_FIELD * len(_VARS),
                    )
                    _VARS[ident] = v
                    _GUARDS |= 1 << v._at + _FIELD - 1
        return v

    def __reduce__(self):
        # Unpickling and copying go through __new__, which interns.
        return Var, (self.comp, self.shift, self.name)

    def sort_key(self):
        return self._key

    def __lt__(self, other: "Var") -> bool:
        return self._key < other._key

    def __str__(self) -> str:
        if self.name:
            return self.name
        if self.shift >= 0:
            return f"x{self.comp}" + "'" * self.shift
        return "_" * (-self.shift) + f"x{self.comp}"

    __repr__ = __str__


def x(comp: int, shift: int = 0) -> Var:
    """State variable for component ``comp`` (>= 1) at lattice shift ``shift``."""
    if comp < 0:
        raise ValueError("state component must be >= 0")
    return Var(comp=comp, shift=shift)


def param(name: str) -> Var:
    """Named symbolic parameter."""
    if not name:
        raise ValueError("parameter name must be nonempty")
    return Var(name=name)


class Monomial:
    """A product of variables with positive integer exponents.

    Stored as a tuple of (Var, exponent) pairs sorted by the canonical
    variable order.  The empty tuple is the constant monomial 1.  There is
    one live object per exponent vector, found by its packed key in a weakly
    held table, so equality is identity and a product adds two keys.
    """

    __slots__ = ("factors", "degree", "_key", "__weakref__")
    __setattr__ = __delattr__ = _frozen

    def __new__(cls, factors: Collection[tuple[Var, int]] = ()):
        """The monomial of (Var, exponent) pairs with distinct variables."""
        key = 0
        for v, e in factors:
            if not 0 < e <= MAX_EXPONENT:
                raise ValueError(f"exponent {e} of {v} is not in 1..{MAX_EXPONENT}")
            key += e << v._at
        m = _live(key)
        if m is None:
            with _INTERN:
                m = _live(key)
                if m is None:
                    m = object.__new__(cls)
                    factors = tuple(sorted(factors, key=lambda it: it[0]._key))
                    _init_slots(m, factors=factors, degree=sum(e for _, e in factors), _key=key)
                    _MONOMIALS[key] = weakref.KeyedRef(m, _forget, key)
        return m

    def __reduce__(self):
        return Monomial, (self.factors,)

    @staticmethod
    def from_pairs(pairs: Iterable[tuple[Var, int]]) -> "Monomial":
        acc: dict[Var, int] = {}
        for v, e in pairs:
            if e < 0:
                raise ValueError("negative exponent in monomial")
            if e and (v.comp or v.is_param):  # the dummy variable x0 == 1 drops out
                acc[v] = acc.get(v, 0) + e
        return Monomial(acc.items())

    def degree_in(self, vars: frozenset[Var] | set[Var]) -> int:
        return sum(e for v, e in self.factors if v in vars)

    def state_degree(self) -> int:
        return sum(e for v, e in self.factors if not v.is_param)

    def exponent(self, v: Var) -> int:
        return self._key >> v._at & _MASK

    def vars(self) -> tuple[Var, ...]:
        return tuple(v for v, _ in self.factors)

    def __mul__(self, other: "Monomial") -> "Monomial":
        return _monomial(self._key + other._key)

    def without(self, v: Var) -> "Monomial":
        return Monomial(tuple((w, e) for w, e in self.factors if w is not v))

    def __str__(self) -> str:
        return "*".join(str(v) if e == 1 else f"{v}^{e}" for v, e in self.factors) or "1"

    __repr__ = __str__


def _live(key: int) -> Monomial | None:
    """The live monomial of packed key ``key``, if there is one."""
    ref = _MONOMIALS.get(key)
    return None if ref is None else ref()


def _monomial(key: int) -> Monomial:
    """The monomial of packed key ``key``, a sum or difference of stored keys
    that borrows from no field: the live one, or one made from the key's
    fields; ValueError when a field holds an exponent beyond the limit."""
    m = _live(key)
    if m is None:
        owners = list(_VARS.values())[: key.bit_length() // _FIELD + 1]
        m = Monomial([(v, e) for v in owners if (e := key >> v._at & _MASK)])
    return m


def _forget(ref: weakref.KeyedRef, table=_MONOMIALS, lock=_INTERN) -> None:
    # Called when a monomial is collected; a monomial made since under the
    # same key keeps its entry.  The table and lock are bound as defaults so
    # that a collection at interpreter exit needs no module global.
    with lock:
        if table.get(ref.key) is ref:
            del table[ref.key]


def _quotient(m: Monomial, d: Monomial) -> Monomial:
    """m / d for a monomial ``d`` that divides ``m``."""
    return _monomial(m._key - d._key)


_ONE = Monomial()


def _grlex_key(m: Monomial, universe: tuple[Var, ...]):
    # Graded lexicographic key relative to a fixed, canonically sorted
    # variable universe; larger key = larger monomial.
    exps = dict(m.factors)
    return (m.degree, tuple([exps.get(v, 0) for v in universe]))


class Polynomial:
    """Sparse multivariate polynomial with exact rational coefficients."""

    __slots__ = ("_terms",)

    def __init__(
        self,
        terms: Mapping[Monomial, Scalar] | Iterable[tuple[Monomial, Scalar]] | None = None,
    ):
        """``terms`` is a mapping or an iterable of (monomial, coefficient)
        pairs; the coefficients of equal monomials are added, as by ``+``."""
        if isinstance(terms, Mapping):
            terms = terms.items()
        self._terms = _accumulate({}, terms or ())

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "Polynomial":
        return Polynomial()

    @staticmethod
    def const(c: Scalar) -> "Polynomial":
        return Polynomial({_ONE: c})

    @staticmethod
    def var(v: Var) -> "Polynomial":
        return Polynomial({Monomial.from_pairs([(v, 1)]): 1})

    @staticmethod
    def monomial(m: Monomial, c: Scalar = 1) -> "Polynomial":
        return Polynomial({m: c})

    # -- inspection ----------------------------------------------------

    def terms(self):
        return self._terms.items()

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return all(m.degree == 0 for m in self._terms)

    def constant_value(self) -> Scalar:
        if not self.is_constant():
            raise ValueError(f"not a constant polynomial: {self}")
        return self._terms.get(_ONE, 0)

    def vars(self) -> set[Var]:
        return {v for m in self._terms for v, _ in m.factors}

    def degree(self) -> int:
        return max((m.degree for m in self._terms), default=0)

    def state_degree(self) -> int:
        return max((m.state_degree() for m in self._terms), default=0)

    def sorted_terms(self) -> list[tuple[Monomial, Scalar]]:
        """Terms in descending graded-lex order (canonical printing order)."""
        universe = tuple(sorted(self.vars(), key=Var.sort_key))
        return sorted(self._terms.items(), key=lambda it: _grlex_key(it[0], universe), reverse=True)

    def leading_coefficient(self) -> Scalar:
        """Coefficient of the first of ``sorted_terms()``, found without sorting."""
        if not self._terms:
            return 0
        universe = tuple(sorted(self.vars(), key=Var.sort_key))
        return max(self._terms.items(), key=lambda it: _grlex_key(it[0], universe))[1]

    def coefficient(self, m: Monomial) -> Scalar:
        return self._terms.get(m, 0)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other) -> "Polynomial":
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        p = Polynomial.__new__(Polynomial)
        p._terms = _accumulate(dict(self._terms), other._terms.items()) or {}  # drop an emptied table
        return p

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        p = Polynomial.__new__(Polynomial)
        p._terms = {m: -c for m, c in self._terms.items()}
        return p

    def __sub__(self, other) -> "Polynomial":
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Polynomial":
        return (-self) + other

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            c0 = _exact(other)
            if not c0:
                return Polynomial()
            if c0 == 1:
                return self
            p = Polynomial.__new__(Polynomial)
            p._terms = {m: _exact(c * c0) for m, c in self._terms.items()}
            return p
        if not isinstance(other, Polynomial):
            return NotImplemented
        return _sum_of_products([(self, other)])

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            if not other:
                raise ZeroDivisionError("division of polynomial by zero scalar")
            return self * Fraction(1, other)
        return NotImplemented

    def __pow__(self, e: int) -> "Polynomial":
        if not isinstance(e, int) or e < 0:
            raise ValueError("polynomial exponent must be a nonnegative integer")
        return _coerce_poly(_powers(self, e)[-1])

    def __eq__(self, other) -> bool:
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        raise TypeError("Polynomial is not hashable")

    # -- calculus and structure -----------------------------------------

    def derivative(self, v: Var) -> "Polynomial":
        dv = Monomial.from_pairs([(v, 1)])
        return Polynomial(
            (_quotient(m, dv), c * m.exponent(v)) for m, c in self._terms.items() if m.exponent(v)
        )

    def map_vars(self, fn) -> "Polynomial":
        """Rename variables via ``fn: Var -> Var`` (merging is allowed)."""
        return Polynomial(
            (Monomial.from_pairs([(fn(v), e) for v, e in m.factors]), c)
            for m, c in self._terms.items()
        )

    def shift_states(self, offset: int) -> "Polynomial":
        """Shift every state variable's lattice index by ``offset``."""
        return self.map_vars(
            lambda v: v if v.is_param else Var(comp=v.comp, shift=v.shift + offset)
        )

    def split_by(self, v: Var) -> dict[int, "Polynomial"]:
        """Group terms by the exponent of ``v``, removing ``v`` itself."""
        groups: dict[int, list[tuple[Monomial, Fraction]]] = {}
        for m, c in self._terms.items():
            groups.setdefault(m.exponent(v), []).append((m.without(v), c))
        return {e: Polynomial(pairs) for e, pairs in groups.items()}

    def eval(self, point: Mapping[Var, Number]):
        """Evaluate at a point binding every variable.

        Returns a Fraction when all bound values are exact, a float as soon
        as any value is a float.
        """
        inexact = any(isinstance(val, float) for val in point.values())
        kind = float if inexact else Fraction
        values = {v: kind(val) for v, val in point.items()}
        total = kind(0)
        for m, c in self._terms.items():
            term = float(c) if inexact else c
            for v, e in m.factors:
                try:
                    val = values[v]
                except KeyError:
                    raise KeyError(f"unbound variable {v} in evaluation") from None
                term *= val**e
            total += term
        return total

    def substitute(self, sigma: Mapping[Var, object]) -> "RationalFunction":
        """Exact composition: replace variables by rational functions.

        Values of ``sigma`` may be RationalFunction, Polynomial, Var or
        scalars; unmapped variables stay fixed.  The result is num/den from
        :func:`_compose`, over the product of each shared denominator to
        the total degree in its variables.
        """
        relevant = self.vars()
        subs = {v: _coerce_rational(val) for v, val in sigma.items() if v in relevant}
        (num,), den = _compose((self,), subs, {})
        return RationalFunction(num, den)

    def subs_poly(self, sigma: Mapping[Var, object]) -> "Polynomial":
        """Substitution whose result must be polynomial (constant denominator)."""
        return self.substitute(sigma).as_polynomial()

    # -- normalization ---------------------------------------------------

    def content(self) -> Fraction:
        """Positive rational c such that self/c has coprime integer coefficients."""
        if not self._terms:
            return Fraction(1)
        coeffs = self._terms.values()
        den_lcm = math.lcm(*(c.denominator for c in coeffs))
        num_gcd = math.gcd(*(c.numerator * (den_lcm // c.denominator) for c in coeffs))
        return Fraction(num_gcd, den_lcm)

    def primitive(self) -> "Polynomial":
        """Scaled copy with coprime integer coefficients and positive leading
        coefficient in graded-lex order."""
        if not self._terms:
            return self
        p = self / self.content()
        if p.leading_coefficient() < 0:
            p = -p
        return p

    # -- printing --------------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts: list[str] = []
        for i, (m, c) in enumerate(self.sorted_terms()):
            neg = c < 0
            mag = -c if neg else c
            if m.degree == 0:
                body = str(mag)
            elif mag == 1:
                body = str(m)
            else:
                body = f"{mag}*{m}"
            if i == 0:
                parts.append(("-" if neg else "") + body)
            else:
                parts.append(("- " if neg else "+ ") + body)
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"<Polynomial {self}>"


def _accumulate(out: dict, pairs) -> dict:
    """Add (monomial, coefficient) pairs into ``out`` one by one.  A monomial
    is popped as soon as its running sum is zero, so the term order is that
    of adding the pairs with repeated ``+``."""
    for m, c in pairs:
        if type(c) is not int:
            c = _exact(c)
        s = out.get(m)
        if s is not None:
            c = _exact(s + c)
        if c:
            out[m] = c
        else:
            out.pop(m, None)
    return out


def _sum_of_products(pairs) -> Polynomial:
    """The sum of p*q over the (p, q) pairs of Polynomials: each c1*c2 is added
    on the packed key m1._key + m2._key, outer terms of p, inner of q, popped
    as soon as its running sum is zero, as by ``_accumulate``; a Monomial is
    looked up or made only for a key that survives.  A new key that sets a
    guard bit raises ValueError, even if its term would cancel later."""
    acc: dict[int, Scalar] = {}
    get, guards = acc.get, _GUARDS
    for p, q in pairs:
        inner = [(m._key, c) for m, c in q._terms.items()]
        for m1, c1 in p._terms.items():
            k1 = m1._key
            for k2, c2 in inner:
                k = k1 + k2
                s = get(k)
                if s is None:
                    if k & guards:
                        _monomial(k)  # raises: an exponent is beyond MAX_EXPONENT
                    acc[k] = c1 * c2
                elif s := s + c1 * c2:
                    acc[k] = s
                else:
                    del acc[k]
    out, live = Polynomial.__new__(Polynomial), _MONOMIALS.get
    out._terms = {
        (ref := live(k)) and ref() or _monomial(k): c if type(c) is int else _exact(c)
        for k, c in acc.items()
    }
    return out


def _cleared(p: Polynomial) -> tuple[Polynomial, int]:
    """(L*p, L) for L the lcm of p's coefficient denominators; L*p has int
    coefficients, found without making a Fraction."""
    L = math.lcm(*(c.denominator for c in p._terms.values()))
    out = Polynomial.__new__(Polynomial)
    out._terms = {m: c.numerator * (L // c.denominator) for m, c in p._terms.items()}
    return out, L


def _exact(c) -> Scalar:
    """``c`` exactly, as an int when it is integral and a Fraction otherwise."""
    if type(c) is int:
        return c
    c = c if type(c) is Fraction else Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _coerce_poly(v) -> Polynomial:
    if isinstance(v, Polynomial):
        return v
    if isinstance(v, (int, Fraction)):
        return Polynomial.const(v)
    if isinstance(v, Var):
        return Polynomial.var(v)
    return NotImplemented


def _powers(p, emax: int, out: list | None = None) -> list:
    """[1, p, p^2, ..., p^emax] for a Polynomial or a number, each power from
    p^2 on one product with p; the one power routine (``Polynomial.__pow__``
    takes the last).  The 1 is the int: 1 * q is q, with no product.  A list
    ``out`` of the powers [1, p, ...] is extended in place as far as needed."""
    out = [1, p] if out is None else out
    while len(out) <= emax:
        out.append(out[-1] * p)
    return out[: emax + 1]


def _coerce_rational(v) -> "RationalFunction":
    if isinstance(v, RationalFunction):
        return v
    p = _coerce_poly(v)
    if p is NotImplemented:
        raise TypeError(f"cannot interpret {v!r} as a rational function")
    return RationalFunction(p)


def _compose(polys: Sequence[Polynomial], subs: Mapping[Var, "RationalFunction"], tables: dict):
    """(nums, den) with polys[i](subs) = nums[i]/den exactly, every variable
    of ``subs`` replaced at once by its RationalFunction; the one composition
    routine.

    The variables v -> n_v/d_v of the polys that share one nonconstant
    denominator d form a class, every other variable a class of its own,
    with E the largest total degree of a poly in the class.  Each poly's
    terms are grouped by their exponents e_v, and each group is multiplied,
    class by class, by prod_v n_v^e_v d^(E - sum e_v), read from
    ``tables[class]`` and filled there on first use, where each n_v's powers
    reach only v's own largest exponent and d's reach E, both lists extended
    as later calls need; den = prod d^E over the classes."""
    present, classes = set().union(*(p.vars() for p in polys)), {}
    for v, rf in subs.items():
        if v in present:
            shared = v if rf.den.is_constant() else frozenset(rf.den.terms())
            classes.setdefault(shared, ([], rf.den))[0].append(v)
    solved = [v for vs, _ in classes.values() for v in vs]
    grouped: list[dict[tuple[int, ...], list]] = []
    for p in polys:
        groups: dict[tuple[int, ...], list] = {}
        for mono, c in p.terms():
            rest = [(v, e) for v, e in mono.factors if v not in subs]
            key = tuple(mono.exponent(v) for v in solved)
            groups.setdefault(key, []).append((Monomial(rest), c))
        grouped.append(groups)
    keys = [key for groups in grouped for key in groups]
    rows, at = [], 0
    for vs, d in classes.values():
        part = slice(at, at + len(vs))  # the class's exponents in a group key
        at += len(vs)
        npows, dpow, factors = tables.setdefault(tuple(vs), ([[1, subs[v].num] for v in vs], [1, d], {}))
        for v, pows, top in zip(vs, npows, (max(col) for col in zip(*(key[part] for key in keys)))):
            _powers(subs[v].num, top, pows)
        E = max(sum(key[part]) for key in keys)
        _powers(d, E, dpow)
        rows.append((part, E, npows, dpow, factors))
    nums = []
    for groups in grouped:
        num = []
        for key, pairs in groups.items():
            g = Polynomial(pairs)
            for part, E, npows, dpow, factors in rows:
                es = key[part]
                if (es, E) not in factors:
                    powers = [*(n[e] for n, e in zip(npows, es)), dpow[E - sum(es)]]
                    factors[es, E] = math.prod(powers)
                g = g * factors[es, E]
            num.extend(g.terms())
        nums.append(Polynomial(num))
    return nums, math.prod((dpow[E] for _, E, _, dpow, _ in rows), start=Polynomial.const(1))


def try_divide(p: Polynomial, q: Polynomial) -> Polynomial | None:
    """Exact quotient p/q, or None when q does not divide p; called only where
    the quotient is used: ``RationalFunction.as_polynomial``, ``darboux._certify``."""
    if q.is_zero():
        return None
    if q.is_constant():
        return p / q.constant_value()
    if p.is_zero():
        return Polynomial()
    universe = tuple(sorted(p.vars() | q.vars(), key=lambda v: v.sort_key()))
    grlex = functools.cache(lambda m: _grlex_key(m, universe))  # once per monomial
    qm, qc = max(q.terms(), key=lambda it: grlex(it[0]))
    quotient: list[tuple[Monomial, Fraction]] = []
    rem = p
    while not rem.is_zero():
        rm, rc = max(rem.terms(), key=lambda it: grlex(it[0]))
        # Leading-term division: fail fast if the monomial does not divide.
        if any(rm.exponent(v) < e for v, e in qm.factors):
            return None
        t = Polynomial.monomial(_quotient(rm, qm), Fraction(rc, qc))
        quotient.extend(t.terms())
        rem = rem - t * q
    return Polynomial(quotient)


class RationalFunction:
    """Quotient of two polynomials, kept partially reduced.

    Construction reduces by the common rational content and by monomial
    factors shared between numerator and denominator, and normalizes the
    denominator to coprime integer coefficients with positive leading
    coefficient.  Arithmetic follows the definition and never trial-divides:
    a/b + c/d = (ad + cb)/(bd), over b alone when d == b, and a/b * c/d =
    (ac)/(bd).  Equality is decided by cross-multiplication: no gcd is needed.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial, den: Polynomial | Scalar = 1):
        num = _coerce_poly(num)
        den = _coerce_poly(den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator polynomial")
        if num.is_zero():
            self.num, self.den = Polynomial(), Polynomial.const(1)
            return
        # Shared monomial factor across all terms of num and den.
        common = _common_monomial(num, den)
        if common.factors:
            num = _strip_monomial(num, common)
            den = _strip_monomial(den, common)
        scale = den.content()
        if den.leading_coefficient() < 0:
            scale = -scale
        self.num = num / scale
        self.den = den / scale

    # -- basic structure -------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def as_polynomial(self) -> Polynomial:
        if (q := try_divide(self.num, self.den)) is not None:
            return q
        raise ValueError(f"not a polynomial: ({self.num}) / ({self.den})")

    def vars(self) -> set[Var]:
        return self.num.vars() | self.den.vars()

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other) -> "RationalFunction":
        other = _coerce_rational(other)
        if self.den == other.den:
            return RationalFunction(self.num + other.num, self.den)
        return RationalFunction(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self) -> "RationalFunction":
        out = RationalFunction.__new__(RationalFunction)
        out.num, out.den = -self.num, self.den
        return out

    def __sub__(self, other) -> "RationalFunction":
        return self + (-_coerce_rational(other))

    def __rsub__(self, other) -> "RationalFunction":
        return (-self) + other

    def __mul__(self, other) -> "RationalFunction":
        other = _coerce_rational(other)
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RationalFunction":
        other = _coerce_rational(other)
        return self * RationalFunction(other.den, other.num)

    def __rtruediv__(self, other) -> "RationalFunction":
        return _coerce_rational(other) / self

    def __pow__(self, e: int) -> "RationalFunction":
        if e < 0:
            return RationalFunction(self.den, self.num) ** (-e)
        return RationalFunction(self.num**e, self.den**e)

    def __eq__(self, other) -> bool:
        try:
            other = _coerce_rational(other)
        except TypeError:
            return NotImplemented
        # a/b == c/d  iff  a*d - c*b == 0, avoiding any gcd requirement.
        return self.num * other.den == other.num * self.den

    def __hash__(self):
        raise TypeError("RationalFunction is not hashable")

    # -- analysis ----------------------------------------------------------

    def derivative(self, v: Var) -> "RationalFunction":
        return self.gradient((v,))[0]

    def gradient(self, vs: Sequence[Var]) -> list["RationalFunction"]:
        """The derivative by each of ``vs``, by the quotient rule over one
        square of the denominator."""
        square = self.den * self.den
        return [
            RationalFunction(self.num.derivative(v) * self.den - self.num * self.den.derivative(v), square)
            for v in vs
        ]

    def substitute(self, sigma: Mapping[Var, object]) -> "RationalFunction":
        """Exact composition, num and den composed over one prod d^E
        (:func:`_compose`), which the quotient leaves out: no power of a
        substituted denominator stays in both parts, and nothing is divided."""
        relevant = self.vars()
        subs = {v: _coerce_rational(val) for v, val in sigma.items() if v in relevant}
        (num, den), _ = _compose((self.num, self.den), subs, {})
        return RationalFunction(num, den)

    def eval(self, point: Mapping[Var, Number]):
        d = self.den.eval(point)
        if d == 0:
            raise DenominatorVanished(f"denominator vanished at {dict(point)}")
        return self.num.eval(point) / d

    def __str__(self) -> str:
        if self.den == Polynomial.const(1):
            return str(self.num)
        return f"({self.num}) / ({self.den})"

    def __repr__(self) -> str:
        return f"<RationalFunction {self}>"


def _common_monomial(*polys: Polynomial) -> Monomial:
    """The largest monomial dividing every term of the nonzero ``polys``."""
    monos = [m for p in polys for m in p._terms]
    shared = dict(monos[0].factors)
    for m in monos[1:]:
        if not shared:
            return _ONE
        exps = dict(m.factors)
        shared = {v: min(e, exps[v]) for v, e in shared.items() if v in exps}
    return Monomial(shared.items())


def _strip_monomial(p: Polynomial, m: Monomial) -> Polynomial:
    q = Polynomial.__new__(Polynomial)
    q._terms = {_quotient(mm, m): c for mm, c in p.terms()}
    return q


def collect_linear(p: Polynomial, vars: Iterable[Var]) -> tuple[dict[Var, Polynomial], Polynomial]:
    """Split ``p = sum_v coeff[v]*v + remainder`` for jointly linear ``vars``.

    Raises NotLinear if any monomial of ``p`` has joint degree >= 2 in
    ``vars``.  Coefficients and remainder are free of ``vars``.
    """
    vs = frozenset(vars)
    coeffs: dict[Var, list[tuple[Monomial, Fraction]]] = {}
    remainder: list[tuple[Monomial, Fraction]] = []
    for m, c in p.terms():
        deg = m.degree_in(vs)
        if deg == 0:
            remainder.append((m, c))
        elif deg == 1:
            v = next(w for w in m.vars() if w in vs)
            coeffs.setdefault(v, []).append((m.without(v), c))
        else:
            raise NotLinear(f"monomial {m} has degree {deg} in {sorted(vs)}")
    return {v: Polynomial(pairs) for v, pairs in coeffs.items()}, Polynomial(remainder)
