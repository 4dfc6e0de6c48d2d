"""Coefficient rings: exact rationals, multivariate polynomials over Q, and floats.

A scalar is a ``Fraction``, a :class:`Polynomial` or a ``float``.  Binary
operations stay inside one ring; the only legal promotions are
rational -> polynomial and rational -> float.  Mixing a polynomial with a
float raises :class:`RingMismatchError`.  All values are immutable.  In
every ring a scalar is zero exactly when it is falsy (``is_zero`` at tol
0), which is how forms and polynomials drop zero coefficients.
"""
from __future__ import annotations

import math
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Optional, Union

Rational = Fraction


class RingMismatchError(TypeError):
    """Operands live in incompatible coefficient rings."""


class MissingVariableError(ValueError):
    """A polynomial was evaluated without assignments for all its variables."""


class ExactnessError(ArithmeticError):
    """An exact root has no rational value; rerun in the float ring."""


def _var_key(name: str):
    # natural order: b2 < b10 < b15 < c
    head = name.rstrip("0123456789")
    tail = name[len(head):]
    return (head, int(tail) if tail else -1)


# A monomial is a tuple of (variable, exponent) pairs, exponents > 0,
# sorted by _var_key.  The empty tuple is the constant monomial.
Monomial = tuple


@lru_cache(maxsize=None)
def _mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    # a pure function of two tuples; a survey pass has 96 distinct pairs
    exps: dict = dict(m1)
    for v, e in m2:
        exps[v] = exps.get(v, 0) + e
    return tuple(sorted(exps.items(), key=lambda ve: _var_key(ve[0])))


def _mono_div(m1: Monomial, m2: Monomial) -> Optional[Monomial]:
    exps = dict(m1)
    for v, e in m2:
        r = exps.get(v, 0) - e
        if r < 0:
            return None
        if r == 0:
            exps.pop(v, None)
        else:
            exps[v] = r
    return tuple(sorted(exps.items(), key=lambda ve: _var_key(ve[0])))


def _mono_degree(m: Monomial) -> int:
    return sum(e for _, e in m)


class Polynomial:
    """Multivariate polynomial over Q with named variables.

    Terms are stored as a map monomial -> int or Fraction with no zero
    coefficients, by ``_of`` alone: ``Polynomial(terms)`` reads outside
    coefficients as Fractions, symbols, powers and arithmetic store theirs
    directly (integer products stay ints, which compare and hash as the equal
    Fractions), and ``leading_term``, ``constant_value`` and ``evaluate`` hand
    out Fractions.  A constant hashes as its value.  Arithmetic accepts ints
    and Fractions as constant operands; floats are rejected.  A product or
    quotient with a constant scales the coefficients directly (by 1 or -1 it
    returns the polynomial or its negative, and adding 0 returns it), and the
    product of two monomials is memoized (``_mono_mul``), so repeated products
    do not re-sort.  Values are immutable, so returning an operand is safe.
    """

    __slots__ = ("terms",)

    def __new__(cls, terms: Optional[Mapping[Monomial, Fraction]] = None):
        """Outside input: each coefficient is read as a Fraction."""
        return cls._of({m: Fraction(c) for m, c in (terms or {}).items()})

    @classmethod
    def _of(cls, terms: dict) -> "Polynomial":
        """The one store: int or Fraction coefficients already checked,
        zeros dropped by truthiness.  Arithmetic builds through it."""
        out = object.__new__(cls)
        out.terms = {m: c for m, c in terms.items() if c}
        return out

    # -- constructors ------------------------------------------------------
    @classmethod
    def constant(cls, value) -> "Polynomial":
        return cls({(): value})

    @classmethod
    def variable(cls, name: str) -> "Polynomial":
        return cls._of({((name, 1),): 1})

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls()

    # -- inspection --------------------------------------------------------
    @property
    def variables(self) -> tuple:
        seen = set()
        for m in self.terms:
            for v, _ in m:
                seen.add(v)
        return tuple(sorted(seen, key=_var_key))

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        """Nonzero: truthiness tests zero alike in every ring."""
        return bool(self.terms)

    def is_constant(self) -> bool:
        return all(m == () for m in self.terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("polynomial is not constant: %s" % self)
        return Fraction(self.terms.get((), 0))

    # -- ring operations ---------------------------------------------------
    def _coerce(self, other):
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial.constant(other)
        if isinstance(other, float):
            raise RingMismatchError("cannot mix polynomial and float scalars")
        return None

    def __add__(self, other):
        if isinstance(other, (int, Fraction)) and not other:
            return self
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = dict(self.terms)
        for m, c in other.terms.items():
            s = terms.get(m)
            terms[m] = c if s is None else s + c
        return Polynomial._of(terms)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._of({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            # a constant scales the coefficients; a sign returns or negates
            if other == 1:
                return self
            if other == -1:
                return -self
            terms = {m: c * other for m, c in self.terms.items()}
        else:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
            terms = {}
            for m1, c1 in self.terms.items():
                for m2, c2 in other.terms.items():
                    m = _mono_mul(m1, m2)
                    s = terms.get(m)
                    terms[m] = c1 * c2 if s is None else s + c1 * c2
        return Polynomial._of(terms)

    __rmul__ = __mul__

    def __pow__(self, exp: int):
        if not isinstance(exp, int) or exp < 0:
            raise ValueError("polynomial exponent must be a non-negative int")
        result = Polynomial._of({(): 1})
        base = self
        while exp:
            if exp & 1:
                result = result * base
            base = base * base
            exp >>= 1
        return result

    def __truediv__(self, other):
        if isinstance(other, Polynomial):
            if not other.is_constant():
                raise ZeroDivisionError(
                    "polynomial division only by nonzero constants")
            other = other.constant_value()
        if isinstance(other, (int, Fraction)):
            other = Fraction(other)
            if other == 0:
                raise ZeroDivisionError("division by zero")
            return self * (1 / other)
        if isinstance(other, float):
            raise RingMismatchError("cannot mix polynomial and float scalars")
        return NotImplemented

    def __rtruediv__(self, other):
        if not self.is_constant() or self.constant_value() == 0:
            raise ZeroDivisionError(
                "polynomial division only by nonzero constants")
        return self._coerce(other) / self.constant_value()

    # -- comparison --------------------------------------------------------
    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        # a constant equals its value, so it hashes as its value
        if self.is_constant():
            return hash(self.terms.get((), 0))
        return hash(frozenset(self.terms.items()))

    # -- evaluation --------------------------------------------------------
    def evaluate(self, assignment: Mapping[str, Union[int, Fraction]]) -> Fraction:
        """Exact substitution; every variable of the polynomial must be bound."""
        total = Fraction(0)
        for m, c in self.terms.items():
            term = c
            for v, e in m:
                if v not in assignment:
                    raise MissingVariableError("no value for variable %r" % v)
                term *= Fraction(assignment[v]) ** e
            total += term
        return total

    # -- ordering helpers (graded lex over the natural variable order) -----
    def _grlex_key(self, m: Monomial, var_order: tuple):
        exps = dict(m)
        return (_mono_degree(m), tuple(exps.get(v, 0) for v in var_order))

    def leading_term(self) -> tuple:
        """(monomial, coefficient) maximal in graded lex order."""
        if not self.terms:
            return ((), Fraction(0))
        var_order = self.variables
        m = max(self.terms, key=lambda mm: self._grlex_key(mm, var_order))
        return (m, Fraction(self.terms[m]))

    def sorted_terms(self) -> list:
        var_order = self.variables
        return sorted(self.terms.items(),
                      key=lambda mc: self._grlex_key(mc[0], var_order),
                      reverse=True)

    # -- rendering ---------------------------------------------------------
    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for m, c in self.sorted_terms():
            body = "*".join(
                v if e == 1 else "%s^%d" % (v, e) for v, e in m)
            if not body:
                frag = str(abs(c))
            elif abs(c) == 1:
                frag = body
            else:
                frag = "%s*%s" % (abs(c), body)
            sign = "-" if c < 0 else "+"
            parts.append((sign, frag))
        first_sign, first = parts[0]
        text = ("-" if first_sign == "-" else "") + first
        for sign, frag in parts[1:]:
            text += " %s %s" % (sign, frag)
        return text

    def __repr__(self):
        return "Polynomial(%s)" % str(self)


Scalar = Union[Fraction, Polynomial, float]

def coerce(x) -> Scalar:
    """Normalize a raw coefficient into one of the three rings."""
    if isinstance(x, bool):
        raise TypeError("bool is not a scalar")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, (Fraction, Polynomial, float)):
        return x
    # numpy floats and the like
    if hasattr(x, "item"):
        return coerce(x.item())
    raise TypeError("not a scalar: %r" % (x,))


def is_zero(x: Scalar, tol: float = 0.0) -> bool:
    if isinstance(x, float):
        return abs(x) <= tol
    return not x


def eq(a: Scalar, b: Scalar, tol: float = 0.0) -> bool:
    """Equality in the common ring; floats compare within ``tol``."""
    if isinstance(a, Polynomial) or isinstance(b, Polynomial):
        if isinstance(a, float) or isinstance(b, float):
            raise RingMismatchError("cannot compare polynomial with float")
        pa = a if isinstance(a, Polynomial) else Polynomial.constant(a)
        pb = b if isinstance(b, Polynomial) else Polynomial.constant(b)
        return pa == pb
    if isinstance(a, float) or isinstance(b, float):
        return abs(float(a) - float(b)) <= tol
    return a == b


def as_float(x: Scalar) -> float:
    if isinstance(x, Polynomial):
        if x.is_constant():
            return float(x.constant_value())
        raise RingMismatchError("cannot convert a non-constant polynomial to float")
    return float(x)


def sqrt_fraction(q: Fraction) -> Optional[Fraction]:
    """Exact square root of a non-negative rational, or None."""
    if q < 0:
        return None
    num, den = q.numerator, q.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


def nth_root_fraction(q: Fraction, n: int) -> Optional[Fraction]:
    """Exact n-th root of a rational (odd n allows negatives), or None."""
    if q < 0:
        if n % 2 == 0:
            return None
        r = nth_root_fraction(-q, n)
        return None if r is None else -r

    def iroot(m: int) -> Optional[int]:
        if m in (0, 1):
            return m
        # bisection on ints: a float estimate overflows for large m
        lo, hi = 0, 1 << ((m.bit_length() // n) + 2)
        while lo <= hi:
            mid = (lo + hi) // 2
            p = mid ** n
            if p == m:
                return mid
            if p < m:
                lo = mid + 1
            else:
                hi = mid - 1
        return None

    rn, rd = iroot(q.numerator), iroot(q.denominator)
    if rn is None or rd is None:
        return None
    return Fraction(rn, rd)


def ssqrt(x: Scalar) -> Scalar:
    """Square root inside the ring: exact for perfect rational squares."""
    if isinstance(x, float):
        return math.sqrt(x)
    if isinstance(x, Polynomial):
        if x.is_constant():
            x = x.constant_value()
        else:
            raise ExactnessError("square root of a non-constant polynomial")
    r = sqrt_fraction(Fraction(x))
    if r is None:
        raise ExactnessError("%s has no exact rational square root" % x)
    return r


def snth_root(x: Scalar, n: int) -> Scalar:
    if isinstance(x, float):
        if n % 2 == 0 and x < 0:
            raise ExactnessError("even root of a negative number")
        return math.copysign(abs(x) ** (1.0 / n), x)
    if isinstance(x, Polynomial):
        if x.is_constant():
            x = x.constant_value()
        else:
            raise ExactnessError("root of a non-constant polynomial")
    r = nth_root_fraction(Fraction(x), n)
    if r is None:
        raise ExactnessError("%s has no exact rational %d-th root" % (x, n))
    return r


def poly_sqrt(p: Polynomial) -> Optional[Polynomial]:
    """Polynomial square root if p is a perfect square, else None.

    Long division against the graded-lex leading term; only used on the
    small quartic certificates, where it terminates in a handful of steps.
    """
    if p.is_zero():
        return Polynomial.zero()
    var_order = p.variables
    lead_m, lead_c = p.leading_term()
    if any(e % 2 for _, e in lead_m):
        return None
    half_m = tuple((v, e // 2) for v, e in lead_m)
    root_c = sqrt_fraction(lead_c)
    if root_c is None:
        return None
    q = Polynomial({half_m: root_c})
    guard = len(p.terms) * 4 + 8
    prev_key = None
    while True:
        r = p - q * q
        if r.is_zero():
            return q
        guard -= 1
        if guard < 0:
            return None
        m, c = r.leading_term()
        key = r._grlex_key(m, var_order)
        if prev_key is not None and key >= prev_key:
            return None
        prev_key = key
        m_t = _mono_div(m, half_m)
        if m_t is None:
            return None
        q = q + Polynomial({m_t: c / (2 * root_c)})


def render_scalar(x: Scalar) -> str:
    """Canonical text: rationals as p/q (ints and Fractions by str, bools
    and numpy ints through Fraction), polynomials via str, floats with the
    digits of repr in positional notation, which parses back to them."""
    if type(x) in (int, Fraction, Polynomial):
        return str(x)
    if isinstance(x, float):
        if not math.isfinite(x):
            return repr(x)
        text = format(Decimal(repr(x)), "f")
        return text if "." in text else text + ".0"
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return "%d/%d" % (x.numerator, x.denominator)
