"""Alternating forms on an oriented n-dimensional space (n <= 8).

Forms are stored sparsely as maps from strictly increasing multi-indices
(1-based) to nonzero scalars.  ``KForm(...)`` checks outside input; the
kernels build from forms already checked through ``KForm._of``, which only
drops zeros.  Everything here is a pure function of immutable values:
wedge, contraction, pullback by a matrix, induced inner products, Hodge
star and the codifferential relative to a supplied differential operator.
"""
from __future__ import annotations

import functools
import math
import re
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from . import linalg, scalars
from .scalars import Polynomial, Scalar, coerce, is_zero

Index = Tuple[int, ...]


class DimensionMismatchError(ValueError):
    pass


class DegreeError(ValueError):
    pass


def _check_index(idx: Index, dim: int) -> None:
    if any(i < 1 or i > dim for i in idx):
        raise ValueError("index %r out of range 1..%d" % (idx, dim))
    if any(a >= b for a, b in zip(idx, idx[1:])):
        raise ValueError("multi-index %r is not strictly increasing" % (idx,))


def sort_index(idx: Sequence[int]) -> Tuple[int, Index]:
    """Sort a multi-index, returning (sign, sorted tuple); sign 0 on repeats."""
    idx = list(idx)
    sign = 1
    # insertion sort, counting transpositions; fine for length <= 8
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(idx, idx[1:]):
        if a == b:
            return 0, tuple(idx)
    return sign, tuple(idx)


@functools.lru_cache(maxsize=None)
def merge_sign(a: Index, b: Index) -> Tuple[int, Optional[Index]]:
    """Sign of e^a ^ e^b relative to the merged increasing index; cached,
    with at most 4**n keys in dimension n."""
    if set(a) & set(b):
        return 0, None
    inversions = 0
    for x in a:
        # count entries of b smaller than x
        inversions += bisect_left(b, x)
    merged = tuple(sorted(a + b))
    return (-1 if inversions % 2 else 1), merged


@functools.lru_cache(maxsize=None)
def merge_table(others: Index, n: int) -> dict:
    """Per pair a < b disjoint from others: (the merged index, the sign of
    e^ab ^ e^others); cached, at most 2**n keys in dimension n, so it reads
    merge_sign uncached."""
    return {pair: (merged, sign) for pair in combinations(range(1, n + 1), 2)
            for sign, merged in [merge_sign.__wrapped__(pair, others)] if sign}


class KForm:
    """A k-form; coefficients live in one of the scalar rings."""

    __slots__ = ("dim", "degree", "coeffs")

    def __new__(cls, dim: int, degree: int,
                coeffs: Optional[Mapping[Sequence[int], Scalar]] = None):
        """Outside input: every index is checked and every coefficient
        coerced into its ring."""
        if not 0 <= degree:
            raise DegreeError("negative degree")
        if coeffs and degree > dim:
            raise DegreeError(
                "a %d-form on a %d-dim space can only be zero" % (degree, dim))
        clean: Dict[Index, Scalar] = {}
        for idx, c in (coeffs or {}).items():
            idx = tuple(idx)
            if len(idx) != degree:
                raise DegreeError("index %r has wrong length for degree %d"
                                  % (idx, degree))
            _check_index(idx, dim)
            clean[idx] = coerce(c)
        return cls._of(dim, degree, clean)

    @classmethod
    def _of(cls, dim: int, degree: int, coeffs: Dict[Index, Scalar]) -> "KForm":
        """The one store: increasing indices and ring scalars already
        checked, zeros dropped by truthiness (``is_zero`` at tol 0 in every
        ring).  The kernels build through it."""
        out = object.__new__(cls)
        out.dim, out.degree = dim, degree
        out.coeffs = {i: c for i, c in coeffs.items() if c}
        return out

    # -- constructors ------------------------------------------------------
    @classmethod
    def zero(cls, dim: int, degree: int) -> "KForm":
        return cls._of(dim, degree, {})

    @classmethod
    def monomial(cls, dim: int, idx: Sequence[int]) -> "KForm":
        sign, sidx = sort_index(idx)
        if sign == 0:
            return cls.zero(dim, len(idx))
        return cls(dim, len(sidx), {sidx: sign})

    @classmethod
    def from_terms(cls, dim: int, degree: int, *terms) -> "KForm":
        """Build from (coeff, indices...) tuples, e.g. (1, 1, 2, 3)."""
        acc: Dict[Index, Scalar] = {}
        for t in terms:
            coeff, idx = t[0], tuple(t[1:])
            sign, sidx = sort_index(idx)
            if sign == 0:
                continue
            val = acc.get(sidx, Fraction(0)) + coerce(coeff) * sign
            acc[sidx] = val
        return cls(dim, degree, acc)

    # -- basic structure ---------------------------------------------------
    def is_zero(self, tol: float = 0.0) -> bool:
        return all(is_zero(c, tol) for c in self.coeffs.values())

    def __bool__(self):
        return not self.is_zero()

    def __getitem__(self, idx: Sequence[int]) -> Scalar:
        sign, sidx = sort_index(idx)
        if sign == 0:
            return Fraction(0)
        c = self.coeffs.get(sidx, Fraction(0))
        return c * sign

    def items(self):
        return sorted(self.coeffs.items())

    def map_coeffs(self, f: Callable[[Scalar], Scalar]) -> "KForm":
        return KForm(self.dim, self.degree,
                     {i: f(c) for i, c in self.coeffs.items()})

    def to_float(self) -> "KForm":
        return self.map_coeffs(scalars.as_float)

    # -- linear operations -------------------------------------------------
    def _require_same_shape(self, other: "KForm") -> None:
        if self.dim != other.dim:
            raise DimensionMismatchError("forms on different dimensions")
        if self.degree != other.degree:
            raise DegreeError("forms of different degrees")

    def __add__(self, other: "KForm") -> "KForm":
        if not isinstance(other, KForm):
            return NotImplemented
        self._require_same_shape(other)
        acc = dict(self.coeffs)
        for i, c in other.coeffs.items():
            acc[i] = acc[i] + c if i in acc else c
        return KForm._of(self.dim, self.degree, acc)

    def __neg__(self) -> "KForm":
        return KForm._of(self.dim, self.degree,
                         {i: -c for i, c in self.coeffs.items()})

    def __sub__(self, other: "KForm") -> "KForm":
        if not isinstance(other, KForm):
            return NotImplemented
        return self + (-other)

    def __rmul__(self, s) -> "KForm":
        s = coerce(s)
        return KForm._of(self.dim, self.degree,
                         {i: s * c for i, c in self.coeffs.items()})

    __mul__ = __rmul__

    def __eq__(self, other):
        if not isinstance(other, KForm):
            return NotImplemented
        return (self.dim == other.dim and self.degree == other.degree
                and (self - other).is_zero())

    def __hash__(self):
        return hash((self.dim, self.degree, frozenset(self.coeffs.items())))

    def wedge(self, other: "KForm") -> "KForm":
        return wedge(self, other)

    def __repr__(self):
        return "KForm(%d, %d, %s)" % (self.dim, self.degree, render_form(self))


@dataclass(frozen=True)
class Vector:
    dim: int
    components: Tuple[Scalar, ...]

    def __post_init__(self):
        object.__setattr__(self, "components",
                           tuple(coerce(c) for c in self.components))
        if len(self.components) != self.dim:
            raise DimensionMismatchError("component count != dim")

    @classmethod
    def basis(cls, dim: int, i: int) -> "Vector":
        return cls(dim, tuple(Fraction(1 if j == i else 0)
                              for j in range(1, dim + 1)))


def scaled(tol: float, *factors) -> float:
    """tol times the product of the factors' magnitudes (largest |c| over
    the nonzero numeric entries of a form or matrix), with no floor: the one
    rule of every float zero test.  Float rounding grows with the size of
    the terms a residual sums, so a test of a product of forms, or of d of a
    form, scales by each factor.  With no float among the factors the test
    is exact and the bound 0.0, read off no Fraction's size."""
    numbers = [[x for x in (f.coeffs.values() if isinstance(f, KForm)
                            else (y for row in f for y in row))
                if x and isinstance(x, (float, Fraction))] for f in factors]
    if not any(isinstance(x, float) for xs in numbers for x in xs):
        return 0.0
    return tol * math.prod(max(map(abs, xs), default=0.0) for xs in numbers)


class InnerProduct:
    """Symmetric positive-definite bilinear form on vectors.

    The inverse, the compound cache of the inverse and sqrt(det g) are
    computed on first use and kept with the metric."""

    __slots__ = ("matrix", "_inverse", "_minors", "_sqrt_det")

    def __init__(self, matrix):
        self.matrix = linalg.mat(matrix)
        n = len(self.matrix)
        if any(len(row) != n for row in self.matrix):
            raise ValueError("metric matrix must be square")
        if not linalg.is_symmetric(self.matrix, scaled(1e-12, self.matrix)):
            raise ValueError("metric matrix must be symmetric")
        self._inverse = self._minors = self._sqrt_det = None

    @property
    def dim(self) -> int:
        return len(self.matrix)

    @classmethod
    def euclidean(cls, n: int) -> "InnerProduct":
        """The identity, kept as its own inverse: no elimination."""
        g = cls(linalg.identity(n))
        g._inverse = g.matrix
        return g

    @classmethod
    def diagonal(cls, entries) -> "InnerProduct":
        n = len(entries)
        return cls([[entries[i] if i == j else 0 for j in range(n)]
                    for i in range(n)])

    @property
    def inverse(self) -> linalg.Matrix:
        if self._inverse is None:
            self._inverse = linalg.inverse(self.matrix)
        return self._inverse

    @property
    def minors(self) -> linalg.Compound:
        """Minors of g^-1: ``minors.row(I)[J]`` is the Gram entry
        <e^I, e^J> of the induced inner product on forms."""
        if self._minors is None:
            self._minors = linalg.Compound(self.inverse)
        return self._minors

    @property
    def sqrt_det(self) -> Scalar:
        """sqrt(det g); exact when det g is a rational square."""
        if self._sqrt_det is None:
            self._sqrt_det = scalars.ssqrt(linalg.det(self.matrix))
        return self._sqrt_det

    def is_positive_definite(self, tol: float = 0.0) -> bool:
        return linalg.is_positive_definite(self.matrix, tol)

    def to_float(self) -> "InnerProduct":
        return InnerProduct([[scalars.as_float(x) for x in row]
                             for row in self.matrix])

    def __eq__(self, other):
        if not isinstance(other, InnerProduct):
            return NotImplemented
        if self.dim != other.dim:
            return False
        return all(scalars.eq(a, b) for ra, rb in zip(self.matrix, other.matrix)
                   for a, b in zip(ra, rb))

    def __repr__(self):
        return "InnerProduct(%r)" % (self.matrix,)


@dataclass(frozen=True)
class Orientation:
    """Oriented volume: one nonzero top-degree term.

    A negative coefficient denotes the orientation opposite to the
    coframe order; induced volumes of 3-forms in dimension 7 genuinely
    come with either sign.
    """

    volume: KForm

    def __post_init__(self):
        vol = self.volume
        if vol.degree != vol.dim or len(vol.coeffs) != 1:
            raise ValueError("orientation needs exactly one top-degree term")
        c = next(iter(vol.coeffs.values()))
        if isinstance(c, Polynomial):
            raise ValueError("orientation coefficient must be numeric")
        if is_zero(c):
            raise ValueError("orientation coefficient must be nonzero")

    @classmethod
    def standard(cls, dim: int) -> "Orientation":
        return cls(KForm(dim, dim, {tuple(range(1, dim + 1)): Fraction(1)}))

    @property
    def dim(self) -> int:
        return self.volume.dim

    @property
    def coefficient(self) -> Scalar:
        return next(iter(self.volume.coeffs.values()))

    @property
    def sign(self) -> int:
        return 1 if self.coefficient > 0 else -1


def wedge(a: KForm, b: KForm) -> KForm:
    """Graded-commutative product; zero when degrees overflow the dimension.
    Exact coefficients are multiplied as integers over one denominator."""
    if a.dim != b.dim:
        raise DimensionMismatchError("wedge of forms on different dimensions")
    deg = a.degree + b.degree
    if deg > a.dim:
        return KForm.zero(a.dim, deg)
    den, nums = linalg.clear([*a.coeffs.values(), *b.coeffs.values()])
    right = list(zip(b.coeffs, nums[len(a.coeffs):]))
    acc: Dict[Index, Scalar] = {}
    for ia, ca in zip(a.coeffs, nums):
        for ib, cb in right:
            sign, merged = merge_sign(ia, ib)
            if sign:
                acc[merged] = acc.get(merged, 0) + (ca * cb) * sign
    return KForm._of(a.dim, deg, {i: linalg.over(c, den * den)
                                  for i, c in acc.items()})


def contract(x: Vector, a: KForm) -> KForm:
    """Interior product i_x; an anti-derivation lowering the degree by one.
    Exact coefficients are multiplied as integers over one denominator."""
    if x.dim != a.dim:
        raise DimensionMismatchError("vector and form dimensions differ")
    if a.degree < 1:
        raise DegreeError("cannot contract a 0-form")
    den, nums = linalg.clear([*x.components, *a.coeffs.values()])
    xs = nums[:a.dim]
    acc: Dict[Index, Scalar] = {}
    for idx, c in zip(a.coeffs, nums[a.dim:]):
        for pos, i in enumerate(idx):
            xi = xs[i - 1]
            if is_zero(xi):
                continue
            rest = idx[:pos] + idx[pos + 1:]
            term = (xi * c) if pos % 2 == 0 else -(xi * c)
            acc[rest] = acc.get(rest, 0) + term
    return KForm._of(a.dim, a.degree - 1, {r: linalg.over(v, den * den)
                                           for r, v in acc.items()})


def contract_basis(i: int, a: KForm) -> KForm:
    """i_{e_i} a with no arithmetic: the terms whose index holds i, without
    i, each signed by (-1)^position of i."""
    if a.degree < 1:
        raise DegreeError("cannot contract a 0-form")
    out: Dict[Index, Scalar] = {}
    for idx, c in a.coeffs.items():
        if i in idx:
            pos = idx.index(i)
            out[idx[:pos] + idx[pos + 1:]] = -c if pos % 2 else c
    return KForm._of(a.dim, a.degree - 1, out)


def form_inner(a: KForm, b: KForm, g: InnerProduct) -> Scalar:
    """Inner product on k-forms induced by g.

    Monomials of an orthonormal coframe are orthonormal; in general the
    Gram entries are minors of the inverse metric (``g.minors``).  Only
    the entries where b is nonzero are multiplied, on integers when the
    coefficients and g are exact, and the sum is divided once.
    """
    if a.dim != b.dim or a.dim != g.dim:
        raise DimensionMismatchError("dimension mismatch in form_inner")
    if a.degree != b.degree:
        raise DegreeError("inner product needs equal degrees")
    den, nums = linalg.clear([*a.coeffs.values(), *b.coeffs.values()])
    right = dict(zip(b.coeffs, nums[len(a.coeffs):]))
    minors = g.minors
    total: Scalar = 0
    for ia, ca in zip(a.coeffs, nums):
        for ib, gram in minors.row(ia).items():
            cb = right.get(ib)
            if cb is not None:
                total = total + ca * cb * gram
    return linalg.over(total, den * den * minors.den ** a.degree)


@functools.lru_cache(maxsize=None)
def complement_sign(idx: Index, dim: int) -> Tuple[int, Index]:
    """Complement and sign of e^idx ^ e^comp = sign * vol; cached, 2**dim."""
    comp = tuple(i for i in range(1, dim + 1) if i not in idx)
    sign, merged = merge_sign(idx, comp)
    return sign, comp


def pullback(a: KForm, minors: linalg.Compound) -> KForm:
    """a(M., ..., M.) for the matrix M of ``minors``: the coefficient of e^J
    is the sum of a_I det M[I, J] over I, so C_k(M) acts on k-forms.  With
    the minors of g^-1 it raises every index of a.  Exact sums run on the
    integer rows and are divided once per coefficient."""
    if len(minors.matrix) != a.dim:
        raise DimensionMismatchError("dimension mismatch in pullback")
    den, nums = linalg.clear(a.coeffs.values())
    acc: Dict[Index, Scalar] = {}
    for src, c in zip(a.coeffs, nums):
        for tgt, minor in minors.row(src).items():
            acc[tgt] = acc.get(tgt, 0) + c * minor
    den *= minors.den ** a.degree
    return KForm._of(a.dim, a.degree, {j: linalg.over(c, den)
                                       for j, c in acc.items()})


def hodge_star(a: KForm, g: InnerProduct, orient: Orientation) -> KForm:
    """Hodge dual fixed by a ^ *b = <a,b> dV for the oriented g-volume dV,
    +-sqrt(det g) e^(1..n) (exact when det g is a rational square).

    *a is the complement of a with its indices raised by g^-1, times dV."""
    n = a.dim
    if g.dim != n or orient.dim != n:
        raise DimensionMismatchError("dimension mismatch in hodge_star")
    vol_coeff = g.sqrt_det if orient.sign > 0 else -g.sqrt_det
    acc: Dict[Index, Scalar] = {}
    for idx_l, total in pullback(a, g.minors).coeffs.items():
        sign, comp = complement_sign(idx_l, n)
        acc[comp] = (total * vol_coeff) * sign
    return KForm._of(n, n - a.degree, acc)


def codifferential(a: KForm, d: Callable[[KForm], KForm], g: InnerProduct,
                   orient: Orientation) -> KForm:
    """Adjoint of d: (-1)^(n(k+1)+1) * d * on k-forms.

    The sign makes the scalar-curvature identities close on the worked
    rank-one extension; see the conventions notes in the README.
    """
    n, k = a.dim, a.degree
    if k == 0:
        return KForm.zero(n, 0)
    sign = -1 if (n * (k + 1) + 1) % 2 else 1
    out = hodge_star(d(hodge_star(a, g, orient)), g, orient)
    return sign * out


def basis_indices(dim: int, degree: int) -> List[Index]:
    return list(combinations(range(1, dim + 1), degree))


def render_form(a: KForm) -> str:
    """Text in coframe notation, e.g. ``e123+e145`` or ``1/2*e17``.  A
    polynomial coefficient renders like a number when its text is a signed
    bare symbol (``-a*e12``), and in parentheses otherwise."""
    if a.degree == 0:
        return scalars.render_scalar(a.coeffs.get((), Fraction(0)))
    if not a.coeffs:
        return "0"
    text = ""
    for idx, c in a.items():
        coeff = scalars.render_scalar(c)
        if isinstance(c, Polynomial) and \
                not re.fullmatch(r"-?[A-Za-z_]\w*", coeff):
            coeff = "(%s)" % coeff
        sign, coeff = ("-", coeff[1:]) if coeff[0] == "-" else ("+", coeff)
        body = "e" + "".join(str(i) for i in idx)
        text += sign + (body if coeff == "1" else coeff + "*" + body)
    return text[1:] if text[0] == "+" else text
