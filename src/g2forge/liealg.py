"""Lie algebras given by structure equations (de^1, ..., de^n).

Includes the text parser for the tuple notation, the Chevalley-Eilenberg
differential, nilpotency and derivation machinery, and rank-one metric
solvable extensions.  The bracket convention is de^k(X,Y) = -e^k([X,Y]).
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

from . import linalg, scalars
from .exterior import (DimensionMismatchError, Index, InnerProduct, KForm,
                       magnitude, merge_table, render_form, scaled)
from .scalars import Polynomial, Scalar, is_zero


class StructureParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__("%s (at position %d)" % (message, position))
        self.position = position


class JacobiError(ValueError):
    pass


class NotDerivationError(ValueError):
    pass


class LieAlgebra:
    """dim + the coframe differentials; d extends as an anti-derivation.
    Immutable but for the nilpotency verdict and float twin it keeps."""

    __slots__ = ("dim", "d_coframe", "name", "_cleared", "_nilpotency",
                 "_float")

    def __init__(self, dim: int, d_coframe: Sequence[KForm],
                 name: Optional[str] = None, check: bool = True):
        d_coframe = tuple(d_coframe)
        if len(d_coframe) != dim:
            raise DimensionMismatchError("need one de^k per coframe element")
        for f in d_coframe:
            if f.dim != dim or (f.degree != 2 and f.coeffs):
                raise DimensionMismatchError("each de^k must be a 2-form")
        norm = tuple(f if f.degree == 2 else KForm.zero(dim, 2)
                     for f in d_coframe)
        self.dim, self.d_coframe, self.name = dim, norm, name
        self._nilpotency = self._float = None
        # the de^k over one denominator: (den, [{pair: den * coefficient}])
        den, nums = linalg.clear(c for f in norm for c in f.coeffs.values())
        nums = iter(nums)
        self._cleared = (den, [{pair: next(nums) for pair in f.coeffs}
                               for f in norm])
        if check:
            bad = self.jacobi_defect(tol=1e-9)
            if bad is not None:
                k, defect = bad
                raise JacobiError(
                    "d^2 e^%d = %s is nonzero; structure equations violate "
                    "the Jacobi identity" % (k, render_form(defect)))

    # -- ring and validity -------------------------------------------------
    def is_float_ring(self) -> bool:
        return any(isinstance(c, float)
                   for f in self.d_coframe for c in f.coeffs.values())

    def is_polynomial_ring(self) -> bool:
        return any(isinstance(c, Polynomial)
                   for f in self.d_coframe for c in f.coeffs.values())

    def jacobi_defect(self, tol: float = 0.0):
        """(k, d^2 e^k) for the first nonzero d^2 e^k, else None.  In floats
        each coefficient of d^2 e^k is bounded by tol times the sum, over
        the terms c e^ab of de^k, of |c| (max|de^a| + max|de^b|): the size
        of the products d^2 e^k sums."""
        float_ring = self.is_float_ring()   # exact zero tests ignore tol
        sizes = [magnitude(f) for f in self.d_coframe] if float_ring else ()
        for k, f in enumerate(self.d_coframe, start=1):
            bound = tol * sum(abs(c) * (sizes[a - 1] + sizes[b - 1])
                              for (a, b), c in f.coeffs.items()
                              if not isinstance(c, Polynomial)) \
                if float_ring else 0.0
            dd = self.d(f)
            if not dd.is_zero(bound):
                return k, dd
        return None

    # -- Chevalley-Eilenberg differential -----------------------------------
    def d(self, a: KForm) -> KForm:
        """Anti-derivation extension of the coframe differentials, on
        integers over one denominator when a and the algebra are exact."""
        if a.dim != self.dim:
            raise DimensionMismatchError("form does not live on this algebra")
        if a.degree == 0:
            return KForm.zero(self.dim, 1)
        den_d, d_coframe = self._cleared
        den, nums = linalg.clear(a.coeffs.values())
        acc: Dict[Index, Scalar] = {}
        for idx, c in zip(a.coeffs, nums):
            for pos, i in enumerate(idx):
                signed = c if pos % 2 == 0 else -c
                table = merge_table(idx[:pos] + idx[pos + 1:], self.dim)
                for pair, cd in d_coframe[i - 1].items():
                    # pair moves past idx[:pos] by an even permutation
                    merged, sign = table.get(pair, (None, 0))
                    if sign:
                        acc[merged] = acc.get(merged, 0) + signed * (cd * sign)
        den *= den_d
        return KForm._of(self.dim, a.degree + 1,
                         {i: linalg.over(c, den) for i, c in acc.items()})

    def __eq__(self, other):
        if not isinstance(other, LieAlgebra):
            return NotImplemented
        return self.dim == other.dim and all(
            a == b for a, b in zip(self.d_coframe, other.d_coframe))

    def __repr__(self):
        label = self.name or "LieAlgebra"
        return "%s%s" % (label, render_structure_equations(self))


@dataclass(frozen=True)
class MetricLieAlgebra:
    algebra: LieAlgebra
    metric: InnerProduct

    def __post_init__(self):
        if self.metric.dim != self.algebra.dim:
            raise DimensionMismatchError("metric dimension != algebra dimension")

    @classmethod
    def euclidean(cls, algebra: LieAlgebra) -> "MetricLieAlgebra":
        return cls(algebra, InnerProduct.euclidean(algebra.dim))


# ---------------------------------------------------------------------------
# parsing and rendering
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<mono>e\d+)
  | (?P<number>\d+\.\d*|\.\d+|\d+)
  | (?P<symbol>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*/(),])
""", re.VERBOSE)


def _tokenize(text: str):
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise StructureParseError("unexpected character %r" % text[pos], pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _FormParser:
    """Sums of coefficient-times-monomial terms over one of the rings."""

    def __init__(self, tokens, dim: int):
        self.tokens = tokens
        self.i = 0
        self.dim = dim

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def parse_number(self):
        kind, val, pos = self.next()
        if kind != "number":
            raise StructureParseError("expected a number, found %r" % val, pos)
        if "." in val:
            return float(val)
        value = Fraction(int(val))
        kind, nxt, _ = self.peek()
        if kind == "op" and nxt == "/":
            self.next()
            kind, den, dpos = self.next()
            if kind != "number" or "." in den:
                raise StructureParseError("expected an integer denominator", dpos)
            if int(den) == 0:
                raise StructureParseError("zero denominator", dpos)
            value = value / int(den)
        return value

    def parse_term(self):
        """Returns (coefficient, index tuple or None for a pure scalar)."""
        coeff: Scalar = Fraction(1)
        idx = None
        saw_factor = False
        while True:
            kind, val, pos = self.peek()
            if kind == "number":
                num = self.parse_number()
                if isinstance(num, float):
                    coeff = scalars.as_float(coeff) * num \
                        if not isinstance(coeff, Polynomial) else None
                    if coeff is None:
                        raise StructureParseError(
                            "decimal coefficients cannot mix with symbols", pos)
                else:
                    coeff = coeff * num
                saw_factor = True
            elif kind == "symbol":
                self.next()
                if isinstance(coeff, float):
                    raise StructureParseError(
                        "decimal coefficients cannot mix with symbols", pos)
                coeff = coeff * Polynomial.variable(val)
                saw_factor = True
            elif kind == "mono":
                self.next()
                if idx is not None:
                    raise StructureParseError("two coframe monomials in one term",
                                              pos)
                digits = val[1:]
                idx = tuple(int(ch) for ch in digits)
                for i in idx:
                    if i < 1 or i > self.dim:
                        raise StructureParseError(
                            "coframe index %d out of range 1..%d" % (i, self.dim),
                            pos)
                saw_factor = True
            elif kind == "op" and val == "*":
                self.next()
                continue
            else:
                break
        if not saw_factor:
            kind, val, pos = self.peek()
            raise StructureParseError("expected a term, found %r" % val, pos)
        return coeff, idx

    def parse_form(self, degree_hint: Optional[int] = None) -> KForm:
        terms: List[Tuple[Scalar, Optional[Tuple[int, ...]]]] = []
        sign = 1
        kind, val, pos = self.peek()
        if kind == "op" and val in "+-":
            self.next()
            sign = -1 if val == "-" else 1
        while True:
            coeff, idx = self.parse_term()
            terms.append((sign * coeff if sign < 0 else coeff, idx))
            kind, val, pos = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                sign = -1 if val == "-" else 1
                continue
            break
        real_terms = [(c, i) for c, i in terms if i is not None]
        scalar_terms = [(c, i) for c, i in terms if i is None]
        for c, _ in scalar_terms:
            if not is_zero(c):
                raise StructureParseError(
                    "standalone nonzero scalar in a form expression", pos)
        if not real_terms:
            degree = degree_hint if degree_hint is not None else 2
            return KForm.zero(self.dim, degree)
        degree = len(real_terms[0][1])
        if any(len(i) != degree for _, i in real_terms):
            raise StructureParseError("mixed degrees in one form", pos)
        return KForm.from_terms(self.dim, degree,
                                *[(c,) + i for c, i in real_terms])


def parse_form(text: str, dim: int, degree: Optional[int] = None) -> KForm:
    """Parse a single form, e.g. ``e12+e34-e56`` or ``1/2*e17``."""
    parser = _FormParser(_tokenize(text), dim)
    form = parser.parse_form(degree_hint=degree)
    kind, val, pos = parser.peek()
    if kind != "end":
        raise StructureParseError("trailing input %r" % val, pos)
    if degree is not None and form.degree != degree and form.coeffs:
        raise StructureParseError("expected a %d-form" % degree, 0)
    return form


def parse_structure_equations(text: str, name: Optional[str] = None
                              ) -> LieAlgebra:
    """Parse the tuple notation, e.g. ``(0,0,0,0,e13-e24,e14+e23)``.

    The k-th entry is de^k.  Coefficients may be rationals ``p/q``,
    decimals, or the symbolic names accepted by the polynomial ring.
    Raises on syntax errors (with position) and on Jacobi violations.
    """
    stripped = text.strip()
    # split at top level commas after validating the outer parentheses
    if not stripped.startswith("(") or not stripped.endswith(")"):
        raise StructureParseError("structure equations must be parenthesized", 0)
    inner = stripped[1:-1]
    pieces = [p for p in inner.split(",")]
    dim = len(pieces)
    if dim < 1 or dim > 8:
        raise StructureParseError("supported dimensions are 1..8", 0)
    forms = []
    offset = 1
    for piece in pieces:
        if not piece.strip():
            raise StructureParseError("empty structure-equation entry", offset)
        try:
            forms.append(parse_form(piece, dim, degree=2))
        except StructureParseError as exc:
            raise StructureParseError(str(exc).rsplit(" (at position", 1)[0],
                                      offset + exc.position) from None
        offset += len(piece) + 1
    return LieAlgebra(dim, forms, name=name)


def render_structure_equations(algebra: LieAlgebra) -> str:
    return "(%s)" % ",".join(render_form(f) for f in algebra.d_coframe)


# ---------------------------------------------------------------------------
# nilpotency, derivations, extensions
# ---------------------------------------------------------------------------

def is_nilpotent(algebra: LieAlgebra):
    """(True, step) when the lower central series vanishes, else (False, None).

    Spans are kept as rows; the row v ad_i, with (ad_i)_jk = c^k_ij, is
    [e_i, v], so one product by the side-by-side ad_i is one step.  Each
    span is cut to a basis by ``linalg.row_basis``: exact spans, and c,
    stay integer rows, as a span needs no scale; float rows take one SVD,
    where a singular value counts above ``scaled(1e-9, c)`` (the basis rows
    are orthonormal, so a bracket is at most about max|c|).  The verdict is
    kept on the algebra and returned first."""
    if algebra._nilpotency is not None:
        return algebra._nilpotency
    if algebra.is_polynomial_ring():
        raise ValueError("nilpotency over the polynomial ring is not decided "
                         "here; specialize the symbols first")
    n = algebra.dim
    _, c = structure_rows(algebra)
    ads = linalg.Sparse([[c[k][i * n + j] for i in range(n) for k in range(n)]
                         for j in range(n)])
    floor = scaled(1e-9, [f.coeffs.values() for f in algebra.d_coframe])
    current, step, verdict = [[int(i == j) for j in range(n)]
                              for i in range(n)], 0, None
    while verdict is None:
        step += 1
        brackets = linalg.mat_mul(current, ads)
        basis = linalg.row_basis([row[i * n:(i + 1) * n] for i in range(n)
                                  for row in brackets], floor)
        if not basis:
            verdict = (True, step)
        elif len(basis) >= len(current):
            verdict = (False, None)
        current = basis
    algebra._nilpotency = verdict
    return verdict


def structure_rows(algebra: LieAlgebra) -> Tuple[int, List[list]]:
    """(den, c), c[k][a*n + b] = den c^k_ab with [e_a, e_b] = sum c^k_ab e_k
    (0-based): c^k_ab = -y and c^k_ba = y for the e^ab coefficient y of de^k."""
    n, (den, planes) = algebra.dim, algebra._cleared
    c = [[0] * (n * n) for _ in range(n)]
    for row, plane in zip(c, planes):
        for (a, b), y in plane.items():
            row[(a - 1) * n + b - 1], row[(b - 1) * n + a - 1] = -y, y
    return den, c


def derivation_defect(algebra: LieAlgebra, matrix) -> List[Scalar]:
    """L vec(D), zero exactly for derivations: entry r*n + k, for the r-th
    pair i < j, is the e_k-component of D[e_i,e_j] - [De_i,e_j] -
    [e_i,De_j].  Each nonzero c^k_ab = -y (a < b, y the e^ab coefficient of
    de^k) and c^k_ba = y enter once, on integers over one denominator."""
    n = algebra.dim
    den_c, planes = algebra._cleared
    den_d, d = linalg.clear_rows(matrix)
    row_of = {p: r * n for r, p in enumerate(combinations(range(n), 2))}
    zero = linalg.ring_zero(d, [p.values() for p in planes])
    acc = [zero] * (n * len(row_of))
    for k, plane in enumerate(planes):
        for (a, b), y in plane.items():
            a, b = a - 1, b - 1
            for q in range(n):
                acc[row_of[a, b] + q] -= d[q][k] * y
            # -[De_i, e_v] and -[e_u, De_j] with c^k_uv = -s
            for u, v, s in ((a, b, y), (b, a, -y)):
                for i in range(v):
                    acc[row_of[i, v] + k] += d[u][i] * s
                for j in range(u + 1, n):
                    acc[row_of[u, j] + k] += d[v][j] * s
    return [linalg.over(x, den_c * den_d) for x in acc]


def is_derivation(algebra: LieAlgebra, matrix) -> bool:
    """A zero ``derivation_defect``, each entry within
    ``scaled(1e-9, D, c)`` in floats, c the structure constants."""
    matrix = linalg.mat(matrix)
    bound = scaled(1e-9, matrix,
                   [f.coeffs.values() for f in algebra.d_coframe])
    return all(is_zero(x, bound) for x in derivation_defect(algebra, matrix))


def derivation_space(algebra: LieAlgebra) -> List[linalg.Matrix]:
    """Basis of the space of derivations, as n x n matrices: the kernel of
    L, whose columns are the defects of the unit matrices (``nullspace``)."""
    n = algebra.dim
    units = ([[int(p * n + q == u) for q in range(n)] for p in range(n)]
             for u in range(n * n))
    return [tuple(tuple(v[p * n + q] for q in range(n)) for p in range(n))
            for v in linalg.nullspace(linalg.transpose(
                [derivation_defect(algebra, e) for e in units]), 1e-10)]


def rank_one_extension(metric_algebra: MetricLieAlgebra, matrix,
                       name: Optional[str] = None) -> MetricLieAlgebra:
    """Adjoin a unit direction H acting on the old algebra by a derivation.

    The new coframe satisfies de^k = old de^k + (sum_q D_kq e^q) ^ e^(n+1)
    and de^(n+1) = 0; the metric extends orthogonally with |H| = 1.
    """
    algebra = metric_algebra.algebra
    matrix = linalg.mat(matrix)
    if not is_derivation(algebra, matrix):
        raise NotDerivationError("extension requires a derivation")
    n = algebra.dim
    new_dim = n + 1
    new_coframe = []
    for k in range(n):
        lifted = KForm(new_dim, 2, dict(algebra.d_coframe[k].coeffs))
        extra = {}
        for q in range(n):
            dkq = matrix[k][q]
            if not is_zero(dkq):
                extra[(q + 1, new_dim)] = dkq
        new_coframe.append(lifted + KForm(new_dim, 2, extra))
    new_coframe.append(KForm.zero(new_dim, 2))
    g = metric_algebra.metric.matrix
    rows = [list(g[i]) + [Fraction(0)] for i in range(n)]
    rows.append([Fraction(0)] * n + [Fraction(1)])
    return MetricLieAlgebra(
        LieAlgebra(new_dim, new_coframe, name=name),
        InnerProduct(rows))


def restrict(algebra: LieAlgebra, m: int) -> LieAlgebra:
    """Sub-coframe algebra on the first m directions (terms beyond m dropped)."""
    forms = []
    for k in range(m):
        kept = {idx: c for idx, c in algebra.d_coframe[k].coeffs.items()
                if all(i <= m for i in idx)}
        forms.append(KForm(m, 2, kept))
    return LieAlgebra(m, forms)


def specialize(algebra: LieAlgebra, assignment: Dict[str, Fraction]
               ) -> LieAlgebra:
    """Substitute rational values for the symbols of a polynomial-ring algebra."""
    def conv(c: Scalar) -> Scalar:
        if isinstance(c, Polynomial):
            return c.evaluate(assignment)
        return c
    forms = [f.map_coeffs(conv) for f in algebra.d_coframe]
    return LieAlgebra(algebra.dim, forms)


def to_float_algebra(algebra: LieAlgebra) -> LieAlgebra:
    """The float twin, built on the first call and kept on the algebra."""
    if algebra._float is None:
        forms = [f.to_float() for f in algebra.d_coframe]
        algebra._float = LieAlgebra(algebra.dim, forms, name=algebra.name,
                                    check=False)
    return algebra._float
