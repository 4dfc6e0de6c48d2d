"""Small dense linear algebra over exact and float scalars.

Matrices are tuples of tuples.  One elimination per ring: exact rows
take ``rref``, Bareiss's fraction-free Gauss-Jordan elimination on the
matrix over one denominator; a float entry anywhere sends ``solve``,
``nullspace``, ``inverse`` and the rank of ``row_basis`` to numpy (least
squares, the SVD and LAPACK's inverse).

Exact kernels compute on Python ints: ``clear`` writes their inputs over
one denominator and ``over`` divides each result once.  Floats and
polynomials pass through over den 1, so every ring takes the same path.

Every minor comes from one place, the compound cache ``Compound``: the
integer rows of the compound matrices C_k(den m), built by Laplace expansion
on insertion tables made once per column set.  ``det`` is its full-degree
entry over den**n, exact positivity reads the signs of its nested principal
minors, and ``exterior`` reads the pullback and the Hodge star from it.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache
from itertools import chain, compress, repeat
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .scalars import Polynomial, Scalar, coerce, is_zero

Matrix = Tuple[Tuple[Scalar, ...], ...]
VectorS = Tuple[Scalar, ...]
_ZERO = Fraction(0)


def mat(rows: Sequence[Sequence]) -> Matrix:
    return tuple(tuple(coerce(x) for x in row) for row in rows)


def identity(n: int) -> Matrix:
    return tuple(tuple(Fraction(1 if i == j else 0) for j in range(n))
                 for i in range(n))


def transpose(m: Matrix) -> Matrix:
    return tuple(zip(*m))


def ring_zero(*matrices) -> Scalar:
    """The zero of the matrices' ring: 0.0, Polynomial(), 0 for Python ints
    or Fraction(0)."""
    types = {type(x) for m in matrices for row in m for x in row}
    return 0.0 if float in types else Polynomial() if Polynomial in types \
        else 0 if types <= {int} else Fraction(0)


def is_exact(values: Iterable[Scalar]) -> bool:
    """Whether every value is a Fraction or a Python int."""
    return not set(map(type, values)) - {Fraction, int}


def clear(values: Iterable[Scalar]) -> Tuple[int, list]:
    """(den, den * values): for exact values den is the lcm of their
    denominators and the numerators are Python ints; a float or Polynomial
    among the values makes den 1 and keeps the values as they are."""
    values = list(values)
    if not is_exact(values):
        return 1, values
    ratios = [x.as_integer_ratio() for x in values]
    den = math.lcm(*[d for _, d in ratios])
    if den == 1:
        return 1, [n for n, _ in ratios]
    return den, [n * (den // d) for n, d in ratios]


def clear_rows(m: Sequence[Sequence[Scalar]]) -> Tuple[int, List[list]]:
    """``clear`` on the entries of a matrix, kept in its rows."""
    den, nums = clear(x for row in m for x in row)
    nums = iter(nums)
    return den, [[next(nums) for _ in row] for row in m]


def over(num, den: int) -> Scalar:
    """num / den for a num of den * values from ``clear``: a Fraction for
    an int num (one shared Fraction(0) for 0), and a float or polynomial
    num as it is when den is 1."""
    if type(num) is int:
        return Fraction(num, den) if num else _ZERO
    return num if den == 1 else num / den


class Sparse:
    """A matrix, the nonzero entries of each row (truthiness is ``not
    is_zero(x)`` in every ring) and its entry types: a ``mat_mul`` factor
    built once from m, which a caller can keep."""

    __slots__ = ("matrix", "rows", "types")

    def __init__(self, m: Sequence[Sequence[Scalar]]):
        self.matrix = m
        self.rows = [dict(compress(enumerate(row), row)) for row in m]
        self.types = set(map(type, chain.from_iterable(m)))


def mat_mul(a, b) -> Matrix:
    """a b, either factor a matrix or its ``Sparse``.  Each entry adds its
    nonzero terms in increasing k to a zero: 0.0 when a factor holds a float,
    0.0 too, so a float product holds no exact 0; Fraction(0) when a factor
    holds a Fraction; 0 otherwise (Python ints and polynomials)."""
    a, b = (m if isinstance(m, Sparse) else Sparse(m) for m in (a, b))
    types = a.types | b.types
    zero = 0.0 if float in types else Fraction(0) if Fraction in types else 0
    cols = range(len(b.matrix[0]) if len(b.matrix) else 0)
    out = []
    for r in a.rows:
        acc: dict = {}
        for k, x in r.items():
            for j, y in b.rows[k].items():
                acc[j] = acc.get(j, zero) + x * y
        out.append(tuple(map(acc.get, cols, repeat(zero))))
    return tuple(out)


def is_symmetric(m: Matrix, tol: float = 0.0) -> bool:
    n = len(m)
    return all(is_zero(m[i][j] - m[j][i], tol)
               for i in range(n) for j in range(i + 1, n))


@lru_cache(maxsize=None)
def _insertions(rest: Tuple[int, ...], n: int) -> tuple:
    """Per column j = 1..n: None if j is in rest, else (the merged set, the
    parity of j's place in it); cached, at most 2**n keys in dimension n."""
    return tuple(None if j in rest else (tuple(sorted(rest + (j,))),
                 bisect_left(rest, j) % 2) for j in range(1, n + 1))


class Compound:
    """The minors of one square matrix m, one row of C_k(m) at a time.

    ``row(idx)`` maps each column set J to det((den m)[idx, J]), nonzero
    entries only, with den from ``clear``: det(m[idx, J]) is
    ``row(idx)[J] / den**k``, k = len(idx), and den is 1 in float and
    polynomial m.  Index sets are 1-based increasing tuples, as forms use
    them.  A row is built once, by Laplace expansion along idx[0] from the
    row of idx[1:], column j joining each J' there as ``_insertions(J')``
    says: division-free, so polynomial entries work, and a diagonal m costs
    one product per row.  The dict returned is the cached row: read only."""

    __slots__ = ("matrix", "den", "_cleared", "_rows")

    def __init__(self, m: Sequence[Sequence[Scalar]]):
        self.matrix = m
        self.den, self._cleared = clear_rows(m)
        self._rows: dict = {(): {(): 1}}

    def row(self, idx: Tuple[int, ...]) -> dict:
        row = self._rows.get(idx)
        if row is None:
            row = self._rows[idx] = self._expand(idx)
        return row

    def _expand(self, idx: Tuple[int, ...]) -> dict:
        first = [(j, x) for j, x in enumerate(self._cleared[idx[0] - 1]) if x]
        acc: dict = {}
        for rest, minor in self.row(idx[1:]).items():
            table = _insertions(rest, len(self.matrix))  # by 0-based j
            for j, x in first:
                hit = table[j]
                if hit is not None:
                    col, odd = hit
                    term = x * minor
                    acc[col] = acc.get(col, 0) + (-term if odd else term)
        return {j: c for j, c in acc.items() if c}

    def det(self) -> Scalar:
        n = len(self.matrix)
        full = tuple(range(1, n + 1))
        return over(self.row(full).get(full, ring_zero(self.matrix)),
                    self.den ** n)


def det(m: Matrix) -> Scalar:
    """The full-degree entry of the compound cache; fine for n <= 8."""
    return Compound(m).det()


def submatrix_det(m: Matrix, rows: Sequence[int], cols: Sequence[int]) -> Scalar:
    return det(tuple(tuple(m[i][j] for j in cols) for i in rows))


def _bareiss(rows: Sequence[Sequence[Scalar]], ncols: Optional[int] = None):
    """(den, m, pivots, prev): Bareiss's fraction-free Gauss-Jordan
    elimination (Math. Comp. 22, 1968) of m = den * rows, den from
    ``clear``, on the leading ``ncols`` columns.  With pivot p and previous
    pivot prev, each other row becomes (p row - f pivot_row) // prev,
    exactly, so the rows stay prev times the rref."""
    den, m = clear_rows(rows)
    pivots: List[int] = []
    prev = 1
    for c in range(ncols if ncols is not None else (len(m[0]) if m else 0)):
        r = len(pivots)
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        top, piv = m[r], m[r][c]
        for i, row in enumerate(m):
            if i != r:
                f = row[c]
                m[i] = [(piv * x - f * y) // prev for x, y in zip(row, top)]
        pivots.append(c)
        prev = piv
    return den, m, pivots, prev


def rref(rows: Sequence[Sequence[Scalar]], ncols: Optional[int] = None
         ) -> Tuple[List[List[Fraction]], List[int]]:
    """Reduced row echelon form of exact rows, as Fractions: (rows, pivot
    columns), pivots in the leading ``ncols`` columns only.  Float rows go
    to numpy instead (``solve``, ``nullspace``, ``inverse``, ``row_basis``).
    ``_bareiss``, then each pivot row over prev and each other over prev den."""
    if not is_exact(chain.from_iterable(rows)):
        raise TypeError("rref eliminates exact rows only")
    den, m, pivots, prev = _bareiss(rows, ncols)
    rank = len(pivots)
    return [[over(x, prev if i < rank else prev * den) for x in row]
            for i, row in enumerate(m)], pivots


def _has_float(rows) -> bool:
    return any(isinstance(x, float) for row in rows for x in row)


def _svd(a) -> Tuple[np.ndarray, List[VectorS]]:
    """Singular values, largest first, and right singular rows of float a."""
    _, s, vt = np.linalg.svd(to_numpy(a))
    return s, [tuple(map(float, v)) for v in vt]


def solve(a: Matrix, b: Sequence[Scalar],
          tol: float = 0.0) -> Optional[VectorS]:
    """One solution of a x = b, or None when the system is inconsistent.

    With a float in a or b: numpy least squares, a tuple of floats, and
    None when the residual norm exceeds ``tol``.  Otherwise a and b are
    exact: ``rref`` of [a | b] with free variables set to zero, a tuple of
    Fractions.
    """
    if _has_float(a) or _has_float([b]):
        an, bn = to_numpy(a), to_numpy([b])[0]
        x, *_ = np.linalg.lstsq(an, bn, rcond=None)
        if np.linalg.norm(an @ x - bn) > tol:
            return None
        return tuple(float(v) for v in x)
    nr, nc = len(a), len(a[0]) if a else 0
    red, pivots = rref([list(a[i]) + [b[i]] for i in range(nr)], ncols=nc)
    # consistency: rows with zero coefficients must have zero rhs
    if any(red[r][nc] for r in range(len(pivots), nr)):
        return None
    x: List[Scalar] = [_ZERO] * nc
    for r, c in enumerate(pivots):
        x[c] = red[r][nc]
    return tuple(x)


def nullspace(a: Matrix, tol: float = 0.0) -> List[VectorS]:
    """Basis of the kernel.

    With a float entry: the right singular vectors past the rank, where a
    singular value counts when it exceeds tol * max(shape) * the largest
    one.  Otherwise the rref free-variable construction.
    """
    if _has_float(a):
        s, vt = _svd(a)
        rank = int((s > tol * max(len(a), len(a[0])) * s[0]).sum())
        return vt[rank:]
    nc = len(a[0]) if a else 0
    red, pivots = rref(a, ncols=nc)
    basis: List[VectorS] = []
    for f in (c for c in range(nc) if c not in pivots):
        v: List[Scalar] = [_ZERO] * nc
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -red[r][f]
        basis.append(tuple(v))
    return basis


def row_basis(rows: Sequence[Sequence[Scalar]], floor: float) -> List[VectorS]:
    """A basis of the span of rows: the pivot rows of exact ``_bareiss``,
    each divided by its gcd (primitive integer rows), or the orthonormal
    right singular vectors of one SVD of float rows whose singular value
    exceeds ``floor``, the numerical rank (Golub & Van Loan, *Matrix
    Computations*, 5.4)."""
    if _has_float(rows):
        s, vt = _svd(rows)
        return vt[:int((s > floor).sum())]
    _, m, pivots, _ = _bareiss(rows)
    return [tuple(x // g for x in row) for row in m[:len(pivots)]
            for g in [math.gcd(*row)]]


def inverse(a: Matrix) -> Matrix:
    """a^-1: numpy's for a float a, else ``rref`` of [a | I].  A singular a
    raises ZeroDivisionError in both rings."""
    n = len(a)
    if _has_float(a):
        try:
            return tuple(tuple(map(float, row))
                         for row in np.linalg.inv(to_numpy(a)))
        except np.linalg.LinAlgError:
            raise ZeroDivisionError("matrix is singular") from None
    red, pivots = rref([list(a[i]) + [int(i == j) for j in range(n)]
                        for i in range(n)], ncols=n)
    if len(pivots) != n:
        raise ZeroDivisionError("matrix is singular")
    return tuple(tuple(row[n:]) for row in red)


def to_numpy(a: Matrix) -> np.ndarray:
    return np.array(a, dtype=float)


def is_positive_definite(m: Matrix, tol: float = 0.0, sign: int = 1,
                         minors: Optional[Compound] = None) -> bool:
    """Whether sign * m is positive definite.  Eigenvalues for floats.
    Exact: Sylvester's criterion on sign^s det m[k:, k:], s = n - k, the
    nested rows of the compound cache ``minors`` of m, or a new one (den > 0
    keeps the signs)."""
    n = len(m)
    if not is_symmetric(m, tol):
        return False
    if _has_float(m):
        eigs = np.linalg.eigvalsh(sign * to_numpy(m))
        return bool(eigs.min() > tol)
    minors = Compound(m) if minors is None else minors
    for k in range(n, 0, -1):
        idx = tuple(range(k, n + 1))
        d = minors.row(idx).get(idx, 0)
        if isinstance(d, Polynomial):
            if not d.is_constant():
                raise ValueError("positive definiteness of a symbolic matrix "
                                 "is not decidable here")
            d = d.constant_value()
        if d * sign ** (n - k + 1) <= 0:
            return False
    return True
