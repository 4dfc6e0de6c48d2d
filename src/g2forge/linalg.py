"""Small dense linear algebra over exact and float scalars.

Matrices are tuples of tuples.  The scalars pick the method: a float entry
anywhere sends ``solve`` and ``nullspace`` to numpy, otherwise they
eliminate exactly with Fraction pivots and allow polynomial right-hand
sides.
"""
from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .scalars import Polynomial, Scalar, coerce, is_zero

Matrix = Tuple[Tuple[Scalar, ...], ...]
VectorS = Tuple[Scalar, ...]


def mat(rows: Sequence[Sequence]) -> Matrix:
    return tuple(tuple(coerce(x) for x in row) for row in rows)


def identity(n: int) -> Matrix:
    return tuple(tuple(Fraction(1 if i == j else 0) for j in range(n))
                 for i in range(n))


def transpose(m: Matrix) -> Matrix:
    return tuple(zip(*m))


def ring_zero(*matrices) -> Scalar:
    """0.0 when any of the matrices holds a float, else Fraction(0)."""
    return 0.0 if any(_has_float(m) for m in matrices) else Fraction(0)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """a b over sparse factors: zero factors are skipped, and each entry
    starts from a zero of the inputs' ring, so a float product holds no
    exact 0."""
    zero = ring_zero(a, b)
    rows = [{k: x for k, x in enumerate(row) if not is_zero(x)} for row in a]
    cols = [[(k, y) for k, y in enumerate(col) if not is_zero(y)]
            for col in zip(*b)]
    return tuple(tuple(sum((r[k] * y for k, y in col if k in r), zero)
                       for col in cols) for r in rows)


def mat_vec(a: Matrix, v: Sequence[Scalar]) -> VectorS:
    return tuple(sum((x * y for x, y in zip(row, v)), Fraction(0)) for row in a)


def is_symmetric(m: Matrix, tol: float = 0.0) -> bool:
    n = len(m)
    return all(is_zero(m[i][j] - m[j][i], tol)
               for i in range(n) for j in range(i + 1, n))


def det(m: Matrix) -> Scalar:
    """Determinant by cofactor expansion with memoization.

    Division-free, so it works for polynomial entries; fine for n <= 8.
    """
    n = len(m)
    if n == 0:
        return Fraction(1)
    cols = tuple(range(n))
    cache: dict = {}

    # the row index is implied by len(cols_left), so key on cols_left alone
    def minor2(cols_left: tuple) -> Scalar:
        if not cols_left:
            return Fraction(1)
        if cols_left in cache:
            return cache[cols_left]
        i = n - len(cols_left)
        total: Scalar = Fraction(0)
        for pos, j in enumerate(cols_left):
            a = m[i][j]
            if is_zero(a):
                continue
            term = a * minor2(cols_left[:pos] + cols_left[pos + 1:])
            total = total + term if pos % 2 == 0 else total - term
        cache[cols_left] = total
        return total

    return minor2(cols)


def submatrix_det(m: Matrix, rows: Sequence[int], cols: Sequence[int]) -> Scalar:
    sub = tuple(tuple(m[i][j] for j in cols) for i in rows)
    return det(sub)


def rref(rows: List[List[Scalar]], ncols: Optional[int] = None,
         tol: float = 0.0) -> Tuple[List[List[Scalar]], List[int]]:
    """Reduced row echelon form in place; returns (rows, pivot columns).

    Pivot selection only divides by entries in the leading ``ncols``
    columns, which must be invertible scalars (Fractions or floats);
    trailing columns may hold polynomial data.
    """
    rows = [list(r) for r in rows]
    nr = len(rows)
    nc = ncols if ncols is not None else (len(rows[0]) if rows else 0)
    pivots: List[int] = []
    r = 0
    for c in range(nc):
        pivot_row = None
        best = None
        for i in range(r, nr):
            x = rows[i][c]
            if not is_zero(x, tol):
                if isinstance(x, float):
                    if best is None or abs(x) > best:
                        best, pivot_row = abs(x), i
                else:
                    pivot_row = i
                    break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(nr):
            if i != r and not is_zero(rows[i][c], tol):
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return rows, pivots


def _has_float(rows) -> bool:
    return any(isinstance(x, float) for row in rows for x in row)


def solve(a: Matrix, b: Sequence[Scalar],
          tol: float = 0.0) -> Optional[VectorS]:
    """One solution of a x = b, or None when the system is inconsistent.

    With a float in a or b: least squares, a tuple of floats, and None when
    the residual norm exceeds ``tol``.  Otherwise exact elimination with
    free variables set to zero; the coefficients must be invertible
    scalars, b may be polynomial.
    """
    if _has_float(a) or _has_float([b]):
        an, bn = to_numpy(a), to_numpy([b])[0]
        x, *_ = np.linalg.lstsq(an, bn, rcond=None)
        if np.linalg.norm(an @ x - bn) > tol:
            return None
        return tuple(float(v) for v in x)
    nr, nc = len(a), len(a[0]) if a else 0
    aug = [list(a[i]) + [coerce(b[i])] for i in range(nr)]
    red, pivots = rref(aug, ncols=nc)
    x: List[Scalar] = [Fraction(0)] * nc
    for r, c in enumerate(pivots):
        x[c] = red[r][nc]
    # consistency: rows with zero coefficients must have zero rhs
    for r in range(len(pivots), nr):
        if not is_zero(red[r][nc]):
            return None
    # residual check for polynomial rhs safety
    for i in range(nr):
        res = sum((a[i][j] * x[j] for j in range(nc)), Fraction(0)) - b[i]
        if not is_zero(res):
            return None
    return tuple(x)


def nullspace(a: Matrix, tol: float = 0.0) -> List[VectorS]:
    """Basis of the kernel.

    With a float entry: the right singular vectors past the rank, where a
    singular value counts when it exceeds tol * max(shape) * the largest
    one.  Otherwise the rref free-variable construction.
    """
    if _has_float(a):
        an = to_numpy(a)
        _, s, vt = np.linalg.svd(an)
        rank = int((s > tol * max(an.shape) * s[0]).sum())
        return [tuple(float(x) for x in v) for v in vt[rank:]]
    nr, nc = len(a), len(a[0]) if a else 0
    red, pivots = rref([list(r) for r in a], ncols=nc)
    free = [c for c in range(nc) if c not in pivots]
    basis: List[VectorS] = []
    for f in free:
        v: List[Scalar] = [Fraction(0)] * nc
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -red[r][f]
        basis.append(tuple(v))
    return basis


def inverse(a: Matrix) -> Matrix:
    n = len(a)
    aug = [list(a[i]) + [Fraction(1 if i == j else 0) for j in range(n)]
           for i in range(n)]
    red, pivots = rref(aug, ncols=n)
    if len(pivots) != n:
        raise ZeroDivisionError("matrix is singular")
    return tuple(tuple(red[i][n:]) for i in range(n))


def to_numpy(a: Matrix) -> np.ndarray:
    from .scalars import as_float
    return np.array([[as_float(x) for x in row] for row in a], dtype=float)


def is_positive_definite(m: Matrix, tol: float = 0.0) -> bool:
    """Sylvester criterion for exact matrices; eigenvalues for floats."""
    n = len(m)
    if not is_symmetric(m, tol):
        return False
    if _has_float(m):
        eigs = np.linalg.eigvalsh(to_numpy(m))
        return bool(eigs.min() > tol)
    for k in range(1, n + 1):
        d = submatrix_det(m, range(k), range(k))
        if isinstance(d, Polynomial):
            if not d.is_constant():
                raise ValueError("positive definiteness of a symbolic matrix "
                                 "is not decidable here")
            d = d.constant_value()
        if d <= 0:
            return False
    return True
