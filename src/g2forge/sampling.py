"""Vectorized float-ring evaluation of the stable-form data on a
six-dimensional algebra.

The generic 2-form is parametrized by the 15 coefficients b_1..b_15 in
lexicographic pair order.  K, omega ^ sigma and the Pfaffian of omega are
read once per process off the exact code (``k_endomorphism``, ``wedge``,
``omega_cubed``) at the generic forms, into numpy tables that do not depend
on the algebra; each sampler contracts them with its own matrix of d on
2-forms, so the samplers can evaluate lambda, J and h in microseconds.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import List, Optional, Tuple

import numpy as np

from . import scalars
from .exterior import KForm, wedge
from .liealg import LieAlgebra
from .scalars import Polynomial
from .stable_forms import k_endomorphism, omega_cubed

PAIRS: List[Tuple[int, int]] = list(combinations(range(1, 7), 2))
TRIPLES: List[Tuple[int, int, int]] = list(combinations(range(1, 7), 3))

_TRIP_POS = {t: i for i, t in enumerate(TRIPLES)}

# 0-based row and column of each pair, so that omega_b[PAIR_ROW, PAIR_COL] = b
PAIR_ROW = np.array([p - 1 for p, _ in PAIRS])
PAIR_COL = np.array([q - 1 for _, q in PAIRS])


def generic_form(degree: int, prefix: str) -> KForm:
    """The 6-dimensional form with symbolic coefficients prefix1, prefix2,
    ... in lexicographic index order: generic_form(2, "b") is
    b1 e^12 + b2 e^13 + ... + b15 e^56."""
    return KForm(6, degree, {
        idx: Polynomial.variable("%s%d" % (prefix, i))
        for i, idx in enumerate(combinations(range(1, 7), degree), start=1)})


def _terms(p):
    """(0-based positions of its variables, coefficient) for each term of a
    polynomial in the coefficients of ``generic_form``; a square lists its
    variable twice, and the exact zero, a Fraction, has no terms."""
    for mono, coeff in getattr(p, "terms", {}).items():
        yield (tuple(int(v[1:]) - 1 for v, e in mono for _ in range(e)),
               float(coeff))


@lru_cache(maxsize=None)
def _tables():
    """The exact K, omega ^ sigma and Pfaffian at the generic omega =
    sum b_p e^(pair p) and sigma = sum s_a e^(triple a), as numpy tables:
    K[m, j] = sum k[m, j, a, b] s_a s_b, with each monomial once;
    (omega ^ sigma) on e^(complement of m) = sum u[m, p, a] b_p s_a;
    Pf(omega) = sum_i sign[i] prod b[index[i]], over the 15 matchings."""
    omega, sigma = generic_form(2, "b"), generic_form(3, "s")
    k = np.zeros((6, 6, len(TRIPLES), len(TRIPLES)))
    for m, row in enumerate(k_endomorphism(sigma)):
        for j, entry in enumerate(row):
            for pos, coeff in _terms(entry):
                k[(m, j) + pos] = coeff
    u = np.zeros((6, len(PAIRS), len(TRIPLES)))
    for idx, entry in wedge(omega, sigma).items():
        (missing,) = set(range(1, 7)) - set(idx)
        for pos, coeff in _terms(entry):
            u[(missing - 1,) + pos] = coeff
    # omega^3 = 3! Pf(omega) e^123456
    pf = sorted(_terms(omega_cubed(omega)[tuple(range(1, 7))]))
    index = np.array([pos for pos, _ in pf])
    sign = np.array([coeff / 6 for _, coeff in pf])
    return k, u, index, sign


class StableFormSampler:
    """Numeric lambda / J / h evaluation for sigma = c * d(omega_b)."""

    def __init__(self, algebra: LieAlgebra):
        if algebra.dim != 6:
            raise ValueError("sampler works on six-dimensional algebras")
        self.algebra = algebra
        self.d_matrix = self._build_d_matrix()
        self.k_tensor, compat_tensor, self._pf_index, self._pf_sign = \
            _tables()
        # K and omega ^ sigma for c = 1 written directly on b, summed with
        # their transposes so that one contraction with b gives the
        # Jacobian: dK/db = k_b_tensor @ b and K = (dK/db) b / 2
        self.k_b_tensor = _symmetrize(np.einsum(
            "mjab,ap,bq->mjpq", self.k_tensor, self.d_matrix, self.d_matrix,
            optimize=True))
        self.compat_b_tensor = _symmetrize(np.einsum(
            "mpa,aq->mpq", compat_tensor, self.d_matrix))

    # -- structure tensors ---------------------------------------------------
    def _build_d_matrix(self) -> np.ndarray:
        """20 x 15 matrix of d on 2-forms in the coefficient bases."""
        m = np.zeros((len(TRIPLES), len(PAIRS)))
        for col, pair in enumerate(PAIRS):
            d = self.algebra.d(KForm(6, 2, {pair: 1}))
            for idx, c in d.coeffs.items():
                m[_TRIP_POS[idx], col] = scalars.as_float(c)
        return m

    # -- evaluation ------------------------------------------------------------
    def sigma_coeffs(self, b: np.ndarray, c: float = 1.0) -> np.ndarray:
        return c * (self.d_matrix @ b)

    def k_matrix(self, s: np.ndarray) -> np.ndarray:
        return np.einsum("mjab,a,b->mj", self.k_tensor, s, s)

    def lambda_of(self, b: np.ndarray, c: float = 1.0) -> float:
        k = self.k_matrix(self.sigma_coeffs(b, c))
        return float(np.trace(k @ k)) / 6.0

    def j_matrix(self, b: np.ndarray, c: float = 1.0) -> Optional[np.ndarray]:
        """J for sigma = c d(omega_b) in the omega-oriented volume, or None."""
        s = self.sigma_coeffs(b, c)
        k = self.k_matrix(s)
        lam = float(np.trace(k @ k)) / 6.0
        if lam >= 0.0:
            return None
        j = k / np.sqrt(-lam)
        if self.orientation_sign(b) < 0:
            j = -j
        return j

    def omega_matrix(self, b: np.ndarray) -> np.ndarray:
        om = np.zeros((6, 6))
        om[PAIR_ROW, PAIR_COL] = b
        om[PAIR_COL, PAIR_ROW] = -b
        return om

    def orientation_sign(self, b: np.ndarray) -> float:
        # pfaffian of the omega matrix; sign of omega^3 against e^{1..6}
        pf = float(self._pf_sign
                   @ np.prod(np.asarray(b)[self._pf_index], axis=1))
        return 1.0 if pf >= 0 else -1.0

    def metric_of(self, b: np.ndarray, j: np.ndarray) -> np.ndarray:
        """h(x,y) = omega(Jx, y) as a (not yet symmetrized) matrix."""
        return j.T @ self.omega_matrix(b)

    def compat(self, b: np.ndarray, c: float = 1.0
               ) -> Tuple[np.ndarray, np.ndarray]:
        """omega_b ^ sigma on the 5-form basis, for sigma = c d(omega_b),
        and its 6 x 15 Jacobian in b."""
        jac = c * (self.compat_b_tensor @ b)
        return 0.5 * (jac @ b), jac

    def pullback_matrix(self, j: np.ndarray) -> np.ndarray:
        """15 x 15 matrix of omega -> omega(J., J.) on pair coefficients:
        entry (pq, kl) is J[k,p] J[l,q] - J[k,q] J[l,p]."""
        p, q = PAIR_ROW[:, None], PAIR_COL[:, None]
        k, l = PAIR_ROW[None, :], PAIR_COL[None, :]
        return j[k, p] * j[l, q] - j[k, q] * j[l, p]


def _symmetrize(t: np.ndarray) -> np.ndarray:
    return t + np.swapaxes(t, -1, -2)

