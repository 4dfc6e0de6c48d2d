"""Vectorized float-ring evaluation of the stable-form data on a
six-dimensional algebra.

The generic 2-form is parametrized by the 15 coefficients b_1..b_15 in
lexicographic pair order.  K, omega ^ sigma and the Pfaffian of omega are
read once per process off the exact index tables (``stable_forms._k_table``
and ``exterior.merge_sign``), into numpy tables that do not depend on the
algebra; each sampler contracts them with its own matrix of d on
2-forms.  K of sigma is two BLAS mat-vecs, the K table as 720 rows of 20
times the 20 coefficients of sigma twice, and lambda and J share one K.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product
from typing import List, Optional, Tuple

import numpy as np

from . import scalars
from .exterior import KForm, merge_sign
from .liealg import LieAlgebra
from .stable_forms import _k_table

PAIRS: List[Tuple[int, int]] = list(combinations(range(1, 7), 2))
TRIPLES: List[Tuple[int, int, int]] = list(combinations(range(1, 7), 3))

_TRIP_POS = {t: i for i, t in enumerate(TRIPLES)}

# 0-based row and column of each pair, so that omega_b[PAIR_ROW, PAIR_COL] = b
PAIR_ROW = np.array([p - 1 for p, _ in PAIRS])
PAIR_COL = np.array([q - 1 for _, q in PAIRS])


@lru_cache(maxsize=None)
def _tables():
    """K, omega ^ sigma and the Pfaffian at the generic omega =
    sum b_p e^(pair p) and sigma = sum s_a e^(triple a), as numpy tables
    read off the exact index tables (``_k_table`` and ``merge_sign``):
    K[m, j] = sum k[m, j, a, b] s_a s_b over a < b, each monomial once;
    (omega ^ sigma) on e^(complement of m) = sum u[m, p, a] b_p s_a;
    Pf(omega) = sum_i sign[i] prod b[index[i]], over the 15 matchings
    p < q < r in pair order."""
    k = np.zeros((6, 6, len(TRIPLES), len(TRIPLES)))
    for a, b, entries in _k_table():
        for mj, coeff in entries:
            k[divmod(mj, 6) + (_TRIP_POS[a], _TRIP_POS[b])] = coeff
    u = np.zeros((6, len(PAIRS), len(TRIPLES)))
    for (p, pair), (a, triple) in product(enumerate(PAIRS),
                                          enumerate(TRIPLES)):
        sign, merged = merge_sign(pair, triple)
        if sign:
            (missing,) = set(range(1, 7)) - set(merged)
            u[missing - 1, p, a] = sign
    matchings = []
    for pqr in combinations(range(len(PAIRS)), 3):
        first, merged = merge_sign(PAIRS[pqr[0]], PAIRS[pqr[1]])
        if first:
            last, _ = merge_sign(merged, PAIRS[pqr[2]])
            if last:
                matchings.append((pqr, first * last))
    index = np.array([pqr for pqr, _ in matchings])
    sign = np.array([float(x) for _, x in matchings])
    return k, u, index, sign


class StableFormSampler:
    """Numeric lambda / J / h evaluation for sigma = c * d(omega_b)."""

    def __init__(self, algebra: LieAlgebra):
        if algebra.dim != 6:
            raise ValueError("sampler works on six-dimensional algebras")
        self.algebra = algebra
        self.d_matrix = self._build_d_matrix()
        k_tensor, compat_tensor, self._pf_index, self._pf_sign = _tables()
        self._k_rows = k_tensor.reshape(-1, len(TRIPLES))
        # K and omega ^ sigma for c = 1 written directly on b, summed with
        # their transposes so that one contraction with b gives the
        # Jacobian: dK/db = k_b_tensor @ b and K = (dK/db) b / 2
        self.k_b_tensor = _symmetrize(np.einsum(
            "mjab,ap,bq->mjpq", k_tensor, self.d_matrix, self.d_matrix,
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
    def sigma_coeffs(self, b: np.ndarray, c: float) -> np.ndarray:
        return c * (self.d_matrix @ b)

    def k_matrix(self, s: np.ndarray) -> np.ndarray:
        """K of sigma = sum s_a e^(triple a): the einsum "mjab,a,b->mj" of
        the K table with s twice, as two mat-vecs on its 720 x 20 rows."""
        return ((self._k_rows @ s).reshape(36, -1) @ s).reshape(6, 6)

    def lambda_of(self, b: np.ndarray, c: float) -> float:
        k = self.k_matrix(self.sigma_coeffs(b, c))
        return float(np.trace(k @ k)) / 6.0

    def lambda_and_j(self, b: np.ndarray, c: float
                     ) -> Tuple[float, Optional[np.ndarray]]:
        """lambda and J for sigma = c d(omega_b) from one K; J is in the
        omega-oriented volume, and None unless lambda < 0."""
        k = self.k_matrix(self.sigma_coeffs(b, c))
        lam = float(np.trace(k @ k)) / 6.0
        j = k / (self.orientation_sign(b) * np.sqrt(-lam)) if lam < 0 else None
        return lam, j

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

