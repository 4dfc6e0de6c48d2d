"""Vectorized float-ring evaluation of the stable-form data on a
six-dimensional algebra.

The generic 2-form is parametrized by the 15 coefficients b_1..b_15 in
lexicographic pair order.  All bilinear structure (the K endomorphism,
compatibility wedges) is precomputed into numpy tensors once per algebra,
so the samplers can evaluate lambda, J and h in microseconds.  The exact
stable_forms module is the reference implementation; agreement of the two
routes is asserted in the test suite.
"""
from __future__ import annotations

from itertools import combinations
from typing import List, Optional, Tuple

import numpy as np

from . import scalars
from .exterior import KForm, sort_index
from .liealg import LieAlgebra

PAIRS: List[Tuple[int, int]] = list(combinations(range(1, 7), 2))
TRIPLES: List[Tuple[int, int, int]] = list(combinations(range(1, 7), 3))
QUADS: List[Tuple[int, ...]] = list(combinations(range(1, 7), 4))
FIVES: List[Tuple[int, ...]] = list(combinations(range(1, 7), 5))

_TRIP_POS = {t: i for i, t in enumerate(TRIPLES)}

# 0-based row and column of each pair, so that omega_b[PAIR_ROW, PAIR_COL] = b
PAIR_ROW = np.array([p - 1 for p, _ in PAIRS])
PAIR_COL = np.array([q - 1 for _, q in PAIRS])
# the 15 perfect matchings of {1..6} as triples of pair positions, with the
# sign of the permutation (p1 q1 p2 q2 p3 q3): Pf(omega_b) = sum sign b b b
_MATCHINGS = [(x, y, z) for x, y, z in combinations(range(len(PAIRS)), 3)
              if len(set(PAIRS[x] + PAIRS[y] + PAIRS[z])) == 6]
_PF_INDEX = np.array(_MATCHINGS)
_PF_SIGN = np.array([float(sort_index(PAIRS[x] + PAIRS[y] + PAIRS[z])[0])
                     for x, y, z in _MATCHINGS])


def two_form_from_b(b) -> KForm:
    """b_1 e^12 + b_2 e^13 + ... + b_15 e^56."""
    coeffs = {}
    for val, pair in zip(b, PAIRS):
        if not scalars.is_zero(scalars.coerce(val)):
            coeffs[pair] = val
    return KForm(6, 2, coeffs)


class StableFormSampler:
    """Numeric lambda / J / h evaluation for sigma = c * d(omega_b)."""

    def __init__(self, algebra: LieAlgebra):
        if algebra.dim != 6:
            raise ValueError("sampler works on six-dimensional algebras")
        self.algebra = algebra
        self.d_matrix = self._build_d_matrix()
        self.k_tensor = self._build_k_tensor()
        # K and omega ^ sigma for c = 1 written directly on b, summed with
        # their transposes so that one contraction with b gives the
        # Jacobian: dK/db = k_b_tensor @ b and K = (dK/db) b / 2
        self.k_b_tensor = _symmetrize(np.einsum(
            "mjab,ap,bq->mjpq", self.k_tensor, self.d_matrix, self.d_matrix,
            optimize=True))
        self.compat_b_tensor = _symmetrize(np.einsum(
            "mpa,aq->mpq", self._build_compat_tensor(), self.d_matrix))

    # -- structure tensors ---------------------------------------------------
    def _build_d_matrix(self) -> np.ndarray:
        """20 x 15 matrix of d on 2-forms in the coefficient bases."""
        m = np.zeros((len(TRIPLES), len(PAIRS)))
        for col, pair in enumerate(PAIRS):
            d = self.algebra.d(KForm(6, 2, {pair: 1}))
            for idx, c in d.coeffs.items():
                m[_TRIP_POS[idx], col] = scalars.as_float(c)
        return m

    def _build_k_tensor(self) -> np.ndarray:
        """w[m, j, a, b] with K[m, j] = sum w[m,j,a,b] s_a s_b."""
        w = np.zeros((6, 6, len(TRIPLES), len(TRIPLES)))
        full = set(range(1, 7))
        for a, ta in enumerate(TRIPLES):
            for j in range(1, 7):
                if j not in ta:
                    continue
                pos = ta.index(j)
                pair = ta[:pos] + ta[pos + 1:]
                sign_c = -1.0 if pos % 2 else 1.0
                for b_i, tb in enumerate(TRIPLES):
                    if set(pair) & set(tb):
                        continue
                    sign_w, merged = _merge(pair, tb)
                    (missing,) = full - set(merged)
                    sign_a = -1.0 if (missing - 1) % 2 else 1.0
                    w[missing - 1, j - 1, a, b_i] += sign_c * sign_w * sign_a
        return w

    def _build_compat_tensor(self) -> np.ndarray:
        """u[m, p, a]: coefficient of the 5-form e^(complement of m)."""
        u = np.zeros((6, len(PAIRS), len(TRIPLES)))
        full = set(range(1, 7))
        for p, pair in enumerate(PAIRS):
            for a, trip in enumerate(TRIPLES):
                if set(pair) & set(trip):
                    continue
                sign_w, merged = _merge(pair, trip)
                (missing,) = full - set(merged)
                u[missing - 1, p, a] += sign_w
        return u

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
        pf = float(_PF_SIGN @ np.prod(np.asarray(b)[_PF_INDEX], axis=1))
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


def _merge(a: Tuple[int, ...], b: Tuple[int, ...]):
    sign, idx = sort_index(a + b)
    return float(sign), idx
