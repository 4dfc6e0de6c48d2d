"""Stable 2- and 3-forms in dimension six and the structures they induce.

For a 3-form s the endomorphism K_s(w) = A((i_w s) ^ s) is expressed in
units of a reference volume form; it is quadratic in s, read off a
polarization table with one product s_I s_J per pair of 3-indices (at most
100).  Its quartic invariant lambda = tr(K^2)/6, 21 products, decides
stability, and J = K / sqrt(|lambda|) is an almost complex structure when
lambda < 0.  A compatible stable pair (omega, sigma) then induces h =
omega(J., .).

Orientation matters: J flips sign with the orientation.  The metric of a
pair is computed in the orientation that makes omega^3 positive, which is
the one for which positive pairs give positive-definite h.
"""
from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from typing import Optional

from . import linalg, scalars
from .exterior import (InnerProduct, KForm, Orientation, merge_sign,
                       pullback, scaled, wedge)
from .liealg import LieAlgebra
from .scalars import Polynomial, Scalar, is_zero


class NotStableError(ValueError):
    pass


class IncompatiblePairError(ValueError):
    pass


@dataclass(frozen=True)
class StablePair:
    """A compatible stable pair with its induced structures."""

    omega: KForm
    sigma: KForm
    J: linalg.Matrix
    metric: InnerProduct
    lambda_value: Scalar
    normalized: bool
    positive: bool


@lru_cache(maxsize=None)
def _k_table() -> tuple:
    """K polarized: v0 K[m][j] = sum coef s_I s_J (m, j 0-based), as
    (I, J, ((6m + j, coef), ...)) over the 100 pairs I < J of 3-indices
    with |I & J| <= 1, 150 entries; from i_{e_j} e^I = (-1)^pos e^(I - j)
    and A(e^(full - m)) = (-1)^(m-1) e_m."""
    table: dict = defaultdict(Counter)
    for a, b in product(combinations(range(1, 7), 3), repeat=2):
        for pos, j in enumerate(a):
            sign, merged = merge_sign(a[:pos] + a[pos + 1:], b)
            if sign:
                (m,) = {1, 2, 3, 4, 5, 6}.difference(merged)
                table[min(a, b), max(a, b)][6 * m + j - 7] += \
                    sign * (-1) ** (pos + m - 1)
    return tuple((a, b, tuple((mj, x) for mj, x in e.items() if x))
                 for (a, b), e in table.items())


def k_endomorphism(sigma: KForm, orient: Optional[Orientation] = None
                   ) -> linalg.Matrix:
    """Matrix of w -> A((i_w sigma) ^ sigma) in units of the reference
    volume, A(gamma) = w with i_w(vol) = gamma.  Read off ``_k_table``:
    each s_I s_J of a present pair is made once (at most 100, where a wedge
    per column made 240), on integers over one denominator when sigma is
    exact, and spread with its integer coefficients; each entry is divided
    once.  ``orient`` = v0 e^{1..6} divides K by v0: the reversed
    orientation negates K and J, and the pair metric never passes one."""
    if sigma.dim != 6:
        raise ValueError("stable-form machinery lives in dimension 6")
    v0 = (orient or Orientation.standard(6)).coefficient
    den, nums = linalg.clear(sigma.coeffs.values())
    s = dict(zip(sigma.coeffs, nums))
    acc = [0] * 36
    for a, b, entries in _k_table():
        if a in s and b in s:
            p = s[a] * s[b]
            for mj, coef in entries:
                acc[mj] += coef * p
    zero = Fraction(0)
    k = tuple(tuple(linalg.over(x, den * den) if x else zero
                    for x in acc[m:m + 6]) for m in range(0, 36, 6))
    return k if v0 == 1 else tuple(tuple(x / v0 if x else x for x in row)
                                   for row in k)


def _quartic(k: linalg.Matrix) -> Scalar:
    """tr(K^2)/6 = (sum_i K_ii^2 + 2 sum_{i<j} K_ij K_ji)/6: 21 products."""
    off = sum((k[i][j] * k[j][i] for i, j in combinations(range(6), 2)),
              Fraction(0))
    return sum((k[i][i] * k[i][i] for i in range(6)), 2 * off) / 6


def _complex_structure(k: linalg.Matrix, lam: Scalar) -> linalg.Matrix:
    """J = K / sqrt(-lambda); requires lambda < 0 in a numeric ring."""
    if isinstance(lam, Polynomial):
        raise NotStableError("almost complex structure of a symbolic form "
                             "is not computed; evaluate lambda instead")
    if not lam < 0:
        raise NotStableError("lambda = %s is not negative" % (lam,))
    root = scalars.ssqrt(-lam)
    return tuple(tuple(x / root for x in row) for row in k)


def lambda_invariant(sigma: KForm) -> Scalar:
    """tr(K^2)/6; quartic in the coefficients, negative on definite forms."""
    return _quartic(k_endomorphism(sigma))


def almost_complex(sigma: KForm, orient: Optional[Orientation] = None
                   ) -> linalg.Matrix:
    """J = K / sqrt(-lambda); requires lambda < 0 in a numeric ring."""
    k = k_endomorphism(sigma, orient)
    return _complex_structure(k, _quartic(k))


def omega_cubed(omega: KForm) -> KForm:
    return wedge(wedge(omega, omega), omega)


def orientation_sign(omega: KForm) -> int:
    """+1 when omega^3 is positively oriented in the reference frame, else -1.

    J flips sign with the orientation, and only the omega^3-positive choice
    makes positive pairs induce positive-definite metrics, so this sign
    feeds metric_from_pair.
    """
    cube = omega_cubed(omega)
    top = cube.coeffs.get(tuple(range(1, 7)), Fraction(0))
    if is_zero(top):
        raise NotStableError("omega^3 = 0: the 2-form is not stable")
    if isinstance(top, Polynomial):
        raise NotStableError("orientation of a symbolic 2-form is undetermined")
    return 1 if top > 0 else -1


def metric_from_pair(omega: KForm, sigma: KForm) -> StablePair:
    """Assemble the structure induced by a compatible stable pair.

    Checks stability of both forms and compatibility (omega ^ sigma = 0),
    then records whether the pair is normalized
    (J*sigma ^ sigma = (2/3) omega^3) and whether h is positive definite.
    J and h are always taken in the orientation that makes omega^3
    positive, and float zero tests use the fixed relative tolerance 1e-10.
    """
    if omega.dim != 6 or sigma.dim != 6:
        raise ValueError("pairs live in dimension 6")
    tol = 1e-10
    if not wedge(omega, sigma).is_zero(scaled(tol, omega, sigma)):
        raise IncompatiblePairError("omega ^ sigma != 0")
    k = k_endomorphism(sigma)
    return _pair_structure(omega, sigma, k, _quartic(k), tol)


def _pair_structure(omega: KForm, sigma: KForm, k: linalg.Matrix,
                    lam: Scalar, tol: float) -> StablePair:
    """metric_from_pair from K and lambda of sigma: J and h = omega(J., .)
    in the orientation that makes omega^3 positive, where K changes sign."""
    if orientation_sign(omega) < 0:
        k = tuple(tuple(-x for x in row) for row in k)
    j = _complex_structure(k, lam)
    # h(x, y) = omega(Jx, y): h = J^T Omega with Omega_pq = omega(e_p, e_q)
    big_omega = [[omega[p, q] for q in range(1, 7)] for p in range(1, 7)]
    h_matrix = linalg.mat_mul(linalg.transpose(j), big_omega)
    h_tol = scaled(tol, j, omega)
    if not linalg.is_symmetric(h_matrix, h_tol):
        raise IncompatiblePairError("induced bilinear form is not symmetric; "
                                    "the 2-form is not of type (1,1) for J")
    jsigma = pullback(sigma, linalg.Compound(j))
    residual = wedge(jsigma, sigma) - Fraction(2, 3) * omega_cubed(omega)
    normalized = residual.is_zero(10 * max(scaled(tol, jsigma, sigma),
                                           scaled(tol, omega, omega, omega)))
    metric = InnerProduct(h_matrix)
    positive = metric.is_positive_definite(h_tol)
    return StablePair(omega=omega, sigma=sigma, J=j, metric=metric,
                      lambda_value=lam, normalized=normalized,
                      positive=positive)


@dataclass(frozen=True)
class SU3Verdict:
    stable: bool
    compatible: bool
    normalized: bool
    positive: bool
    lambda_value: Scalar
    coupled_c: Optional[Scalar]
    half_flat: bool
    pair: Optional[StablePair] = None   # built when the pair is stable


def coupling_constant(algebra: LieAlgebra, omega: KForm, sigma: KForm,
                      tol: float = 1e-10) -> Optional[Scalar]:
    """The unique nonzero c with d(omega) = c * sigma, if it exists."""
    domega = algebra.d(omega)
    if domega.is_zero(scaled(tol, omega)) or sigma.is_zero():
        return None
    # pivot on the largest float coefficient of sigma, or on any exact one
    pivot_idx = max(sigma.coeffs, key=lambda idx: abs(sigma.coeffs[idx])
                    if isinstance(sigma.coeffs[idx], float) else 0.0)
    c_val = domega.coeffs.get(pivot_idx, Fraction(0)) / sigma.coeffs[pivot_idx]
    if (domega - c_val * sigma).is_zero(scaled(tol, domega)):
        return c_val
    return None


def su3_predicates(algebra: LieAlgebra, omega: KForm, sigma: KForm,
                   tol: float = 1e-10) -> SU3Verdict:
    """Coupled / half-flat analysis of a pair on a six-dimensional algebra."""
    compatible = wedge(omega, sigma).is_zero(scaled(tol, omega, sigma))
    k = k_endomorphism(sigma)
    lam = _quartic(k)
    pair = None
    if not isinstance(lam, Polynomial) and lam < 0 and compatible \
            and not omega_cubed(omega).is_zero(
                scaled(tol, omega, omega, omega)):
        pair = _pair_structure(omega, sigma, k, lam, tol)
    c_val = coupling_constant(algebra, omega, sigma, tol=tol)
    half_flat = algebra.d(wedge(omega, omega)).is_zero(
        scaled(tol, omega, omega)) and \
        algebra.d(sigma).is_zero(scaled(tol, sigma))
    if c_val is not None and not half_flat:
        raise RuntimeError("coupled structure failed to be half-flat; "
                           "differential conventions are inconsistent")
    stable = pair is not None
    return SU3Verdict(stable=stable, compatible=compatible,
                      normalized=stable and pair.normalized,
                      positive=stable and pair.positive,
                      lambda_value=lam, coupled_c=c_val, half_flat=half_flat,
                      pair=pair)
