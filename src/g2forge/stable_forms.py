"""Stable 2- and 3-forms in dimension six and the structures they induce.

For a 3-form s the endomorphism K_s(w) = A((i_w s) ^ s) is expressed in
units of a reference volume form; its quartic invariant lambda = tr(K^2)/6
decides stability, and J = K / sqrt(|lambda|) is an almost complex
structure when lambda < 0.  A compatible stable pair (omega, sigma) then
induces the bilinear form h = omega(J., .).

Orientation matters: J flips sign with the orientation.  The metric of a
pair is computed in the orientation that makes omega^3 positive, which is
the one for which positive pairs give positive-definite h.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional

from . import linalg, scalars
from .exterior import (InnerProduct, KForm, Orientation, Vector, contract_basis,
                       pullback, wedge)
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


def k_endomorphism(sigma: KForm, orient: Optional[Orientation] = None
                   ) -> linalg.Matrix:
    """Matrix of w -> A((i_w sigma) ^ sigma) in units of the reference volume.

    A inverts the contraction pairing between vectors and 5-forms:
    A(gamma) = w with i_w(vol) = gamma.
    """
    n = sigma.dim
    if n != 6:
        raise ValueError("stable-form machinery lives in dimension 6")
    if orient is None:
        orient = Orientation.standard(6)
    v0 = orient.coefficient
    cols: List[List[Scalar]] = []
    full = tuple(range(1, 7))
    for j in range(1, 7):
        gamma = wedge(contract_basis(j, sigma), sigma)
        w = [Fraction(0)] * 6
        for idx, c in gamma.coeffs.items():
            (missing,) = set(full) - set(idx)
            sign = -1 if (missing - 1) % 2 else 1
            w[missing - 1] = (c * sign) / v0
        cols.append(w)
    return tuple(tuple(cols[j][i] for j in range(6)) for i in range(6))


def lambda_invariant(sigma: KForm, orient: Optional[Orientation] = None) -> Scalar:
    """tr(K^2)/6; quartic in the coefficients, negative on definite forms."""
    k = k_endomorphism(sigma, orient)
    total: Scalar = Fraction(0)
    for i in range(6):
        for j in range(6):
            total = total + k[i][j] * k[j][i]
    return total / 6 if not isinstance(total, Polynomial) else total / Fraction(6)


def almost_complex(sigma: KForm, orient: Optional[Orientation] = None
                   ) -> linalg.Matrix:
    """J = K / sqrt(-lambda); requires lambda < 0 in a numeric ring."""
    k = k_endomorphism(sigma, orient)
    lam = lambda_invariant(sigma, orient)
    if isinstance(lam, Polynomial):
        raise NotStableError("almost complex structure of a symbolic form "
                             "is not computed; evaluate lambda instead")
    if not lam < 0:
        raise NotStableError("lambda = %s is not negative" % (lam,))
    root = scalars.ssqrt(-lam)
    return tuple(tuple(x / root for x in row) for row in k)


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


def metric_from_pair(omega: KForm, sigma: KForm,
                     orient: Optional[Orientation] = None,
                     tol: float = 1e-10) -> StablePair:
    """Assemble the structure induced by a compatible stable pair.

    Checks stability of both forms and compatibility (omega ^ sigma = 0),
    then records whether the pair is normalized
    (J*sigma ^ sigma = (2/3) omega^3) and whether h is positive definite.
    """
    if omega.dim != 6 or sigma.dim != 6:
        raise ValueError("pairs live in dimension 6")
    if not wedge(omega, sigma).is_zero(tol):
        raise IncompatiblePairError("omega ^ sigma != 0")
    sign = orientation_sign(omega)
    if orient is None:
        orient = Orientation.standard(6)
    eff_orient = orient if sign > 0 else \
        Orientation(Fraction(-1) * orient.volume)
    lam = lambda_invariant(sigma, eff_orient)
    if isinstance(lam, Polynomial):
        raise NotStableError("symbolic pairs only get lambda computed")
    if not lam < 0:
        raise NotStableError("lambda = %s is not negative" % (lam,))
    j = almost_complex(sigma, eff_orient)
    # h(x, y) = omega(Jx, y)
    h_rows = []
    for i in range(1, 7):
        row = []
        jei = Vector(6, tuple(j[r][i - 1] for r in range(6)))
        for m in range(1, 7):
            total: Scalar = Fraction(0)
            for (p, q), c in omega.coeffs.items():
                xp = jei.components[p - 1]
                xq = jei.components[q - 1]
                if m == q and not is_zero(xp):
                    total = total + c * xp
                if m == p and not is_zero(xq):
                    total = total - c * xq
            row.append(total)
        h_rows.append(row)
    h_matrix = linalg.mat(h_rows)
    if not linalg.is_symmetric(h_matrix, tol):
        raise IncompatiblePairError("induced bilinear form is not symmetric; "
                                    "the 2-form is not of type (1,1) for J")
    jsigma = pullback(sigma, linalg.Compound(j))
    lhs = wedge(jsigma, sigma)
    rhs = omega_cubed(omega)
    normalized = (lhs - Fraction(2, 3) * rhs).is_zero(tol * 10)
    metric = InnerProduct(h_matrix)
    positive = metric.is_positive_definite(tol)
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


def coupling_constant(algebra: LieAlgebra, omega: KForm, sigma: KForm,
                      tol: float = 1e-10) -> Optional[Scalar]:
    """The unique nonzero c with d(omega) = c * sigma, if it exists."""
    domega = algebra.d(omega)
    if domega.is_zero(tol) or sigma.is_zero(tol):
        return None
    # pivot on the largest float coefficient of sigma, or on any exact one
    pivot_idx = max(sigma.coeffs, key=lambda idx: abs(sigma.coeffs[idx])
                    if isinstance(sigma.coeffs[idx], float) else 0.0)
    c_val = domega.coeffs.get(pivot_idx, Fraction(0)) / sigma.coeffs[pivot_idx]
    if is_zero(c_val, tol):
        return None
    if (domega - c_val * sigma).is_zero(tol):
        return c_val
    return None


def su3_predicates(algebra: LieAlgebra, omega: KForm, sigma: KForm,
                   tol: float = 1e-10) -> SU3Verdict:
    """Coupled / half-flat analysis of a pair on a six-dimensional algebra."""
    compatible = wedge(omega, sigma).is_zero(tol)
    lam = lambda_invariant(sigma)
    stable = False
    normalized = False
    positive = False
    if not isinstance(lam, Polynomial) and lam < 0 and compatible \
            and not omega_cubed(omega).is_zero(tol):
        stable = True
        pair = metric_from_pair(omega, sigma, tol=tol)
        normalized = pair.normalized
        positive = pair.positive
    c_val = coupling_constant(algebra, omega, sigma, tol=tol)
    half_flat = algebra.d(wedge(omega, omega)).is_zero(tol) and \
        algebra.d(sigma).is_zero(tol)
    if c_val is not None and not half_flat:
        raise RuntimeError("coupled structure failed to be half-flat; "
                           "differential conventions are inconsistent")
    return SU3Verdict(stable=stable, compatible=compatible,
                      normalized=normalized, positive=positive,
                      lambda_value=lam, coupled_c=c_val, half_flat=half_flat)
