"""Positive 3-forms in dimension seven: induced metric, type decomposition,
intrinsic torsion, curvature formulas and the product construction from a
coupled pair on a six-dimensional factor.

Torsion forms are extracted by orthogonal projection onto the irreducible
pieces of the 4- and 5-form decompositions, by their closed-form Gram
matrices, then validated by exact reconstruction of d(phi) and d(*phi).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Dict, List, Optional, Tuple

from . import linalg, scalars
from .curvature import CurvatureTensors, curvature_tensors
from .exterior import (InnerProduct, KForm, Orientation, basis_indices,
                       codifferential, complement_sign, contract_basis,
                       form_inner, hodge_star, magnitude, pullback, scaled,
                       vec_to_form, wedge)
from .liealg import LieAlgebra, MetricLieAlgebra, restrict
from .scalars import Polynomial, Scalar, is_zero
from .stable_forms import StablePair, coupling_constant


class NotPositiveError(ValueError):
    """The 3-form does not induce a positive-definite metric."""


class TorsionInconsistencyError(RuntimeError):
    """The torsion systems failed to close; conventions or input are broken."""


class MetricMismatchError(ValueError):
    pass


CLASS_PARALLEL = "parallel"
CLASS_CALIBRATED = "calibrated"
CLASS_LCC = "locally_conformal_calibrated"
CLASS_LCP = "locally_conformal_parallel"
CLASS_GENERIC = "generic"


@dataclass(frozen=True)
class G2Structure:
    """Metric data of a positive 3-form.

    ``volume`` is the g-volume in the standard coframe orientation (the
    convention under which the published torsion values are stated);
    ``orientation_sign`` records whether the form itself induces that
    orientation (+1) or the reversed one (-1).
    """

    phi: KForm
    metric: InnerProduct
    volume: Orientation
    star_phi: KForm
    orientation_sign: int = 1


@dataclass(frozen=True)
class TorsionForms:
    tau0: Scalar
    tau1: KForm
    tau2: KForm
    tau3: KForm
    class_label: str


@dataclass(frozen=True)
class StarRicci:
    matrix: linalg.Matrix
    trace: Scalar
    star_einstein: bool
    symmetric: bool


def b_form(phi: KForm) -> linalg.Matrix:
    """B(X,Y) = (1/6) i_X phi ^ i_Y phi ^ phi, in units of e^{1..7}: each
    2-index of i_X phi pairs with its signed complement in the 5-form
    i_Y phi ^ phi, on integers over one denominator for exact phi."""
    if phi.dim != 7 or phi.degree != 3:
        raise ValueError("b_form expects a 3-form in dimension 7")
    contractions = [contract_basis(i, phi) for i in range(1, 8)]
    fives = [wedge(c, phi) for c in contractions]
    den, nums = linalg.clear(chain.from_iterable(
        f.coeffs.values() for f in contractions + fives))
    nums = iter(nums)
    lefts = [[(complement_sign(idx, 7), x) for idx, x in zip(c.coeffs, nums)]
             for c in contractions]
    rights = [dict(zip(f.coeffs, nums)) for f in fives]
    rows: List[List[Scalar]] = []
    for i, left in enumerate(lefts):
        rows.append([rows[j][i] if j < i else linalg.over(sum(
            sign * x * w[comp] for (sign, comp), x in left if comp in w),
            6 * den * den) for j, w in enumerate(rights)])
    return linalg.mat(rows)


def metric_from_phi(phi: KForm, tol: float = 1e-12) -> G2Structure:
    """Extract (g, dV, *phi) from a positive 3-form.

    g = B det(B)^(-1/9) in the reference coframe; the defining relation
    g(X,Y) dV = (1/6) i_X phi ^ i_Y phi ^ phi is then verified exactly.
    """
    b = b_form(phi)
    minors = linalg.Compound(b)
    det_b = minors.det()
    if isinstance(det_b, Polynomial):
        if not det_b.is_constant():
            raise NotPositiveError("symbolic 3-forms are not supported here")
        det_b = det_b.constant_value()
    # float zero tests are relative to the size of B: phi -> c^3 phi scales
    # B by c^9 and det B by c^63.  det B only has to be told from 0 here (a
    # dense B may have |det B| far below max|B|^7); the eigenvalues in the
    # positivity test decide near-degenerate forms.  Exact tests ignore tol;
    # a float det B or tolerance past the float range (inf) decides nothing.
    b_tol = scaled(tol, b) if isinstance(det_b, float) else 0.0
    det_tol = math.prod([b_tol] * 7)
    if isinstance(det_b, float) and not math.isfinite(det_b + det_tol):
        raise OverflowError("det B of phi is past the float range")
    if is_zero(det_b, det_tol):
        raise NotPositiveError("degenerate 3-form: det B = 0")
    # det B = v^9 with v of either sign: the form picks its own orientation.
    # 9 is odd, so sign(v) = sign(det B) and g = B/v > 0 iff sign * B > 0:
    # positivity is decided before an irrational v can raise ExactnessError.
    sign = 1 if det_b > 0 else -1
    if not linalg.is_positive_definite(b, b_tol, sign, minors):
        raise NotPositiveError("B form is not positive definite")
    v = scalars.snth_root(det_b, 9)
    g_rows = tuple(tuple(x / v for x in row) for row in b)
    metric = InnerProduct(g_rows)
    volume = Orientation(KForm(7, 7, {tuple(range(1, 8)): abs(v)}))
    # defining relation, checked on all 49 basis pairs: g * v == B with the
    # signed volume coefficient
    for i in range(7):
        for j in range(7):
            if not is_zero(g_rows[i][j] * v - b[i][j], b_tol):
                raise TorsionInconsistencyError("metric extraction failed "
                                                "the defining relation")
    star = hodge_star(phi, metric, volume)
    return G2Structure(phi=phi, metric=metric, volume=volume, star_phi=star,
                       orientation_sign=sign)


# ---------------------------------------------------------------------------
# projections onto irreducible pieces
# ---------------------------------------------------------------------------

def _project(target: KForm, basis: List[KForm], g: InnerProduct,
             m: linalg.Matrix, k: int) -> Tuple[KForm, List[Scalar]]:
    """g-orthogonal projection of target onto a family of 7 forms whose Gram
    matrix is k m^-1 (see ``torsion_forms``): the coefficients are m r / k
    for the inner products r of the family with target."""
    r = [form_inner(b, target, g) for b in basis]
    coeffs = [sum(x * y for x, y in zip(row, r)) / k for row in m]
    return sum((c * f for c, f in zip(coeffs, basis)),
               KForm.zero(target.dim, target.degree)), coeffs


def two_form_components(a: KForm, s: G2Structure, tol: float = 1e-10
                        ) -> Dict[str, KForm]:
    """Split a 2-form into the 7- and 14-dimensional pieces.

    The 7-part is spanned by contractions i_X phi; the 14-part is the
    g-orthogonal complement and wedges to zero against *phi.
    """
    if a.degree != 2:
        raise ValueError("expected a 2-form")
    basis7 = [contract_basis(i, s.phi) for i in range(1, 8)]
    p7, _ = _project(a, basis7, s.metric, s.metric.inverse, 3)
    if not _type_relation(a, p7, s.star_phi, s.metric, tol):
        raise TorsionInconsistencyError("14-part failed its defining relation")
    return {"7": p7, "14": a - p7}


def three_form_components(a: KForm, s: G2Structure, tol: float = 1e-10
                          ) -> Dict[str, KForm]:
    """Split a 3-form into the 1-, 7- and 27-dimensional pieces."""
    if a.degree != 3:
        raise ValueError("expected a 3-form")
    g = s.metric
    phi_norm = form_inner(s.phi, s.phi, g)
    p1 = (form_inner(a, s.phi, g) / phi_norm) * s.phi
    basis7 = [contract_basis(i, s.star_phi) for i in range(1, 8)]
    p7, _ = _project(a, basis7, g, g.inverse, 4)
    if not _type_relation(a, p1 + p7, s.phi, g, tol) or \
            not _type_relation(a, p1 + p7, s.star_phi, g, tol):
        raise TorsionInconsistencyError("27-part failed its defining relations")
    return {"1": p1, "7": p7, "27": a - p1 - p7}


def _type_relation(a: KForm, part: KForm, form: KForm, g: InnerProduct,
                   tol: float) -> bool:
    """(a - part) ^ form = 0, tested as a ^ form = part ^ form within
    kappa tol times the larger side, for kappa = max|g| max|g^-1| (see
    ``torsion_forms``)."""
    lhs, rhs = wedge(a, form), wedge(part, form)
    return (lhs - rhs).is_zero(scaled(tol, g.matrix, g.inverse)
                               * magnitude(lhs, rhs))


def two_form_14_basis(s: G2Structure, tol: float = 1e-10) -> List[KForm]:
    """Exact basis of the 14-dimensional piece: kernel of beta ^ *phi."""
    idx2 = basis_indices(7, 2)
    wedges = [wedge(KForm(7, 2, {i2: Fraction(1)}), s.star_phi).coeffs
              for i2 in idx2]
    rows = [[w.get(i6, Fraction(0)) for w in wedges]
            for i6 in basis_indices(7, 6)]
    kernel = linalg.nullspace(linalg.mat(rows), tol)
    return [vec_to_form(7, 2, v, idx2) for v in kernel]


# ---------------------------------------------------------------------------
# torsion
# ---------------------------------------------------------------------------

def torsion_forms(algebra: LieAlgebra, phi: KForm,
                  structure: Optional[G2Structure] = None,
                  tol: float = 1e-10) -> TorsionForms:
    """Unique (tau0, tau1, tau2, tau3) with

        d phi   = tau0 * (*phi) + 3 tau1 ^ phi + *tau3,
        d *phi  = 4 tau1 ^ (*phi) + tau2 ^ phi,

    where tau2 wedges to zero with *phi and tau3 wedges to zero with both
    phi and *phi.  Projections use the Gram matrices (Bryant, Some remarks
    on G2-structures, 2.6; |phi|^2 = 7)

        <e^i ^ phi, e^j ^ phi> = 4 g^ij,   <e^i ^ *phi, e^j ^ *phi> = 3 g^ij,
        <i_i phi, i_j phi>     = 3 g_ij,   <i_i *phi, i_j *phi>     = 4 g_ij,

    and tau1 is read from both equations, which must agree.  On the
    14-dimensional piece *(beta ^ phi) = -beta in the orientation of phi;
    the star here is taken in the standard one, so tau2 = -sigma *
    (d *phi - 4 tau1 ^ *phi) for the ``orientation_sign`` sigma.  The types
    of tau2 and tau3 and both identities are re-checked.  A float zero test
    is bounded by the equation it belongs to, so the class does not change
    under phi -> c^3 phi.
    """
    if algebra.dim != 7:
        raise ValueError("torsion analysis lives on 7-dimensional algebras")
    s = structure if structure is not None else metric_from_phi(phi)
    g, orient, star_phi = s.metric, s.volume, s.star_phi
    dphi = algebra.d(phi)
    dstar = algebra.d(star_phi)
    coframe = [KForm(7, 1, {(i,): Fraction(1)}) for i in range(1, 8)]
    # float zero tests: each is bounded by the terms of its own equation,
    # times kappa = max|g| max|g^-1|, which phi -> c^3 phi keeps and by which
    # rounding grows in the projections and stars.  A bound on a k-form is
    # carried through its star by sqrt(det g) max|g^-1|^k.
    ginv, root_det = magnitude(g.inverse), magnitude(orient.volume)
    kappa_tol = scaled(tol, g.matrix) * ginv

    # --- 4-form equation ---------------------------------------------------
    tau0 = form_inner(dphi, star_phi, g) / form_inner(star_phi, star_phi, g)
    tau0_part = tau0 * star_phi
    basis47 = [wedge(e, phi) for e in coframe]
    p47, coeffs47 = _project(dphi, basis47, g, g.matrix, 4)
    tau1 = KForm(7, 1, {(i,): c / 3 for i, c in enumerate(coeffs47, 1)})
    star_tau3 = dphi - tau0_part - p47
    tau3 = hodge_star(star_tau3, g, orient)
    t4 = kappa_tol * magnitude(dphi, tau0_part, p47, star_tau3)
    tau3_tol = t4 * root_det * ginv ** 4
    if not wedge(tau3, phi).is_zero(scaled(tau3_tol, phi)) or \
            not wedge(tau3, star_phi).is_zero(scaled(tau3_tol, star_phi)):
        raise TorsionInconsistencyError("tau3 escaped the 27-dimensional type")

    # --- 5-form equation ---------------------------------------------------
    basis57 = [wedge(e, star_phi) for e in coframe]
    p57, coeffs57 = _project(dstar, basis57, g, g.matrix, 3)
    tau2_phi = dstar - p57
    t5 = kappa_tol * magnitude(dstar, p57, tau2_phi)
    tau1_bis = KForm(7, 1, {(i,): c / 4 for i, c in enumerate(coeffs57, 1)})
    if not (3 * wedge(tau1 - tau1_bis, phi)).is_zero(t4):
        raise TorsionInconsistencyError(
            "tau1 from d(phi) and d(*phi) disagree")
    tau2 = -s.orientation_sign * hodge_star(tau2_phi, g, orient)
    if not wedge(tau2, star_phi).is_zero(
            scaled(t5 * root_det * ginv ** 5, star_phi)):
        raise TorsionInconsistencyError("tau2 escaped the 14-dimensional type")

    # --- exact reconstruction ------------------------------------------------
    recon4 = tau0_part + 3 * wedge(tau1, phi) + star_tau3
    recon5 = 4 * wedge(tau1, star_phi) + wedge(tau2, phi)
    if not (recon4 - dphi).is_zero(t4) or not (recon5 - dstar).is_zero(t5):
        raise TorsionInconsistencyError("torsion reconstruction failed")

    # the class tests the pieces tau0 *phi, 3 tau1 ^ phi, *tau3 and
    # tau2 ^ phi of the two equations
    z0, z1, z3 = (x.is_zero(t4) for x in (tau0_part, p47, star_tau3))
    if not (z0 and z3):
        label = CLASS_GENERIC
    elif z1:
        label = CLASS_PARALLEL if tau2_phi.is_zero(t5) else CLASS_CALIBRATED
    else:
        label = CLASS_LCP if tau2_phi.is_zero(t5) else CLASS_LCC
    return TorsionForms(tau0=tau0, tau1=tau1, tau2=tau2, tau3=tau3,
                        class_label=label)


def scalar_curvature_from_torsion(t: TorsionForms, s: G2Structure,
                                  algebra: LieAlgebra) -> Scalar:
    """Scal = 12 delta(tau1) + 30 |tau1|^2 - (1/2) |tau2|^2.

    Valid whenever tau0 and tau3 vanish (conformally calibrated classes,
    with the calibrated case tau1 = 0 included).
    """
    if t.class_label == CLASS_GENERIC:
        raise ValueError("no closed-form scalar curvature for generic torsion")
    g, orient = s.metric, s.volume
    delta_tau1 = codifferential(t.tau1, algebra.d, g, orient)
    dt1 = delta_tau1.coeffs.get((), Fraction(0))
    norm1 = form_inner(t.tau1, t.tau1, g)
    norm2 = form_inner(t.tau2, t.tau2, g)
    return 12 * dt1 + 30 * norm1 - Fraction(1, 2) * norm2


def star_ricci(m: MetricLieAlgebra, phi: KForm,
               structure: Optional[G2Structure] = None,
               tol: float = 1e-10,
               tensors: Optional[CurvatureTensors] = None) -> StarRicci:
    """rho*_{sm} = R_{ijkl} phi^{ij}_s phi^{kl}_m, with the star-Einstein
    verdict on its traceless part.

    The first two indices of phi are raised with g^-1: phi^{..}_s is the
    pullback of i_{e_s} phi by the minors of g^-1 (``exterior.pullback``).
    So rho* is a bilinear form like g, on any coframe: ``trace`` is
    tr(g^-1 rho*) and star-Einstein means rho* = (trace/7) g.  In an
    orthonormal coframe this is R_{ijkl} phi_{ijs} phi_{klm}.  ``tensors``
    reuses the curvature of m when the caller has it.
    """
    s = structure if structure is not None else metric_from_phi(phi)
    if not all(scalars.eq(a, b, tol)
               for ra, rb in zip(s.metric.matrix, m.metric.matrix)
               for a, b in zip(ra, rb)):
        raise MetricMismatchError("phi does not induce the supplied metric")
    if tensors is None:
        tensors = curvature_tensors(m)
    g, ginv = m.metric.matrix, m.metric.inverse
    n = 7
    raised = [pullback(contract_basis(t, phi), m.metric.minors).coeffs
              for t in range(1, n + 1)]
    du, nums = linalg.clear(c for r in raised for c in r.values())
    nums = iter(nums)
    # up[(i, j)][t] = du phi^{ij}_t, for both orders of (i, j)
    up: Dict[Tuple[int, int], Dict[int, Scalar]] = {}
    for t, r in enumerate(raised, start=1):
        for (i, j), c in zip(r, nums):
            up.setdefault((i, j), {})[t] = c
            up.setdefault((j, i), {})[t] = -c
    # A_{kl,s} = R_{ijkl} phi^{ij}_s, then rho*_{sm} = A_{kl,s} phi^{kl}_m,
    # on integers over dr du^2 for exact R and phi
    dr, riemann = linalg.clear(tensors.riemann.values())
    contracted: Dict[Tuple[int, int], Dict[int, Scalar]] = {}
    for (i, j, k, l), r in zip(tensors.riemann, riemann):
        for ss, c in up.get((i, j), {}).items():
            row = contracted.setdefault((k, l), {})
            row[ss] = row.get(ss, 0) + r * c
    # the ring's zero: 0.0 for a float metric, int 0 on the exact path
    zero = 0.0 if isinstance(linalg.ring_zero(g), float) else 0
    rows = [[zero] * n for _ in range(n)]
    for kl, row in contracted.items():
        for mm, c2 in up.get(kl, {}).items():
            for ss, c1 in row.items():
                rows[ss - 1][mm - 1] = rows[ss - 1][mm - 1] + c1 * c2
    den = dr * du * du
    matrix = tuple(tuple(linalg.over(x, den) for x in row) for row in rows)
    trace: Scalar = Fraction(0)
    for i in range(n):
        for j in range(n):
            if not is_zero(ginv[i][j]):
                trace = trace + ginv[i][j] * matrix[i][j]
    rho_tol = scaled(tol, matrix)
    symmetric = linalg.is_symmetric(matrix, rho_tol)
    star_einstein = all(
        is_zero(matrix[i][j] - trace / n * g[i][j], rho_tol)
        for i in range(n) for j in range(n))
    return StarRicci(matrix=matrix, trace=trace, star_einstein=star_einstein,
                     symmetric=symmetric)


def product_g2(pair: StablePair, ext: LieAlgebra,
               base: Optional[LieAlgebra] = None,
               tol: float = 1e-10) -> Tuple[KForm, G2Structure]:
    """phi = omega ^ e7 + sigma on a rank-one extension with closed e7.

    The pair must be coupled on the six-dimensional factor; the caller
    analyzes the result with torsion_forms.
    """
    if ext.dim != 7:
        raise ValueError("extension must be 7-dimensional")
    if ext.d_coframe[6].coeffs:
        raise ValueError("the new coframe direction must be closed")
    if base is None:
        base = restrict(ext, 6)
    c = coupling_constant(base, pair.omega, pair.sigma, tol=tol)
    if c is None:
        raise ValueError("the pair is not coupled on the base algebra")
    lift_omega = KForm(7, 2, dict(pair.omega.coeffs))
    lift_sigma = KForm(7, 3, dict(pair.sigma.coeffs))
    e7 = KForm(7, 1, {(7,): Fraction(1)})
    phi = wedge(lift_omega, e7) + lift_sigma
    return phi, metric_from_phi(phi)
