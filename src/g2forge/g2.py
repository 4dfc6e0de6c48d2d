"""Positive 3-forms in dimension seven: induced metric, type decomposition,
intrinsic torsion, curvature formulas and the product construction from a
coupled pair on a six-dimensional factor.

The torsion forms are read off the type decompositions of *d(phi) and
*d(*phi), and checked by rebuilding d(*phi) from them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import chain
from typing import Dict, List, Optional, Tuple

from . import linalg, scalars
from .curvature import CurvatureTensors, curvature_tensors
from .exterior import (InnerProduct, KForm, Orientation, Vector,
                       basis_indices, codifferential, complement_sign,
                       contract, contract_basis, form_inner, hodge_star,
                       magnitude, pullback, scaled, wedge)
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

    @cached_property
    def kappa(self) -> float:
        """max|g| max|g^-1|: float rounding grows by it in the projections
        and stars of the type decomposition, and phi -> c^3 phi keeps it."""
        return magnitude(self.metric.matrix) * magnitude(self.metric.inverse)


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


def metric_from_phi(phi: KForm) -> G2Structure:
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
    # positivity test decide near-degenerate forms.  Exact tests ignore the
    # 1e-12; a float det B or bound past the float range decides nothing.
    b_tol = scaled(1e-12, b) if isinstance(det_b, float) else 0.0
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
    if not all(is_zero(x * v - y, b_tol)
               for gr, br in zip(g_rows, b) for x, y in zip(gr, br)):
        raise TorsionInconsistencyError("metric extraction failed the "
                                        "defining relation")
    star = hodge_star(phi, metric, volume)
    return G2Structure(phi=phi, metric=metric, volume=volume, star_phi=star,
                       orientation_sign=sign)


# ---------------------------------------------------------------------------
# type decomposition and torsion
# ---------------------------------------------------------------------------

def _project(a: KForm, family: KForm, g: InnerProduct, k: int
             ) -> Tuple[KForm, Vector]:
    """The g-orthogonal projection i(X) family of a onto the contractions
    i_X family, and X.  For family = phi (k = 3) or *phi (k = 4) their Gram
    matrix is <i_i family, i_j family> = k g_ij (Bryant, *Some remarks on
    G2-structures*, 2.6; |phi|^2 = 7), so X = g^-1 r / k for the 7 inner
    products r_i = <i_i family, a>."""
    r = [form_inner(contract_basis(i, family), a, g) for i in range(1, 8)]
    x = Vector(7, tuple(sum(y * z for y, z in zip(row, r)) / k
                        for row in g.inverse))
    return contract(x, family), x


def _type_relation(a: KForm, rest: KForm, forms: Tuple[KForm, ...],
                   s: G2Structure, tol: float, name: str) -> KForm:
    """``rest``, what is left of a after its other parts, once it wedges to
    zero with each of ``forms`` within scaled(tol, g, g^-1, a, form) =
    kappa tol max|a| max|form| (see ``G2Structure.kappa``).  The bound
    reads a and form, not the wedge: its true value is 0, and a bound from
    it collapses to rounding size on input of pure type."""
    if not all(wedge(rest, f).is_zero(scaled(tol * s.kappa, a, f))
               for f in forms):
        raise TorsionInconsistencyError(
            "%s-part failed its defining relation" % name)
    return rest


def two_form_components(a: KForm, s: G2Structure, tol: float = 1e-10
                        ) -> Tuple[Dict[str, KForm], Vector]:
    """Split a 2-form a = i(X) phi + (14-part) into its parts in
    Lambda^2_7 + Lambda^2_14, with X.  The 14-part is the g-orthogonal
    complement and wedges to zero against *phi."""
    if a.degree != 2:
        raise ValueError("expected a 2-form")
    p7, x = _project(a, s.phi, s.metric, 3)
    p14 = _type_relation(a, a - p7, (s.star_phi,), s, tol, "14")
    return {"7": p7, "14": p14}, x


def three_form_components(a: KForm, s: G2Structure, tol: float = 1e-10
                          ) -> Tuple[Dict[str, KForm], Scalar, Vector]:
    """Split a 3-form a = t phi + i(X) *phi + (27-part) into its parts in
    Lambda^3_1 + Lambda^3_7 + Lambda^3_27, with t and X.  The 27-part
    wedges to zero against phi and *phi."""
    if a.degree != 3:
        raise ValueError("expected a 3-form")
    g = s.metric
    t = form_inner(a, s.phi, g) / form_inner(s.phi, s.phi, g)
    p1 = t * s.phi
    p7, x = _project(a, s.star_phi, g, 4)
    p27 = _type_relation(a, a - p1 - p7, (s.phi, s.star_phi), s, tol, "27")
    return {"1": p1, "7": p7, "27": p27}, t, x


def two_form_14_basis(s: G2Structure) -> List[KForm]:
    """Exact basis of the 14-dimensional piece: kernel of beta ^ *phi."""
    idx2 = basis_indices(7, 2)
    wedges = [wedge(KForm(7, 2, {i2: Fraction(1)}), s.star_phi).coeffs
              for i2 in idx2]
    rows = [[w.get(i6, Fraction(0)) for w in wedges]
            for i6 in basis_indices(7, 6)]
    kernel = linalg.nullspace(linalg.mat(rows), 1e-10)
    return [KForm(7, 2, dict(zip(idx2, v))) for v in kernel]


def torsion_forms(algebra: LieAlgebra, phi: KForm,
                  structure: Optional[G2Structure] = None,
                  tol: float = 1e-10) -> TorsionForms:
    """Unique (tau0, tau1, tau2, tau3) with

        d phi   = tau0 * (*phi) + 3 tau1 ^ phi + *tau3,
        d *phi  = 4 tau1 ^ (*phi) + tau2 ^ phi,

    for tau2 in Lambda^2_14 and tau3 in Lambda^3_27 (Bryant, 2005).  The
    star of the standard orientation has *(alpha ^ phi) = -i(alpha#) *phi,
    *(alpha ^ *phi) = i(alpha#) phi and *(beta ^ phi) = -sigma beta on
    Lambda^2_14, for the ``orientation_sign`` sigma.  So

        *d phi  = tau0 phi - 3 i(tau1#) *phi + tau3,
        *d *phi = 4 i(tau1#) phi - sigma tau2,

    and the torsion is read off the splits of these two stars: tau0 and
    tau3 are the 1-coefficient and the 27-part of *d phi, tau1 = -g X3 / 3
    for the vector X3 of its 7-part, which must agree with g X2 / 4 from
    *d *phi, and tau2 is -sigma times the 14-part of *d *phi.  d *phi is
    rebuilt from tau1 and tau2, which pins the sign.  A float zero test is
    bounded by kappa tol times the largest term of its split or equation,
    so the class does not change under phi -> c^3 phi.
    """
    if algebra.dim != 7:
        raise ValueError("torsion analysis lives on 7-dimensional algebras")
    s = structure if structure is not None else metric_from_phi(phi)
    g, orient, star_phi = s.metric, s.volume, s.star_phi
    dstar = algebra.d(star_phi)
    star_dphi = hodge_star(algebra.d(phi), g, orient)
    star_dstar = hodge_star(dstar, g, orient)
    parts3, tau0, x3 = three_form_components(star_dphi, s, tol)
    parts2, x2 = two_form_components(star_dstar, s, tol)
    kappa_tol = tol * s.kappa
    t3 = kappa_tol * magnitude(star_dphi, *parts3.values())
    t2 = kappa_tol * magnitude(star_dstar, *parts2.values())
    # the 7-part of *d phi is -3 i(tau1#) *phi = -3/4 i(X2) *phi
    agree = parts3["7"] + Fraction(3, 4) * contract(x2, star_phi)
    if not agree.is_zero(t3):
        raise TorsionInconsistencyError(
            "tau1 from d(phi) and d(*phi) disagree")
    tau1 = KForm(7, 1, {(i,): -sum(y * z for y, z in zip(row, x3.components))
                        / 3 for i, row in enumerate(g.matrix, 1)})
    tau2 = -s.orientation_sign * parts2["14"]
    terms5 = (4 * wedge(tau1, star_phi), wedge(tau2, phi))
    if not (terms5[0] + terms5[1] - dstar).is_zero(
            kappa_tol * magnitude(dstar, *terms5)):
        raise TorsionInconsistencyError("torsion reconstruction failed")
    z0, z1, z3 = (parts3[k].is_zero(t3) for k in ("1", "7", "27"))
    z2 = parts2["14"].is_zero(t2)
    if not (z0 and z3):
        label = CLASS_GENERIC
    elif z1:
        label = CLASS_PARALLEL if z2 else CLASS_CALIBRATED
    else:
        label = CLASS_LCP if z2 else CLASS_LCC
    return TorsionForms(tau0=tau0, tau1=tau1, tau2=tau2, tau3=parts3["27"],
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
    orthonormal coframe this is R_{ijkl} phi_{ijs} phi_{klm}.  Both pairs
    are antisymmetric, so the sum is 4 times its part at i<j and k<l, where
    ``tensors.lowered`` holds R.  ``tensors`` reuses the curvature of m.
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
    # up[(i, j)][t] = du phi^{ij}_t, i < j
    up: Dict[Tuple[int, int], Dict[int, Scalar]] = {}
    for t, r in enumerate(raised, start=1):
        for ij, c in zip(r, nums):
            up.setdefault(ij, {})[t] = c
    # A_{kl,s} = R_{ijkl} phi^{ij}_s, then rho*_{sm} / 4 = A_{kl,s} phi^{kl}_m
    # on integers over dr du^2 for exact R and phi
    dr, riemann = tensors.lowered
    contracted: Dict[Tuple[int, int], Dict[int, Scalar]] = {}
    for (i, j, k, l), r in riemann.items():
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
    matrix = tuple(tuple(linalg.over(4 * x, den) for x in row) for row in rows)
    trace: Scalar = sum((ginv[i][j] * matrix[i][j] for i in range(n)
                         for j in range(n) if not is_zero(ginv[i][j])),
                        Fraction(0))
    rho_tol = scaled(tol, matrix)
    symmetric = linalg.is_symmetric(matrix, rho_tol)
    star_einstein = all(
        is_zero(matrix[i][j] - trace / n * g[i][j], rho_tol)
        for i in range(n) for j in range(n))
    return StarRicci(matrix=matrix, trace=trace, star_einstein=star_einstein,
                     symmetric=symmetric)


def product_g2(pair: StablePair, ext: LieAlgebra
               ) -> Tuple[KForm, G2Structure]:
    """phi = omega ^ e7 + sigma on a rank-one extension with closed e7.

    The pair must be coupled on the six-dimensional factor, the first six
    directions of ext; the caller analyzes the result with torsion_forms.
    """
    if ext.dim != 7:
        raise ValueError("extension must be 7-dimensional")
    if ext.d_coframe[6].coeffs:
        raise ValueError("the new coframe direction must be closed")
    if coupling_constant(restrict(ext, 6), pair.omega, pair.sigma) is None:
        raise ValueError("the pair is not coupled on the base algebra")
    lift_omega = KForm(7, 2, dict(pair.omega.coeffs))
    lift_sigma = KForm(7, 3, dict(pair.sigma.coeffs))
    e7 = KForm(7, 1, {(7,): Fraction(1)})
    phi = wedge(lift_omega, e7) + lift_sigma
    return phi, metric_from_phi(phi)
