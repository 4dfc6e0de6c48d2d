"""Symbolic lambda survey over the nilpotent catalog and the sampling
versions of the two obstruction arguments.

For each algebra the generic 2-form omega = b_1 e^12 + ... + b_15 e^56
and sigma = c d(omega) produce an exact quartic lambda polynomial; its
sign is certified either by an explicit scaled-square decomposition or by
a pair of rational witnesses with opposite strict signs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, product as iter_product
from random import Random
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import catalog
from .exterior import KForm
from .liealg import LieAlgebra, render_structure_equations
from .sampling import PAIR_COL, PAIR_ROW, StableFormSampler
from .scalars import Polynomial, _mono_div, poly_sqrt
from .stable_forms import lambda_invariant

SIGN_NONNEG = "nonneg"
SIGN_NONPOS = "nonpos"
SIGN_ZERO = "zero"
SIGN_INDEFINITE = "indefinite"


class NoCertificateError(RuntimeError):
    """The sign pattern matcher found neither a square nor witnesses."""


class ObstructionFailure(AssertionError):
    """A sampled trial contradicted the expected no-go behaviour."""

    def __init__(self, message: str):
        super().__init__("%s -- escalate, do not suppress" % message)


@dataclass(frozen=True)
class Certificate:
    kind: str                      # "zero" | "scaled_square" | "witness_pair"
    factor: Optional[Fraction] = None
    root: Optional[Polynomial] = None
    positive_witness: Optional[Dict[str, Fraction]] = None
    negative_witness: Optional[Dict[str, Fraction]] = None


@dataclass(frozen=True)
class SurveyRow:
    algebra_name: str
    structure_equations: str
    lambda_poly: Polynomial
    sign_class: str
    certificate: Certificate


def generic_form(degree: int, prefix: str) -> KForm:
    """The 6-dimensional form with symbolic coefficients prefix1, prefix2,
    ... in lexicographic index order: generic_form(2, "b") is
    b1 e^12 + b2 e^13 + ... + b15 e^56."""
    return KForm(6, degree, {
        idx: Polynomial.variable("%s%d" % (prefix, i))
        for i, idx in enumerate(combinations(range(1, 7), degree), start=1)})


def generic_lambda(algebra: LieAlgebra) -> Polynomial:
    """lambda of sigma = c d(omega) for the generic omega, as an exact
    quartic: K is quadratic in sigma, so lambda(c s) = c^4 lambda(s), and
    the product with c^4 is made once, on lambda(d omega)."""
    if algebra.dim != 6:
        raise ValueError("the survey runs on six-dimensional algebras")
    if algebra.is_float_ring():
        raise ValueError("generic lambda needs exact structure constants")
    return Polynomial.variable("c") ** 4 * lambda_invariant(
        algebra.d(generic_form(2, "b")))


def _strip_c4(p: Polynomial) -> Polynomial:
    """Divide by c^4, which divides every survey polynomial exactly; the
    quotient's monomials stay in canonical variable order."""
    terms = {}
    for m, coeff in p.terms.items():
        if dict(m).get("c", 0) != 4:
            raise NoCertificateError("polynomial is not c^4 times a b-form")
        terms[_mono_div(m, (("c", 4),))] = coeff
    return Polynomial(terms)


def _witness_search(p: Polynomial, variables: Sequence[str]
                    ) -> Optional[Tuple[Dict[str, Fraction], Dict[str, Fraction]]]:
    values = [Fraction(v) for v in (-2, -1, 0, 1, 2)]
    pos = neg = None
    for combo in iter_product(values, repeat=len(variables)):
        assignment = dict(zip(variables, combo))
        assignment["c"] = Fraction(1)
        val = p.evaluate(assignment)
        if val > 0 and pos is None:
            pos = dict(assignment)
        elif val < 0 and neg is None:
            neg = dict(assignment)
        if pos is not None and neg is not None:
            return pos, neg
    return None


def sign_certificate(p: Polynomial) -> Tuple[str, Certificate]:
    """Certify the sign class of a survey polynomial.

    nonneg / nonpos come with p = factor * c^4 * root^2; indefinite comes
    with two explicit rational assignments of opposite strict sign.
    """
    if p.is_zero():
        return SIGN_ZERO, Certificate(kind="zero")
    q = _strip_c4(p)
    _, lead = q.leading_term()
    scaled = q / lead
    root = poly_sqrt(scaled)
    if root is not None:
        sign_class = SIGN_NONNEG if lead > 0 else SIGN_NONPOS
        return sign_class, Certificate(kind="scaled_square", factor=lead,
                                       root=root)
    witnesses = _witness_search(p, q.variables)
    if witnesses is not None:
        pos, neg = witnesses
        return SIGN_INDEFINITE, Certificate(kind="witness_pair",
                                            positive_witness=pos,
                                            negative_witness=neg)
    raise NoCertificateError("no sign certificate found for %s" % p)


def build_table() -> List[SurveyRow]:
    rows = []
    for name in catalog.TABLE_ORDER:
        algebra = catalog.algebra(name)
        lam = generic_lambda(algebra)
        sign_class, cert = sign_certificate(lam)
        rows.append(SurveyRow(
            algebra_name=name,
            structure_equations=render_structure_equations(algebra),
            lambda_poly=lam,
            sign_class=sign_class,
            certificate=cert))
    return rows


def sign_partition(rows: Sequence[SurveyRow]) -> Dict[str, int]:
    counts = {SIGN_NONNEG: 0, SIGN_NONPOS: 0, SIGN_ZERO: 0, SIGN_INDEFINITE: 0}
    for row in rows:
        counts[row.sign_class] += 1
    return counts


# ---------------------------------------------------------------------------
# obstruction sampling
# ---------------------------------------------------------------------------

# the quartic lambda on the first obstruction algebra involves only
# b12..b15, so compatibility may be imposed by moving four of b1..b11
# without touching lambda or the predicted null vector
_ADJUSTABLE = tuple(range(11))
_B12, _B13, _B14, _B15 = 11, 12, 13, 14

# the fixed bounds of the two samplers; --tol does not reach them
N4_NULL_BOUND = 1e-9
N9_RESIDUAL_TOL = 1e-9
N9_LAMBDA_CUT = -1e-6


@dataclass(frozen=True)
class NullVectorTrial:
    seed_b: Tuple[float, ...]
    coupling: float
    lambda_value: float
    one_one_residual: float
    null_value: float
    min_eigenvalue: float


@dataclass(frozen=True)
class NullVectorReport:
    trials: int
    seed: int
    confirmed: int
    resampled: int
    max_null_value: float
    max_one_one_residual: float
    trials_detail: Tuple[NullVectorTrial, ...] = field(repr=False, default=())

    @property
    def all_confirmed(self) -> bool:
        return self.confirmed == self.trials


def draw_admissible_coefficients(rng: Random) -> Tuple[List[Fraction], Fraction, int]:
    """Rational draw with c != 0, b15 != 0 and b15(b12+b13) > b14^2 (so
    lambda < 0).

    Each of b1..b15, then c, is p/q with p uniform in -6..6, drawn before
    q uniform in 1..4.  The tests run on the integers, the inequality
    multiplied through by q12 q13 q14^2 q15 > 0, and Fractions are built
    for the accepted draw only.  Rejected draws are resampled; the
    rejection count is reported.
    """
    rejected = 0
    while True:
        pq = [(rng.randrange(13) - 6, rng.randrange(4) + 1)
              for _ in range(16)]
        (p12, q12), (p13, q13), (p14, q14), (p15, q15) = pq[_B12:_B15 + 1]
        if (pq[15][0] != 0 and p15 != 0
                and p15 * (p12 * q13 + p13 * q12) * q14 * q14
                > p14 * p14 * q12 * q13 * q15):
            *b, c = (Fraction(p, q) for p, q in pq)
            return b, c, rejected
        rejected += 1


def n4_obstruction_sample(trials: int, seed: int) -> NullVectorReport:
    """Sampled version of the degenerate-metric argument on the first
    obstruction algebra.

    Each trial draws admissible rational coefficients and imposes the
    type-(1,1) condition omega(J., J.) = omega, which for negatively
    stable sigma is the compatibility omega ^ sigma = 0, by a Newton
    adjustment of four of b1..b11.  Those coefficients never enter the
    quartic lambda, so the drawn sign of lambda and the predicted null
    vector v = e4 - (b14/b15) e5 + (b13/b15) e6 are untouched.  Every
    trial must end with |h(v,v)| and the residual at most
    ``N4_NULL_BOUND`` and h not positive definite.
    """
    from scipy.linalg import qr

    algebra = catalog.algebra("n4")
    sampler = StableFormSampler(algebra)
    rng = Random(seed)
    details = []
    confirmed = 0
    resampled_total = 0
    max_null = 0.0
    max_res = 0.0
    for _ in range(trials):
        b_frac, c_frac, rejected = draw_admissible_coefficients(rng)
        resampled_total += rejected
        b = np.array([float(x) for x in b_frac])
        c = float(c_frac)
        lam0 = sampler.lambda_of(b, c)
        if not lam0 < 0:
            raise ObstructionFailure("drawn coefficients have lambda >= 0")
        # Newton on four of b1..b11, re-pivoted and damped each step
        for _ in range(80):
            g, jac = sampler.compat(b, c)
            gn = float(np.linalg.norm(g))
            if gn <= 1e-13:
                break
            jac = jac[:, :len(_ADJUSTABLE)]
            piv = qr(jac, mode="r", pivoting=True)[1]
            subset = [_ADJUSTABLE[p] for p in piv[:4]]
            step = np.linalg.lstsq(jac[:, piv[:4]], -g, rcond=None)[0]
            scale = 1.0
            for _ in range(30):
                trial_b = b.copy()
                for col, pos in enumerate(subset):
                    trial_b[pos] += scale * step[col]
                if float(np.linalg.norm(
                        sampler.compat(trial_b, c)[0])) < gn:
                    b = trial_b
                    break
                scale *= 0.5
            else:
                break
        compat = float(np.max(np.abs(sampler.compat(b, c)[0])))
        lam = sampler.lambda_of(b, c)
        if not lam < 0 or abs(lam - lam0) > 1e-8 * max(1.0, abs(lam0)):
            raise ObstructionFailure("lambda moved during the Newton solve")
        j = sampler.j_matrix(b, c)
        pull = sampler.pullback_matrix(j)
        residual = max(compat, float(np.max(np.abs(b - pull @ b))))
        h = sampler.metric_of(b, j)
        b15 = b[_B15]
        v = np.zeros(6)
        v[3] = 1.0
        v[4] = -b[_B14] / b15
        v[5] = b[_B13] / b15
        null_val = float(v @ h @ v)
        hs = 0.5 * (h + h.T)
        min_eig = float(np.linalg.eigvalsh(hs).min())
        ok = (abs(null_val) <= N4_NULL_BOUND and residual <= N4_NULL_BOUND
              and min_eig <= N4_NULL_BOUND)
        if ok:
            confirmed += 1
        else:
            raise ObstructionFailure(
                "trial failed: |h(v,v)| = %.3g, residual = %.3g, "
                "min eig = %.3g" % (abs(null_val), residual, min_eig))
        max_null = max(max_null, abs(null_val))
        max_res = max(max_res, residual)
        details.append(NullVectorTrial(
            seed_b=tuple(float(z) for z in b),
            coupling=c, lambda_value=lam, one_one_residual=residual,
            null_value=null_val, min_eigenvalue=min_eig))
    return NullVectorReport(trials=trials, seed=seed, confirmed=confirmed,
                            resampled=resampled_total, max_null_value=max_null,
                            max_one_one_residual=max_res,
                            trials_detail=tuple(details))


@dataclass(frozen=True)
class SearchStart:
    """Where one L-BFGS-B start of the n9 search ended."""
    nit: int
    nfev: int
    lambda_value: float
    residual: float        # inf off the branch lambda < -1e-14


@dataclass(frozen=True)
class InfeasibilityReport:
    """best_residual and best_lambda are taken over the end points with
    lambda <= ``N9_LAMBDA_CUT`` only (inf and nan when there is none), so
    that a degenerate end point at lambda -> 0- cannot stand in for the claim;
    best_objective and its lambda are taken over every end point."""
    starts: int
    seed: int
    claimed: bool
    feasible_found: bool
    best_residual: float
    best_lambda: float
    best_objective: float
    best_objective_lambda: float
    starts_detail: Tuple[SearchStart, ...] = field(repr=False, default=())


# b -> (value, gradient, lambda, constraint residual)
_Terms = Callable[[np.ndarray], Tuple[float, np.ndarray, float, float]]


def _isotropy_terms(sampler: StableFormSampler, target: np.ndarray
                    ) -> _Terms:
    """The n9 search objective at b, as (value, gradient, lambda, residual).

    sigma = d(omega_b) gives K, lambda = tr K^2 / 6, J = eps K / sqrt(-lambda)
    with eps the orientation sign (locally constant) and h = J^T omega_b.
    With t the projection of sym(h) on the symmetric ``target``, the
    constraint residual is
    |sym(h) - t target|^2 + |h - h^T|^2 + |omega ^ sigma|^2 + max(0, -t)^2
    and the value adds (lambda + 1)^2.  Off the admissible branch,
    lambda >= -1e-14, the value is 1e3 + lambda^2 and the residual inf.
    The gradient is exact, each stage above differentiated in turn.
    """
    unit = target / float(np.sum(target * target))     # dt/dh

    def terms(b: np.ndarray):
        dk = sampler.k_b_tensor @ b                     # dK/db, 6 x 6 x 15
        k = 0.5 * (dk @ b)
        lam = float(np.sum(k * k.T)) / 6.0
        dlam = np.einsum("mj,jmp->p", k, dk) / 3.0
        if lam >= -1e-14:
            return 1e3 + lam * lam, 2.0 * lam * dlam, lam, math.inf
        mu = math.sqrt(-lam)
        eps = sampler.orientation_sign(b)
        j = (eps / mu) * k
        om = sampler.omega_matrix(b)
        h = j.T @ om
        hs = 0.5 * (h + h.T)
        t = float(np.sum(hs * unit))
        iso = hs - t * target
        skew = h - h.T
        v, dv = sampler.compat(b)
        neg_t = max(0.0, -t)
        residual = (float(np.sum(iso * iso) + np.sum(skew * skew) + v @ v)
                    + neg_t * neg_t)
        # dh = dJ^T omega + J^T d(omega) with dJ = eps (dK + K dlam /
        # (2 mu^2)) / mu; c is the derivative of the h terms in h
        c = 2.0 * iso + 4.0 * skew - 2.0 * neg_t * unit
        m = om @ c.T
        jc = j @ c
        grad = ((eps / mu) * (np.einsum("mjp,mj->p", dk, m)
                              + float(np.sum(k * m)) * dlam / (2.0 * mu * mu))
                + jc[PAIR_ROW, PAIR_COL] - jc[PAIR_COL, PAIR_ROW]
                + 2.0 * (v @ dv) + 2.0 * (lam + 1.0) * dlam)
        return residual + (lam + 1.0) ** 2, grad, lam, residual

    return terms


def _isotropy_search(terms: _Terms, x0s: Sequence[np.ndarray], seed: int,
                     claimed: bool) -> InfeasibilityReport:
    """One L-BFGS-B run per start on ``terms``; the end point of each is
    re-read from ``terms``.  A claimed search raises on a feasible point."""
    from scipy.optimize import minimize

    def value_and_grad(b: np.ndarray):
        value, grad, _, _ = terms(b)
        return value, grad

    # scipy's default tolerances stop a start that converges on a zero
    # residual at 1e-9 to 1e-8, too early to tell a feasible point from a
    # near miss: stop only once a step gains far less than N9_RESIDUAL_TOL
    # and the gradient, about sqrt(residual) near a minimum, is far below
    # sqrt(N9_RESIDUAL_TOL)
    options = {"maxiter": 200, "ftol": 1e-3 * N9_RESIDUAL_TOL,
               "gtol": 1e-2 * math.sqrt(N9_RESIDUAL_TOL)}
    detail = []
    best_resid, best_lambda = math.inf, math.nan
    best_obj, best_obj_lambda = math.inf, math.nan
    feasible = False
    for x0 in x0s:
        res = minimize(value_and_grad, x0, jac=True, method="L-BFGS-B",
                       options=options)
        value, _, lam, resid = terms(res.x)
        detail.append(SearchStart(nit=int(res.nit), nfev=int(res.nfev),
                                  lambda_value=lam, residual=resid))
        if value < best_obj:
            best_obj, best_obj_lambda = value, lam
        if lam > N9_LAMBDA_CUT:
            continue
        if resid < best_resid:
            best_resid, best_lambda = resid, lam
        if resid <= N9_RESIDUAL_TOL:
            feasible = True
            if claimed:
                raise ObstructionFailure(
                    "feasible constrained point found (residual %.3g, "
                    "lambda %.3g); this contradicts the published "
                    "classification" % (resid, lam))
    return InfeasibilityReport(
        starts=len(detail), seed=seed, claimed=claimed,
        feasible_found=feasible, best_residual=best_resid,
        best_lambda=best_lambda, best_objective=best_obj,
        best_objective_lambda=best_obj_lambda, starts_detail=tuple(detail))


def n9_nilsoliton_obstruction_sample(starts: int, seed: int,
                                     frame: str = "nilsoliton"
                                     ) -> InfeasibilityReport:
    """Multi-start search for a coupled pair on n9 inducing a multiple of
    the nilsoliton metric g0 (``catalog.N9_SOLITON_METRIC``).

    The constraint system is {lambda(sigma) < 0, h = t g0 with t > 0,
    omega ^ sigma = 0, h symmetric}; lambda is normalized to -1 by a
    penalty.  Each start is one L-BFGS-B run on the squared residuals
    with their exact gradient (``_isotropy_terms``), from a point drawn
    uniformly in [-1.5, 1.5]^15.  An end point is feasible when its
    residual is at most ``N9_RESIDUAL_TOL`` (1e-9) and its lambda at most
    ``N9_LAMBDA_CUT`` (-1e-6), fixed constants that --tol does not reach;
    ``best_residual`` is the least residual among end points below the
    cut.  g0 is the nilsoliton metric of n9 up to automorphism and scale,
    so no feasible point may appear (that would contradict the
    classification): feasibility in any start raises ObstructionFailure.
    With frame="standard" the target is the identity, and the same search
    runs as an uncontrolled experiment that only reports what it finds.
    200 starts take under 1 s on one x86-64 core.
    """
    if frame == "nilsoliton":
        target, claimed = np.diag(
            [float(x) for x in catalog.N9_SOLITON_METRIC]), True
    elif frame == "standard":
        target, claimed = np.eye(6), False
    else:
        raise ValueError("frame must be 'nilsoliton' or 'standard'")
    sampler = StableFormSampler(catalog.algebra("n9"))
    rng = Random(seed)
    x0s = [np.array([rng.uniform(-1.5, 1.5) for _ in range(15)])
           for _ in range(starts)]
    return _isotropy_search(_isotropy_terms(sampler, target), x0s, seed,
                            claimed)
