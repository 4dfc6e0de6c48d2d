"""Acceptance suite: every archived target value at its stated tolerance.

Each criterion prints one PASS line on success (run with -s to see them);
a failing assertion is the FAIL line.  Exact criteria admit no tolerance;
float criteria state theirs explicitly.
"""
from fractions import Fraction
from random import Random

import numpy as np
import pytest

from g2forge import catalog
from g2forge.curvature import curvature_tensors, einstein_constant, \
    nilsoliton_check
from g2forge.exterior import (InnerProduct, KForm, Orientation, basis_indices,
                              codifferential, form_inner, hodge_star, wedge)
from g2forge.g2 import (CLASS_LCC, CLASS_LCP, metric_from_phi, product_g2,
                        scalar_curvature_from_torsion, star_ricci,
                        three_form_components, torsion_forms,
                        two_form_14_basis)
from g2forge.liealg import MetricLieAlgebra, is_derivation, \
    rank_one_extension
from g2forge.linalg import identity
from g2forge.scalars import Polynomial
from g2forge.stable_forms import (almost_complex, lambda_invariant,
                                  metric_from_pair, su3_predicates)
from g2forge.survey import (SIGN_INDEFINITE, SIGN_NONNEG, SIGN_NONPOS,
                            SIGN_ZERO, n4_obstruction_sample,
                            n9_nilsoliton_obstruction_sample, sign_partition)

from test_curvature import twisted
from test_stable_forms import n9_expected_j_matrix, n9_expected_metric
from test_survey import N8_REGENERATED, table_polynomials


def report(criterion, text):
    print("[criterion %02d] %s: PASS" % (criterion, text))


# -- 1: survey table regeneration -------------------------------------------

def test_criterion_01_table_regeneration(survey_rows):
    expected = table_polynomials()
    expected["n8"] = N8_REGENERATED
    assert len(survey_rows) == 24
    for row in survey_rows:
        assert row.lambda_poly == expected[row.algebra_name], row.algebra_name
    counts = sign_partition(survey_rows)
    assert counts[SIGN_NONNEG] + counts[SIGN_ZERO] == 21
    assert counts[SIGN_NONPOS] == 1
    assert counts[SIGN_INDEFINITE] == 2
    report(1, "24 quartics regenerated exactly (n8 corrected), "
              "sign partition 21/1/2")


@pytest.mark.xfail(strict=True,
                   reason="the transcribed n8 entry duplicates n7 and "
                          "contradicts a direct hand expansion of the "
                          "quartic on the two-parameter slice; the "
                          "regenerated sum-of-squares value is asserted "
                          "in criterion 1")
def test_criterion_01_table_as_transcribed(survey_rows):
    expected = table_polynomials()
    for row in survey_rows:
        assert row.lambda_poly == expected[row.algebra_name], row.algebra_name


# -- 2: the exact coupled pair -----------------------------------------------

def test_criterion_02_coupled_pair_n28(n28, n28_pair, survey_rows):
    omega, sigma = n28_pair
    assert wedge(omega, sigma).is_zero()
    lam_poly = next(r.lambda_poly for r in survey_rows
                    if r.algebra_name == "n28")
    assignment = {v: Fraction(0) for v in lam_poly.variables}
    assignment.update({"c": Fraction(-1), "b15": Fraction(-1)})
    assert lam_poly.evaluate(assignment) == -4
    pair = metric_from_pair(omega, sigma)
    assert pair.lambda_value == -4
    assert pair.normalized
    assert pair.metric.matrix == identity(6)
    assert pair.positive
    verdict = su3_predicates(n28, omega, sigma)
    assert verdict.coupled_c == -1
    report(2, "coupled pair on n28: lambda=-4, normalized, h=id, c=-1, exact")


# -- 3: the float-ring coupled pair ------------------------------------------

def test_criterion_03_coupled_pair_n9():
    tol = 1e-10
    omega, sigma = catalog.n9_coupled_pair()
    pair = metric_from_pair(omega, sigma)
    assert abs(pair.lambda_value - (-225.0 / 64.0)) <= tol
    j = np.array([[float(x) for x in row] for row in pair.J])
    h = np.array([[float(x) for x in row] for row in pair.metric.matrix])
    assert np.abs(j - np.array(n9_expected_j_matrix())).max() <= tol
    assert np.abs(h - np.array(n9_expected_metric())).max() <= tol
    assert pair.positive
    verdict = su3_predicates(catalog.algebra("n9"), omega, sigma)
    assert abs(verdict.coupled_c + 4 / (15 ** 0.5 * 2 ** 0.25)) <= tol
    report(3, "n9 pair: lambda=-225/64, printed J and h, positive, "
              "c=-4/(sqrt(15) 2^(1/4)), within 1e-10")


# -- 4: nilsoliton witness ----------------------------------------------------

def test_criterion_04_nilsoliton(n28):
    m = MetricLieAlgebra.euclidean(n28)
    tensors = curvature_tensors(m)
    expected = [-1, -1, -1, -1, 1, 1]
    for i in range(6):
        for j in range(6):
            assert tensors.ricci[i][j] == (expected[i] if i == j else 0)
    witness = nilsoliton_check(m)
    assert witness is not None and witness.constant == -3
    d_expected = [2, 2, 2, 2, 4, 4]
    for i in range(6):
        for j in range(6):
            assert witness.derivation[i][j] == \
                (d_expected[i] if i == j else 0)
    assert is_derivation(n28, witness.derivation)
    report(4, "Ric(n28,id) = -3I + 2 diag(1,1,1,1,2,2) with derivation "
              "witness, exact")


# -- 5: Einstein extension ----------------------------------------------------

def test_criterion_05_einstein_extension(einstein_ext):
    tensors = curvature_tensors(einstein_ext)
    for i in range(7):
        for j in range(7):
            assert tensors.ricci[i][j] == (-3 if i == j else 0)
    assert tensors.scal == -21
    assert einstein_constant(einstein_ext, tensors) == -3
    report(5, "rank-one extension: Ric = -3 g, Scal = -21, exact")


# -- 6: torsion of the extension ----------------------------------------------

@pytest.fixture(scope="module")
def ext_torsion(einstein_ext):
    phi = catalog.n28_ext_g2_form()
    s = metric_from_phi(phi)
    t = torsion_forms(einstein_ext.algebra, phi, s)
    return phi, s, t


def test_criterion_06_torsion(einstein_ext, ext_torsion):
    phi, s, t = ext_torsion
    assert t.tau0 == 0
    assert t.tau3.is_zero()
    assert t.tau1 == KForm(7, 1, {(7,): Fraction(-1, 3)})
    assert t.tau2 == KForm(7, 2, {(1, 2): Fraction(-5, 3),
                                  (3, 4): Fraction(-5, 3),
                                  (5, 6): Fraction(-10, 3)})
    assert t.class_label == CLASS_LCC
    e7 = KForm.monomial(7, (7,))
    assert einstein_ext.algebra.d(phi) == -1 * wedge(e7, phi)
    report(6, "torsion: tau0=tau3=0, tau1=-(1/3)e7, "
              "tau2=-(5/3)e12-(5/3)e34-(10/3)e56, class lcc, exact")


# -- 7: scalar-curvature cross-check -----------------------------------------

def test_criterion_07_scalar_curvature_consistency(einstein_ext, ext_torsion):
    phi, s, t = ext_torsion
    scal_t = scalar_curvature_from_torsion(t, s, einstein_ext.algebra)
    scal_r = curvature_tensors(einstein_ext).scal
    assert scal_t == scal_r == -21
    delta = codifferential(t.tau1, einstein_ext.algebra.d, s.metric, s.volume)
    assert delta == KForm(7, 0, {(): Fraction(-4, 3)})
    report(7, "torsion formula = Ricci trace = -21; internal "
              "delta(tau1) = -4/3, exact")


# -- 8: star-Ricci ------------------------------------------------------------

def test_criterion_08_star_ricci(einstein_ext, ext_torsion):
    phi, s, _ = ext_torsion
    sr = star_ricci(einstein_ext, phi, s)
    expected = [1, 1, 1, 1, 22, 22, -6]
    for i in range(7):
        for j in range(7):
            assert sr.matrix[i][j] == (expected[i] if i == j else 0)
    assert not sr.star_einstein
    report(8, "star-Ricci = diag(1,1,1,1,22,22,-6), not star-Einstein, exact")


# -- 9: the symbolic family ---------------------------------------------------

def test_criterion_09_symbolic_family():
    ext = catalog.abelian_scaling_extension()
    a = Polynomial.variable("a")
    tensors = curvature_tensors(ext)
    target = -6 * a ** 2
    for i in range(7):
        for j in range(7):
            assert tensors.ricci[i][j] == \
                (target if i == j else Polynomial.zero())
    phi = catalog.abelian_ext_g2_form()
    s = metric_from_phi(phi)
    t = torsion_forms(ext.algebra, phi, s)
    assert t.tau1 == KForm(7, 1, {(7,): -1 * a})
    assert t.tau0 == 0 or t.tau0 == Polynomial.zero()
    assert t.tau2.is_zero() and t.tau3.is_zero()
    assert t.class_label == CLASS_LCP
    report(9, "family: Ric = -6 a^2 g and tau1 = -a e7 as polynomial "
              "identities, class lcp")


# -- 10: product construction, both directions --------------------------------

def _nonzero_fraction(rng, lo=-3, hi=3, den=2):
    while True:
        f = Fraction(rng.randint(lo, hi), rng.randint(1, den))
        if f != 0:
            return f


def test_criterion_10_product_equivalence(n28, n28_pair):
    omega, sigma = n28_pair
    rng = Random(2024)
    base = MetricLieAlgebra.euclidean(n28)
    e7 = KForm.monomial(7, (7,))
    instances = 0
    matched_seen = 0
    unmatched_seen = 0
    while instances < 50:
        t_scale = _nonzero_fraction(rng)
        omega_t = (t_scale ** 2) * omega
        sigma_t = (t_scale ** 3) * sigma
        c_t = Fraction(-1) / t_scale
        pair = metric_from_pair(omega_t, sigma_t)
        p = _nonzero_fraction(rng)
        if instances % 2 == 0:
            q = -c_t - p            # matched: d(sigma) = -2c sigma ^ e7
        else:
            q = _nonzero_fraction(rng)
            if p + q == -c_t:
                continue
        vals = [p, p, q, q, p + q, p + q]
        derivation = [[vals[i] if i == j else 0 for j in range(6)]
                      for i in range(6)]
        ext = rank_one_extension(base, derivation)
        phi, s = product_g2(pair, ext.algebra)
        t_forms = torsion_forms(ext.algebra, phi, s)
        lift_sigma = KForm(7, 3, dict(sigma_t.coeffs))
        d_condition = ext.algebra.d(lift_sigma) == \
            (-2 * c_t) * wedge(lift_sigma, e7)
        lcc_with_tau1 = (t_forms.tau0 == 0 and t_forms.tau3.is_zero()
                         and t_forms.tau1 == KForm(7, 1, {(7,): c_t / 3}))
        assert d_condition == lcc_with_tau1 == (p + q == -c_t)
        if d_condition:
            matched_seen += 1
        else:
            unmatched_seen += 1
        instances += 1
    assert matched_seen >= 20 and unmatched_seen >= 20
    report(10, "product construction equivalence on %d exact instances "
               "(%d matched / %d unmatched)"
               % (instances, matched_seen, unmatched_seen))


# -- 11: property suites -------------------------------------------------------

def test_criterion_11a_d_squared_zero():
    for name in catalog.names():
        algebra = catalog.algebra(name)
        assert algebra.jacobi_defect(tol=1e-9) is None
    report(11, "d^2 = 0 on every catalog algebra")


def test_criterion_11b_riemann_symmetries(n28, einstein_ext):
    for m in [MetricLieAlgebra.euclidean(n28), einstein_ext] + twisted():
        tensors = curvature_tensors(m)
        r = tensors.riemann
        n = m.algebra.dim
        get = lambda i, j, k, l: r.get((i, j, k, l), Fraction(0))
        for (i, j, k, l), val in r.items():
            assert val == -get(j, i, k, l)
            assert val == -get(i, j, l, k)
            assert val == get(k, l, i, j)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                for k in range(1, n + 1):
                    for l in range(1, n + 1):
                        assert get(i, j, k, l) + get(j, k, i, l) + \
                            get(k, i, j, l) == 0
    report(11, "Riemann symmetries and first Bianchi, exact, on diagonal "
           "and dense metrics")


def test_criterion_11c_double_hodge_sign():
    for dim in (6, 7):
        g = InnerProduct.euclidean(dim)
        orient = Orientation.standard(dim)
        for k in range(dim + 1):
            sign = (-1) ** (k * (dim - k))
            for idx in basis_indices(dim, k):
                a = KForm.monomial(dim, idx)
                assert hodge_star(hodge_star(a, g, orient), g, orient) \
                    == sign * a
    report(11, "double-star sign law, dims 6 and 7, every degree")


def test_criterion_11d_hodge_defining_identity():
    for dim in (6, 7):
        g = InnerProduct.euclidean(dim)
        orient = Orientation.standard(dim)
        vol = KForm.monomial(dim, tuple(range(1, dim + 1)))
        for k in (1, 2, 3):
            idx = basis_indices(dim, k)
            for ia in idx:
                a = KForm.monomial(dim, ia)
                for ib in idx:
                    b = KForm.monomial(dim, ib)
                    assert wedge(a, hodge_star(b, g, orient)) == \
                        form_inner(a, b, g) * vol
    report(11, "defining Hodge identity on all basis pairs, dims 6 and 7")


def test_criterion_11e_lambda_homogeneity_and_j_invariance(n28_pair):
    rng = Random(7)
    idx3 = basis_indices(6, 3)
    for _ in range(10):
        sigma = KForm(6, 3, {i: Fraction(rng.randint(-2, 2)) for i in idx3})
        t = _nonzero_fraction(rng)
        assert lambda_invariant(t * sigma) == t ** 4 * lambda_invariant(sigma)
    _, sigma28 = n28_pair
    j0 = almost_complex(sigma28)
    for t in (Fraction(2), Fraction(1, 3), Fraction(5, 2)):
        assert almost_complex(t * sigma28) == j0
    report(11, "lambda quartic homogeneity and J scale invariance, exact")


def test_criterion_11f_decomposition_dimensions():
    from g2forge.exterior import contract_basis
    from g2forge.linalg import mat, nullspace
    s = metric_from_phi(catalog.standard_g2_form())
    idx2 = basis_indices(7, 2)
    rows = [[contract_basis(i, s.phi)[j] for j in idx2] for i in range(1, 8)]
    assert len(idx2) - len(nullspace(mat(rows))) == 7
    assert len(two_form_14_basis(s)) == 14
    comps, _, _ = three_form_components(s.phi, s)
    assert comps["1"] == s.phi and comps["7"].is_zero() \
        and comps["27"].is_zero()
    idx3 = basis_indices(7, 3)
    rows7 = [[contract_basis(i, s.star_phi)[j] for j in idx3]
             for i in range(1, 8)]
    assert len(idx3) - len(nullspace(mat(rows7))) == 7
    report(11, "type decomposition ranks 7/14 and 1/7/27 for the flat model")


# -- 12: obstruction sampling ---------------------------------------------------

def test_criterion_12a_null_vector_sampling():
    rep = n4_obstruction_sample(trials=100, seed=1)
    assert rep.trials == rep.confirmed == 100
    assert rep.max_null_value <= 1e-9
    for trial in rep.trials_detail:
        assert trial.min_eigenvalue <= 1e-9
    report(12, "100 seeded trials: |h(v,v)| <= 1e-9 and h never positive "
               "definite")


def test_criterion_12b_isotropy_infeasibility():
    rep = n9_nilsoliton_obstruction_sample(starts=200, seed=1)
    assert rep.starts == 200
    assert not rep.feasible_found
    assert rep.best_residual > 1e-9
    report(12, "200 seeded starts: no coupled point with h = t id and "
               "lambda <= -1e-6 (best residual %.2e)" % rep.best_residual)
