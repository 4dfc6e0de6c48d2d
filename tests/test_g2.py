from fractions import Fraction

import pytest

from g2forge import catalog
from g2forge.exterior import (KForm, Vector, basis_indices, form_inner,
                              wedge)
from g2forge.g2 import (CLASS_CALIBRATED, CLASS_LCC, CLASS_LCP,
                        CLASS_PARALLEL, MetricMismatchError, NotPositiveError,
                        b_form, metric_from_phi, product_g2,
                        scalar_curvature_from_torsion, star_ricci,
                        three_form_components, torsion_forms,
                        two_form_14_basis, two_form_components)
from g2forge.liealg import LieAlgebra, MetricLieAlgebra, rank_one_extension
from g2forge.linalg import identity, mat, nullspace
from g2forge.scalars import Polynomial
from g2forge.stable_forms import metric_from_pair
from test_exterior import standard_g2_dual


@pytest.fixture(scope="module")
def abelian7():
    return LieAlgebra(7, [KForm.zero(7, 2)] * 7, name="abelian7")


@pytest.fixture(scope="module")
def std_structure():
    return metric_from_phi(catalog.standard_g2_form())


@pytest.fixture(scope="module")
def ext41_torsion(einstein_ext):
    phi = catalog.n28_ext_g2_form()
    s = metric_from_phi(phi)
    t = torsion_forms(einstein_ext.algebra, phi, s)
    return phi, s, t


def test_b_form_examples(std_structure):
    phi = catalog.standard_g2_form()
    b = b_form(phi)
    assert all(b[i][j] == (1 if i == j else 0)
               for i in range(7) for j in range(7))
    zero = b_form(KForm.zero(7, 3))
    assert all(x == 0 for row in zero for x in row)
    b41 = b_form(catalog.n28_ext_g2_form())
    assert all(b41[i][j] == (-1 if i == j else 0)
               for i in range(7) for j in range(7))


def test_metric_from_phi_standard(std_structure):
    s = std_structure
    assert s.metric.matrix == identity(7)
    assert s.volume.coefficient == 1
    assert s.star_phi == standard_g2_dual()
    assert s.orientation_sign == 1


def test_metric_from_phi_reversed_orientation():
    s = metric_from_phi(catalog.n28_ext_g2_form())
    assert s.metric.matrix == identity(7)
    assert s.orientation_sign == -1


def test_metric_from_phi_ex42():
    s = metric_from_phi(catalog.abelian_ext_g2_form())
    assert s.metric.matrix == identity(7)


def test_metric_from_phi_rescaled_coframe():
    # relabel e1 -> 2 e1: phi scales on every index-1 monomial
    phi = catalog.standard_g2_form()
    scaled = KForm(7, 3, {idx: (2 * c if 1 in idx else c)
                          for idx, c in phi.coeffs.items()})
    s = metric_from_phi(scaled)
    assert s.metric.matrix[0][0] == 4
    for i in range(1, 7):
        assert s.metric.matrix[i][i] == 1
    # defining relation checked directly
    b = b_form(scaled)
    v = s.volume.coefficient
    for i in range(7):
        for j in range(7):
            assert s.metric.matrix[i][j] * v == b[i][j]


def test_degenerate_three_form_rejected():
    with pytest.raises(NotPositiveError):
        metric_from_phi(KForm.monomial(7, (1, 2, 3)))


def test_type_decomposition_dimensions(std_structure):
    s = std_structure
    # 2-forms: contractions span 7, the orthogonal kernel has dimension 14
    idx2 = basis_indices(7, 2)
    from g2forge.exterior import contract_basis
    rows = [[contract_basis(i, s.phi)[j] for j in idx2] for i in range(1, 8)]
    assert len(idx2) - len(nullspace(mat(rows))) == 7
    assert len(two_form_14_basis(s)) == 14
    # 3-forms: 1 + 7 + 27 = 35
    idx3 = basis_indices(7, 3)
    rows7 = [[contract_basis(i, s.star_phi)[j] for j in idx3]
             for i in range(1, 8)]
    assert len(idx3) - len(nullspace(mat(rows7))) == 7
    cols27 = []
    idx6 = basis_indices(7, 6)
    idx7 = basis_indices(7, 7)
    for i3 in idx3:
        beta = KForm.monomial(7, i3)
        cols27.append([wedge(beta, s.phi)[j] for j in idx6] +
                      [wedge(beta, s.star_phi)[j] for j in idx7])
    constraint_rows = [[cols27[c][r] for c in range(len(idx3))]
                       for r in range(len(idx6) + len(idx7))]
    assert len(nullspace(mat(constraint_rows))) == 27


def test_type_project_examples(std_structure):
    s = std_structure
    comps, t, x = three_form_components(s.phi, s)
    assert comps["1"] == s.phi and t == 1
    assert not any(x.components)
    assert comps["7"].is_zero() and comps["27"].is_zero()
    from g2forge.exterior import contract_basis
    w = contract_basis(1, s.phi)
    comps2, x2 = two_form_components(w, s)
    assert comps2["7"] == w and comps2["14"].is_zero()
    assert x2 == Vector.basis(7, 1)
    for split in (two_form_components, three_form_components):
        with pytest.raises(ValueError):
            split(KForm.monomial(7, (1,)), s)


def test_projection_components_sum_and_orthogonality(std_structure):
    s = std_structure
    a = KForm.from_terms(7, 2, (1, 1, 2), (2, 1, 3), (-1, 4, 5), (3, 6, 7))
    comps, _ = two_form_components(a, s)
    assert comps["7"] + comps["14"] == a
    assert form_inner(comps["7"], comps["14"], s.metric) == 0
    b = KForm.from_terms(7, 3, (1, 1, 2, 3), (-2, 2, 4, 6), (1, 5, 6, 7))
    comps3, _, _ = three_form_components(b, s)
    assert comps3["1"] + comps3["7"] + comps3["27"] == b
    assert form_inner(comps3["1"], comps3["7"], s.metric) == 0
    assert form_inner(comps3["1"], comps3["27"], s.metric) == 0
    assert form_inner(comps3["7"], comps3["27"], s.metric) == 0


def test_torsion_ext41(ext41_torsion, einstein_ext):
    phi, s, t = ext41_torsion
    assert t.tau0 == 0
    assert t.tau3.is_zero()
    assert t.tau1 == KForm(7, 1, {(7,): Fraction(-1, 3)})
    assert t.tau2 == KForm(7, 2, {(1, 2): Fraction(-5, 3),
                                  (3, 4): Fraction(-5, 3),
                                  (5, 6): Fraction(-10, 3)})
    assert t.class_label == CLASS_LCC
    e7 = KForm.monomial(7, (7,))
    assert einstein_ext.algebra.d(phi) == -1 * wedge(e7, phi)
    dstar_expected = -1 * wedge(e7, KForm.from_terms(
        7, 4, (3, 1, 2, 5, 6), (2, 1, 2, 3, 4), (3, 3, 4, 5, 6)))
    assert einstein_ext.algebra.d(s.star_phi) == dstar_expected


def test_torsion_reconstruction_and_membership(ext41_torsion, einstein_ext):
    phi, s, t = ext41_torsion
    g, orient = s.metric, s.volume
    from g2forge.exterior import hodge_star
    algebra = einstein_ext.algebra
    lhs4 = t.tau0 * s.star_phi + 3 * wedge(t.tau1, phi) + \
        hodge_star(t.tau3, g, orient)
    assert lhs4 == algebra.d(phi)
    lhs5 = 4 * wedge(t.tau1, s.star_phi) + wedge(t.tau2, phi)
    assert lhs5 == algebra.d(s.star_phi)
    # membership in the irreducible pieces
    assert wedge(t.tau2, s.star_phi).is_zero()
    assert wedge(t.tau3, phi).is_zero()
    assert wedge(t.tau3, s.star_phi).is_zero()


def test_torsion_ext42_symbolic():
    ext = catalog.abelian_scaling_extension()
    phi = catalog.abelian_ext_g2_form()
    s = metric_from_phi(phi)
    t = torsion_forms(ext.algebra, phi, s)
    a = Polynomial.variable("a")
    assert t.tau1 == KForm(7, 1, {(7,): -1 * a})
    assert t.tau0 == Polynomial.zero() or t.tau0 == 0
    assert t.tau2.is_zero() and t.tau3.is_zero()
    assert t.class_label == CLASS_LCP
    scal = scalar_curvature_from_torsion(t, s, ext.algebra)
    assert scal == -42 * a ** 2


def test_torsion_parallel_standard(abelian7, std_structure):
    t = torsion_forms(abelian7, catalog.standard_g2_form(), std_structure)
    assert t.class_label == CLASS_PARALLEL
    assert t.tau0 == 0 and t.tau1.is_zero()
    assert t.tau2.is_zero() and t.tau3.is_zero()
    assert scalar_curvature_from_torsion(t, std_structure, abelian7) == 0


def test_closed_case_scalar_curvature_nonpositive(abelian7):
    # calibrated structures have Scal = -(1/2)|tau2|^2 <= 0
    phi = catalog.standard_g2_form()
    s = metric_from_phi(phi)
    t = torsion_forms(abelian7, phi, s)
    assert scalar_curvature_from_torsion(t, s, abelian7) <= 0


def test_scalar_curvature_cross_module(ext41_torsion, einstein_ext):
    from g2forge.curvature import curvature_tensors
    phi, s, t = ext41_torsion
    scal_t = scalar_curvature_from_torsion(t, s, einstein_ext.algebra)
    scal_r = curvature_tensors(einstein_ext).scal
    assert scal_t == scal_r == -21


def test_dtau1_closed_for_conformal_classes(ext41_torsion, einstein_ext):
    phi, s, t = ext41_torsion
    assert einstein_ext.algebra.d(t.tau1).is_zero()
    ext42 = catalog.abelian_scaling_extension()
    t42 = torsion_forms(ext42.algebra, catalog.abelian_ext_g2_form())
    assert ext42.algebra.d(t42.tau1).is_zero()


def test_star_ricci_ext41(ext41_torsion, einstein_ext):
    phi, s, _ = ext41_torsion
    sr = star_ricci(einstein_ext, phi, s)
    expected = [1, 1, 1, 1, 22, 22, -6]
    for i in range(7):
        for j in range(7):
            assert sr.matrix[i][j] == (expected[i] if i == j else 0)
    assert not sr.star_einstein
    assert sr.symmetric
    assert sr.trace == 42


def test_star_ricci_flat(abelian7, std_structure):
    m = MetricLieAlgebra.euclidean(abelian7)
    sr = star_ricci(m, catalog.standard_g2_form(), std_structure)
    assert all(x == 0 for row in sr.matrix for x in row)
    assert sr.star_einstein


def test_star_ricci_ext42_golden():
    # no published value exists; freeze the computed family answer
    ext = catalog.abelian_scaling_extension()
    phi = catalog.abelian_ext_g2_form()
    sr = star_ricci(ext, phi)
    a2 = 12 * Polynomial.variable("a") ** 2
    for i in range(7):
        for j in range(7):
            assert sr.matrix[i][j] == (a2 if i == j else Polynomial.zero())
    assert sr.star_einstein
    assert sr.trace == 84 * Polynomial.variable("a") ** 2


def test_star_ricci_metric_mismatch(einstein_ext):
    phi = catalog.standard_g2_form()
    scaled = KForm(7, 3, {idx: (2 * c if 1 in idx else c)
                          for idx, c in phi.coeffs.items()})
    with pytest.raises(MetricMismatchError):
        star_ricci(einstein_ext, scaled)


def test_product_g2_matches_reference(n28_pair, einstein_ext):
    omega, sigma = n28_pair
    pair = metric_from_pair(omega, sigma)
    phi, s = product_g2(pair, einstein_ext.algebra)
    assert phi == catalog.n28_ext_g2_form()
    assert s.metric.matrix == identity(7)
    e7 = KForm.monomial(7, (7,))
    assert einstein_ext.algebra.d(phi) == -1 * wedge(e7, phi)


def test_product_g2_trivial_extension_parallel(n28_pair):
    # on the trivial extension d(phi) = d(omega)^e7 + d(sigma) with
    # hat-d only, so the class is governed by the coupled equation
    omega, sigma = n28_pair
    pair = metric_from_pair(omega, sigma)
    from g2forge.liealg import MetricLieAlgebra as MLA
    trivial = rank_one_extension(
        MLA.euclidean(catalog.algebra("n34")),
        [[0] * 6 for _ in range(6)])
    # an abelian base with any compatible pair gives a closed form
    om_std = KForm.from_terms(6, 2, (1, 1, 2), (1, 3, 4), (1, 5, 6))
    sg_std = KForm.from_terms(6, 3, (1, 1, 3, 5), (-1, 1, 4, 6),
                              (-1, 2, 3, 6), (-1, 2, 4, 5))
    pair_std = metric_from_pair(om_std, sg_std)
    with pytest.raises(ValueError):
        # not coupled on the abelian base: d(omega) = 0
        product_g2(pair_std, trivial.algebra)
    lift = KForm(7, 2, dict(om_std.coeffs))
    phi = wedge(lift, KForm.monomial(7, (7,))) + KForm(7, 3,
                                                       dict(sg_std.coeffs))
    t = torsion_forms(trivial.algebra, phi)
    assert t.class_label == CLASS_PARALLEL


def diag_derivation(p, q):
    vals = [p, p, q, q, p + q, p + q]
    return [[vals[i] if i == j else 0 for j in range(6)] for i in range(6)]


def test_product_g2_converse_direction(n28_pair):
    # an extension with d(sigma) != -2c sigma ^ e7 cannot be conformally
    # calibrated with tau1 = (c/3) e7
    omega, sigma = n28_pair
    pair = metric_from_pair(omega, sigma)
    base = MetricLieAlgebra.euclidean(catalog.algebra("n28"))
    bad = rank_one_extension(base, diag_derivation(Fraction(1), Fraction(1)))
    phi, s = product_g2(pair, bad.algebra)
    t = torsion_forms(bad.algebra, phi, s)
    c = Fraction(-1)
    expected_tau1 = KForm(7, 1, {(7,): c / 3})
    assert not (t.tau0 == 0 and t.tau3.is_zero() and t.tau1 == expected_tau1)
    # d sigma mismatch is what drives it
    lift_sigma = KForm(7, 3, dict(sigma.coeffs))
    e7 = KForm.monomial(7, (7,))
    assert bad.algebra.d(lift_sigma) != (-2 * c) * wedge(lift_sigma, e7)


def test_product_g2_nondiagonal_derivation_breaks_type(n28_pair):
    # e1 -> e5 is a derivation whose extension produces torsion outside
    # the conformally calibrated classes
    omega, sigma = n28_pair
    pair = metric_from_pair(omega, sigma)
    d = [[0] * 6 for _ in range(6)]
    d[4][0] = 1
    base = MetricLieAlgebra.euclidean(catalog.algebra("n28"))
    ext = rank_one_extension(base, d)
    phi, s = product_g2(pair, ext.algebra)
    t = torsion_forms(ext.algebra, phi, s)
    assert not (t.tau0 == 0 and t.tau3.is_zero())


def test_calibrated_with_torsion_has_negative_scal():
    # closed but non-parallel: d(phi) = 0 while d(*phi) != 0, so the
    # curvature comes entirely from the 14-part and must be negative
    from g2forge.liealg import parse_structure_equations
    from g2forge.curvature import curvature_tensors

    algebra = parse_structure_equations("(0,0,0,0,0,e12,e13)")
    base_phi = catalog.standard_g2_form()
    for t in (Fraction(1), Fraction(2), Fraction(1, 3), Fraction(-5, 2)):
        # rescaling the closed directions e4, e5 keeps phi closed
        phi = KForm(7, 3, {idx: c * t ** (idx.count(4) + idx.count(5))
                           for idx, c in base_phi.coeffs.items()})
        assert algebra.d(phi).is_zero()
        s = metric_from_phi(phi)
        tors = torsion_forms(algebra, phi, s)
        assert tors.class_label == CLASS_CALIBRATED
        assert not tors.tau2.is_zero()
        scal = scalar_curvature_from_torsion(tors, s, algebra)
        norm2 = form_inner(tors.tau2, tors.tau2, s.metric)
        assert scal == Fraction(-1, 2) * norm2
        assert scal < 0
        assert curvature_tensors(
            MetricLieAlgebra(algebra, s.metric)).scal == scal
