import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

from g2forge import catalog, exterior, linalg
from g2forge.exterior import (DegreeError, InnerProduct, KForm, Orientation,
                              Vector, basis_indices, codifferential, contract,
                              contract_basis, form_inner, hodge_star,
                              merge_sign, pullback, render_form, sort_index,
                              wedge)
from g2forge.g2 import metric_from_phi
from g2forge.liealg import to_float_algebra
from g2forge.scalars import Polynomial
from g2forge.stable_forms import metric_from_pair
from test_coframe import (CASES, P_DENSE, Coframe, off_diagonal,
                          twisted_n28_pair)

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=4)


def standard_g2_dual():
    """The 4-form dual to the flat-model 3-form in the euclidean metric."""
    return KForm.from_terms(
        7, 4,
        (1, 4, 5, 6, 7), (1, 2, 3, 6, 7), (1, 2, 3, 4, 5), (1, 1, 3, 5, 7),
        (-1, 1, 3, 4, 6), (-1, 1, 2, 5, 6), (-1, 1, 2, 4, 7))


def rand_form(dim, degree, coeffs):
    idx = basis_indices(dim, degree)
    return KForm(dim, degree, dict(zip(idx, coeffs)))


def form_strategy(dim, degree):
    n = len(basis_indices(dim, degree))
    return st.lists(rationals, min_size=n, max_size=n).map(
        lambda cs: rand_form(dim, degree, cs))


def test_merge_sign_is_sort_index_of_the_concatenation():
    """All pairs of increasing tuples on 1..7, disjoint or not."""
    increasing = [c for k in range(8) for c in combinations(range(1, 8), k)]
    assert len(increasing) ** 2 == 16384
    for a in increasing:
        for b in increasing:
            sign, merged = sort_index(a + b)
            assert merge_sign(a, b) == (sign, merged if sign else None)


def test_wedge_examples():
    e1 = KForm.monomial(6, (1,))
    e2 = KForm.monomial(6, (2,))
    assert wedge(e1, e2) == KForm.monomial(6, (1, 2))
    e12 = KForm.monomial(6, (1, 2))
    assert wedge(e12, e12).is_zero()
    a = KForm.from_terms(6, 2, (1, 1, 2), (1, 3, 4))
    sq = wedge(a, a)
    assert sq == KForm(6, 4, {(1, 2, 3, 4): 2})


def test_contract_examples():
    e123 = KForm.monomial(7, (1, 2, 3))
    assert contract_basis(1, e123) == KForm.monomial(7, (2, 3))
    assert contract_basis(2, e123) == KForm(7, 2, {(1, 3): -1})
    phi = catalog.standard_g2_form()
    expected = KForm.from_terms(7, 2, (1, 2, 3), (1, 4, 5), (1, 6, 7))
    assert contract_basis(1, phi) == expected


@pytest.mark.parametrize("n", range(1, 9))
def test_euclidean_metric_equals_the_checked_identity(n):
    """The identity kept as its own inverse reads like InnerProduct(I),
    whose inverse is eliminated: typed inverse, every minor row, sqrt
    det, positivity."""
    def typed(rows):
        return [[(type(x), x) for x in row] for row in rows]

    g, checked = InnerProduct.euclidean(n), InnerProduct(linalg.identity(n))
    assert typed(g.matrix) == typed(checked.matrix)
    assert typed(g.inverse) == typed(checked.inverse)
    assert g.minors.den == checked.minors.den
    for k in range(n + 1):
        for idx in combinations(range(1, n + 1), k):
            assert g.minors.row(idx) == checked.minors.row(idx), idx
    assert g.sqrt_det == checked.sqrt_det
    assert type(g.sqrt_det) is type(checked.sqrt_det)
    assert g.is_positive_definite() and checked.is_positive_definite()


def test_form_inner_examples():
    g = InnerProduct.euclidean(6)
    e12 = KForm.monomial(6, (1, 2))
    e34 = KForm.monomial(6, (3, 4))
    assert form_inner(e12, e12, g) == 1
    assert form_inner(e12, e34, g) == 0
    tau2 = KForm(7, 2, {(1, 2): Fraction(-5, 3), (3, 4): Fraction(-5, 3),
                        (5, 6): Fraction(-10, 3)})
    g7 = InnerProduct.euclidean(7)
    assert form_inner(tau2, tau2, g7) == Fraction(50, 3)


def test_hodge_examples():
    g = InnerProduct.euclidean(7)
    orient = Orientation.standard(7)
    assert hodge_star(KForm.monomial(7, (1, 2, 3)), g, orient) == \
        KForm.monomial(7, (4, 5, 6, 7))
    phi = catalog.standard_g2_form()
    assert hodge_star(phi, g, orient) == standard_g2_dual()


@given(form_strategy(7, 3))
@settings(max_examples=25, deadline=None)
def test_double_hodge_three_forms(a):
    g = InnerProduct.euclidean(7)
    orient = Orientation.standard(7)
    assert hodge_star(hodge_star(a, g, orient), g, orient) == a


@pytest.mark.parametrize("dim", [6, 7])
def test_double_hodge_sign_law_all_degrees(dim):
    g = InnerProduct.euclidean(dim)
    orient = Orientation.standard(dim)
    for k in range(dim + 1):
        sign = (-1) ** (k * (dim - k))
        for idx in basis_indices(dim, k):
            a = KForm.monomial(dim, idx)
            assert hodge_star(hodge_star(a, g, orient), g, orient) == sign * a


@pytest.mark.parametrize("dim", [6, 7])
def test_hodge_defining_identity_euclidean(dim):
    g = InnerProduct.euclidean(dim)
    orient = Orientation.standard(dim)
    vol = KForm.monomial(dim, tuple(range(1, dim + 1)))
    for k in (1, 2, 3):
        idx = basis_indices(dim, k)
        for ia in idx:
            a = KForm.monomial(dim, ia)
            for ib in idx:
                b = KForm.monomial(dim, ib)
                lhs = wedge(a, hodge_star(b, g, orient))
                assert lhs == form_inner(a, b, g) * vol


@pytest.mark.parametrize("dim", [6, 7])
def test_hodge_defining_identity_diagonal_metric(dim):
    # diagonal entries are squares, keeping the volume rational
    diag = [Fraction(4), Fraction(9), Fraction(1), Fraction(1, 4),
            Fraction(25), Fraction(1)][:dim]
    while len(diag) < dim:
        diag.append(Fraction(1))
    g = InnerProduct.diagonal(diag)
    orient = Orientation.standard(dim)
    det = Fraction(1)
    for d in diag:
        det *= d
    from g2forge.scalars import sqrt_fraction
    vol = KForm(dim, dim, {tuple(range(1, dim + 1)): sqrt_fraction(det)})
    for k in (1, 2):
        idx = basis_indices(dim, k)
        for ia in idx:
            a = KForm.monomial(dim, ia)
            for ib in idx:
                b = KForm.monomial(dim, ib)
                lhs = wedge(a, hodge_star(b, g, orient))
                assert lhs == form_inner(a, b, g) * vol


def dense_metric(dim):
    """g with g^-1 = M^T M, M = L U for the all-ones unit triangles L and U:
    integral both ways, det g = 1, and every entry of g^-1 nonzero."""
    lower = [[1 if j <= i else 0 for j in range(dim)] for i in range(dim)]
    m = linalg.mat_mul(linalg.mat(lower), linalg.transpose(linalg.mat(lower)))
    return InnerProduct(linalg.inverse(linalg.mat_mul(linalg.transpose(m), m)))


@lru_cache(maxsize=None)
def signed_permutations(k):
    """(perm, (-1)**inversions) for every permutation of range(k)."""
    return [(perm, (-1) ** sum(1 for a, b in combinations(perm, 2) if a > b))
            for perm in permutations(range(k))]


def leibniz_det(m, rows, cols):
    """det m[rows, cols] as a sum over permutations: no compound cache, no
    recursion."""
    total = Fraction(0)
    for perm, sign in signed_permutations(len(cols)):
        term = Fraction(sign)
        for r, p in zip(rows, perm):
            term = term * m[r - 1][cols[p] - 1]
        total = total + term
    return total


def minors_of(minors, ia):
    """Row ia of the compound cache as minors: row[J] / den**k."""
    return {ib: Fraction(x, minors.den ** len(ia))
            for ib, x in minors.row(ia).items()}


def assert_rows_are_minors(minors, m):
    n = len(m)
    for k in range(n + 1):
        for ia in basis_indices(n, k):
            row = minors_of(minors, ia)
            for ib in basis_indices(n, k):
                assert row.get(ib, 0) == leibniz_det(m, ia, ib)


def test_compound_rows_are_minors_of_the_inverse():
    g = dense_metric(5)
    ginv = g.inverse
    assert all(x != 0 for row in ginv for x in row)
    assert_rows_are_minors(g.minors, ginv)
    diag = InnerProduct.diagonal([Fraction(2), Fraction(3), Fraction(5)])
    assert minors_of(diag.minors, (1, 3)) == {(1, 3): Fraction(1, 10)}


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: square(n)), st.booleans())
def test_integer_compound_rows_over_den_are_leibniz_minors(m, symmetric):
    """Rows hold integers: det((den m)[I, J]), with den the lcm of the
    entries' denominators, so row[J] / den**k is the Leibniz minor and det
    divides once.  A symmetric m has symmetric compounds."""
    n = len(m)
    if symmetric:
        m = tuple(tuple(m[min(i, j)][max(i, j)] for j in range(n))
                  for i in range(n))
    minors = linalg.Compound(m)
    assert minors.den == math.lcm(*(x.denominator for row in m for x in row))
    assert all(type(x) is int for k in range(n + 1)
               for ia in basis_indices(n, k) for x in minors.row(ia).values())
    assert_rows_are_minors(minors, m)
    if symmetric:
        assert all(minors.row(ia).get(ib, 0) == minors.row(ib).get(ia, 0)
                   for k in range(n + 1) for ia in basis_indices(n, k)
                   for ib in basis_indices(n, k))
    full = tuple(range(1, n + 1))
    assert minors.det() == linalg.det(m) == leibniz_det(m, full, full)
    assert type(minors.det()) is Fraction


def test_compound_rows_of_a_complex_structure_are_its_minors():
    """J of the twisted n28 pair is not symmetric: a row mirrored from
    another would not be its minors."""
    _, omega, sigma = twisted_n28_pair()
    j = metric_from_pair(omega, sigma).J
    assert not linalg.is_symmetric(j)
    assert_rows_are_minors(linalg.Compound(j), j)
    assert linalg.det(j) == leibniz_det(j, range(1, 7), range(1, 7)) == 1


COLUMN_SETS = [c for k in range(8) for c in combinations(range(1, 8), k)]

# dense, integer and not symmetric: every entry is nonzero
DENSE7 = linalg.mat([[3, 1, 3, -1, -1, -2, -3],
                     [-3, -1, 2, -1, -1, -1, 1],
                     [-2, -2, -2, 1, -3, 3, 3],
                     [2, 3, -3, 2, 1, 1, 3],
                     [-3, 3, 1, -1, -3, 3, 1],
                     [-1, -2, 2, -1, 2, 3, -2],
                     [3, 2, -2, -3, 1, -1, 3]])


def test_insertion_table_is_the_merge_sign():
    """Column j joins a column set where e^j ^ e^rest puts it: the table
    holds the merged set and the parity of merge_sign((j,), rest), or None
    when j is already in rest."""
    assert len(COLUMN_SETS) == 2 ** 7
    for rest in COLUMN_SETS:
        table = linalg._insertions(rest, 7)
        assert len(table) == 7
        for j in range(1, 8):
            sign, merged = merge_sign((j,), rest)
            assert table[j - 1] == ((merged, int(sign < 0)) if sign else None)


@pytest.mark.parametrize("dim", range(1, 8))
def test_complement_sign_is_its_definition(dim):
    """e^idx ^ e^comp = sign * e^(1..dim), comp the indices not in idx."""
    vol = KForm.monomial(dim, tuple(range(1, dim + 1)))
    for k in range(dim + 1):
        for idx in basis_indices(dim, k):
            sign, comp = exterior.complement_sign(idx, dim)
            assert comp == tuple(i for i in range(1, dim + 1) if i not in idx)
            assert sign == sort_index(idx + comp)[0]
            assert wedge(KForm.monomial(dim, idx),
                         KForm.monomial(dim, comp)) == sign * vol


def mismatched_rows(minors, m, degrees):
    """Rows of C_k of the compound cache, k in degrees, that differ from the
    Leibniz minors."""
    n = len(m)
    return [ia for k in degrees for ia in basis_indices(n, k)
            if any(minors_of(minors, ia).get(ib, 0) != leibniz_det(m, ia, ib)
                   for ib in basis_indices(n, k))]


def test_dense_integer_compound_rows_are_leibniz_minors(monkeypatch):
    """Every row of C_k(m), k = 0..7, for a dense 7x7 m; the Hypothesis test
    above stops at n = 4.  Negative control: one insertion with its parity
    flipped, column 4 joining {2, 5}, makes a row of C_3 disagree."""
    minors = linalg.Compound(DENSE7)
    assert minors.den == 1
    assert mismatched_rows(minors, DENSE7, range(8)) == []
    table = linalg._insertions

    def flipped(rest, n):
        row = table(rest, n)
        if rest != (2, 5):
            return row
        col, odd = row[3]       # column 4 lands between 2 and 5
        return row[:3] + ((col, 1 - odd),) + row[4:]

    monkeypatch.setattr(linalg, "_insertions", flipped)
    minors = linalg.Compound(DENSE7)
    assert mismatched_rows(minors, DENSE7, range(3)) == []
    assert (1, 2, 5) in mismatched_rows(minors, DENSE7, [3])


def test_minors_of_the_inverse_metric_exact_and_float():
    """On the dense twist of n28_ext, C_k(g^-1) is exactly symmetric for
    k = 1..6, and each float minor, read off the float g^-1 as it is, lies
    within 1e-12 of the exact one relative to the largest minor of its
    degree."""
    _, phi = CASES["n28_ext"]
    twisted = Coframe(P_DENSE).form(phi)
    exact = metric_from_phi(twisted).metric.minors
    fmin = metric_from_phi(twisted.to_float()).metric.minors
    assert not linalg.is_symmetric(fmin.matrix)
    for k in range(1, 7):
        idx = basis_indices(7, k)
        rows = {ia: minors_of(exact, ia) for ia in idx}
        assert all(rows[ia].get(ib, 0) == rows[ib].get(ia, 0)
                   for ia in idx for ib in idx)
        scale = max(abs(x) for row in rows.values() for x in row.values())
        assert all(abs(fmin.row(ia).get(ib, 0.0) - rows[ia].get(ib, 0))
                   <= 1e-12 * scale for ia in idx for ib in idx)


def square(n):
    return st.lists(st.lists(rationals, min_size=n, max_size=n),
                    min_size=n, max_size=n).map(linalg.mat)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4).flatmap(square), st.data())
def test_pullback_is_a_wedge_homomorphism(m, data):
    n = len(m)
    a = data.draw(form_strategy(n, data.draw(st.integers(0, n))))
    b = data.draw(form_strategy(n, data.draw(st.integers(0, n - a.degree))))
    minors = linalg.Compound(m)
    assert pullback(wedge(a, b), minors) == \
        wedge(pullback(a, minors), pullback(b, minors))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.data())
def test_pullback_by_the_identity_is_the_identity(n, data):
    a = data.draw(form_strategy(n, data.draw(st.integers(0, n))))
    assert pullback(a, linalg.Compound(linalg.identity(n))) == a


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.data())
def test_pullback_composes_by_cauchy_binet(n, data):
    m1, m2 = data.draw(square(n)), data.draw(square(n))
    a = data.draw(form_strategy(n, data.draw(st.integers(0, n))))
    twice = pullback(pullback(a, linalg.Compound(m1)), linalg.Compound(m2))
    assert twice == pullback(a, linalg.Compound(linalg.mat_mul(m1, m2)))


@pytest.mark.parametrize("dim", [6, 7])
def test_hodge_defining_identity_dense_metric(dim):
    g = dense_metric(dim)
    assert any(off_diagonal(g.matrix))
    orient = Orientation.standard(dim)
    vol = KForm.monomial(dim, tuple(range(1, dim + 1)))
    for k in (1, 2, 3):
        idx = basis_indices(dim, k)
        for ia in idx:
            a = KForm.monomial(dim, ia)
            for ib in idx:
                b = KForm.monomial(dim, ib)
                lhs = wedge(a, hodge_star(b, g, orient))
                assert lhs == form_inner(a, b, g) * vol


def test_float_symmetry_tolerance_scales_with_entries():
    big = 966.4843506234333
    off = 0.25
    # asymmetry 2.2e-12: float rounding on entries near 1e3
    InnerProduct([[big, off + 2.2e-12], [off, 1.0]])
    with pytest.raises(ValueError):
        InnerProduct([[big, off + 1e-6], [off, 1.0]])
    with pytest.raises(ValueError):
        InnerProduct([[1.0, off + 2e-12], [off, 1.0]])


@given(form_strategy(6, 2), form_strategy(6, 2))
@settings(max_examples=30, deadline=None)
def test_wedge_graded_commutativity_two_forms(a, b):
    assert wedge(a, b) == wedge(b, a)


@given(form_strategy(6, 1), form_strategy(6, 3))
@settings(max_examples=30, deadline=None)
def test_wedge_anticommutes_odd(a, b):
    assert wedge(a, b) == (-1) * wedge(b, a)


@given(form_strategy(6, 1), form_strategy(6, 1), form_strategy(6, 2))
@settings(max_examples=25, deadline=None)
def test_wedge_associativity(a, b, c):
    assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))


def built_forms(ring):
    """An algebra, a 3-form, its star and a metric in one ring: the
    P_DENSE twist of n28_ext (exact and float) and the symbolic abelian_ext
    with a polynomial multiple of its phi."""
    if ring == "polynomial":
        algebra = catalog.abelian_scaling_extension().algebra
        phi = (Polynomial.variable("b") + 1) * catalog.abelian_ext_g2_form()
        g = InnerProduct.euclidean(7)
    else:
        c = Coframe(P_DENSE)
        algebra = c.algebra(catalog.n28_einstein_extension().algebra)
        phi = c.form(catalog.n28_ext_g2_form())
        g = InnerProduct(linalg.mat_mul(linalg.transpose(c.p), c.p))
        if ring == "float":
            algebra, phi, g = to_float_algebra(algebra), phi.to_float(), \
                g.to_float()
    orient = Orientation.standard(7)
    return algebra, phi, hodge_star(phi, g, orient), g, orient


def kernel_outputs(algebra, phi, star, g, orient):
    x = Vector(7, tuple(range(1, 8)))
    return ([wedge(phi, star), wedge(contract_basis(1, phi), phi),
             contract(x, phi), contract(x, star),
             pullback(phi, g.minors), pullback(star, g.minors),
             hodge_star(phi, g, orient), hodge_star(star, g, orient),
             algebra.d(phi), algebra.d(star)]
            + [contract_basis(i, a) for a in (phi, star)
               for i in range(1, 8)])


RINGS = ("exact", "float", "polynomial")


@pytest.mark.parametrize("ring", RINGS)
def test_contract_basis_is_contraction_by_a_basis_vector(ring):
    _, phi, star, _, _ = built_forms(ring)
    for a in (phi, star, KForm.monomial(7, (3,)), KForm.zero(7, 2)):
        for i in range(1, 8):
            got = contract_basis(i, a)
            reference = contract(Vector.basis(7, i), a)
            assert (got.dim, got.degree) == (reference.dim, reference.degree)
            assert got.coeffs == reference.coeffs
            assert [type(c) for c in got.coeffs.values()] == \
                [type(c) for c in reference.coeffs.values()]
    for contraction in (contract_basis,
                        lambda i, a: contract(Vector.basis(7, i), a)):
        with pytest.raises(DegreeError):
            contraction(1, KForm(7, 0, {(): 1}))


@pytest.mark.parametrize("ring", RINGS)
def test_kernels_on_built_forms_check_no_index(ring, monkeypatch):
    inputs = built_forms(ring)
    calls = []
    check = exterior._check_index
    monkeypatch.setattr(exterior, "_check_index",
                        lambda idx, dim: calls.append(idx) or check(idx, dim))
    outputs = kernel_outputs(*inputs)
    assert calls == []
    assert len(outputs) == 24
    # the counter sees the public constructor's checks
    KForm(7, 3, inputs[1].coeffs)
    assert len(calls) == len(inputs[1].coeffs)


@pytest.mark.parametrize("ring", RINGS)
def test_kernel_outputs_are_what_the_public_constructor_builds(ring):
    outputs = kernel_outputs(*built_forms(ring))
    for out in outputs:
        # the public constructor drops zeros, so no zero was stored
        rebuilt = KForm(out.dim, out.degree, out.coeffs)
        assert list(rebuilt.coeffs.items()) == list(out.coeffs.items())
        assert [type(c) for c in rebuilt.coeffs.values()] == \
            [type(c) for c in out.coeffs.values()]
    kinds = {type(c) for out in outputs for c in out.coeffs.values()}
    assert kinds == {"exact": {Fraction}, "float": {float},
                     "polynomial": {Polynomial}}[ring]


@given(st.lists(rationals, min_size=6, max_size=6),
       form_strategy(6, 2), form_strategy(6, 2))
@settings(max_examples=25, deadline=None)
def test_contraction_antiderivation(comps, a, b):
    x = Vector(6, tuple(comps))
    lhs = contract(x, wedge(a, b))
    rhs = wedge(contract(x, a), b) + wedge(a, contract(x, b))
    assert lhs == rhs


def test_codifferential_examples(einstein_ext):
    algebra = einstein_ext.algebra
    g = InnerProduct.euclidean(7)
    orient = Orientation.standard(7)
    zero_fn = KForm(7, 0, {(): Fraction(3)})
    assert codifferential(zero_fn, algebra.d, g, orient).is_zero()
    tau1 = KForm(7, 1, {(7,): Fraction(-1, 3)})
    delta = codifferential(tau1, algebra.d, g, orient)
    assert delta == KForm(7, 0, {(): Fraction(-4, 3)})
    # abelian: d = 0 so the adjoint vanishes
    from g2forge.liealg import LieAlgebra
    ab7 = LieAlgebra(7, [KForm.zero(7, 2)] * 7)
    e7 = KForm.monomial(7, (7,))
    assert codifferential(e7, ab7.d, g, orient).is_zero()


def test_render_roundtrip_probe():
    from g2forge.liealg import parse_form
    a = KForm.from_terms(6, 2, (Fraction(1, 2), 1, 3), (-1, 2, 4))
    text = render_form(a)
    assert parse_form(text, 6) == a
