import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from g2forge import catalog, linalg, stable_forms
from g2forge.exterior import (KForm, Orientation, basis_indices,
                              contract_basis, pullback, wedge)
from g2forge.liealg import to_float_algebra
from g2forge.survey import generic_form
from g2forge.scalars import Polynomial
from g2forge.stable_forms import (IncompatiblePairError, NotStableError,
                                  _quartic, almost_complex, coupling_constant,
                                  k_endomorphism, lambda_invariant,
                                  metric_from_pair, orientation_sign,
                                  su3_predicates)

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=3)


def n9_expected_j_matrix():
    """Published almost-complex-structure matrix for the n9 pair."""
    r = math.sqrt(2.0)
    return [
        [0, 0, -r, 0, 0, 0],
        [r, 0, 0, -r, 0, 0],
        [r / 2, 0, 0, 0, 0, 0],
        [0, r / 2, -r, 0, 0, 0],
        [r, 0, r / 2, r / 2, 0, r],
        [-r / 4, -r / 4, 3 * r / 2, 0, -r / 2, 0],
    ]


def n9_expected_metric():
    """Published induced metric for the n9 pair (positive definite)."""
    r = math.sqrt(2.0)
    return [
        [5 * r / 2, r / 8, r / 4, -r, 0, r],
        [r / 8, 5 * r / 8, -r / 4, 0, r / 4, 0],
        [r / 4, -r / 4, 7 * r / 4, r / 4, -r / 2, r / 2],
        [-r, 0, r / 4, r, 0, 0],
        [0, r / 4, -r / 2, 0, r / 2, 0],
        [r, 0, r / 2, 0, 0, r],
    ]


def test_k_endomorphism_examples(n28_pair):
    zero = KForm.zero(6, 3)
    k0 = k_endomorphism(zero)
    assert all(x == 0 for row in k0 for x in row)
    _, sigma = n28_pair
    k = k_endomorphism(sigma)
    ksq = [[sum(k[i][m] * k[m][j] for m in range(6)) for j in range(6)]
           for i in range(6)]
    for i in range(6):
        for j in range(6):
            assert ksq[i][j] == (-4 if i == j else 0)
    dec = KForm.monomial(6, (1, 2, 3))
    kd = k_endomorphism(dec)
    tr2 = sum(kd[i][j] * kd[j][i] for i in range(6) for j in range(6))
    assert tr2 == 0


def test_lambda_examples(n28_pair):
    _, sigma = n28_pair
    assert lambda_invariant(sigma) == -4
    assert lambda_invariant(KForm.monomial(6, (1, 2, 3))) == 0
    _, sigma9 = catalog.n9_coupled_pair()
    assert abs(lambda_invariant(sigma9) - (-225.0 / 64.0)) < 1e-10


@given(rationals.filter(lambda t: t != 0), st.integers(0, 10 ** 6))
@settings(max_examples=25, deadline=None)
def test_lambda_quartic_homogeneity(t, seed):
    import random
    rng = random.Random(seed)
    idx = basis_indices(6, 3)
    sigma = KForm(6, 3, {i: Fraction(rng.randint(-2, 2)) for i in idx})
    assert lambda_invariant(t * sigma) == t ** 4 * lambda_invariant(sigma)


@given(st.fractions(min_value=Fraction(1, 3), max_value=4, max_denominator=3))
@settings(max_examples=20, deadline=None)
def test_j_scale_invariance(t):
    _, sigma = catalog.n28_coupled_pair()
    j1 = almost_complex(sigma)
    j2 = almost_complex(t * sigma)
    assert j1 == j2


def test_almost_complex_requires_negative_lambda():
    with pytest.raises(NotStableError):
        almost_complex(KForm.monomial(6, (1, 2, 3)))


def test_orientation_divides_k_and_flips_j(n28_pair):
    # the orientation argument that remains, as benchmark/checks.py
    # n4_metric passes it: K is in units of the volume coefficient v0
    _, sigma = n28_pair
    vol = Orientation.standard(6).volume
    k, j = k_endomorphism(sigma), almost_complex(sigma)
    assert k_endomorphism(sigma, Orientation(2 * vol)) == \
        tuple(tuple(x / 2 for x in row) for row in k)
    assert almost_complex(sigma, Orientation(-1 * vol)) == \
        tuple(tuple(-x for x in row) for row in j)


def test_n28_pair_structure(n28_pair, n28):
    omega, sigma = n28_pair
    pair = metric_from_pair(omega, sigma)
    assert pair.metric.matrix == linalg.identity(6)
    assert pair.normalized and pair.positive
    assert pair.lambda_value == -4
    # J squares to minus the identity
    j = pair.J
    for i in range(6):
        for k in range(6):
            val = sum(j[i][m] * j[m][k] for m in range(6))
            assert val == (-1 if i == k else 0)
    verdict = su3_predicates(n28, omega, sigma)
    assert verdict.coupled_c == -1
    assert verdict.half_flat and verdict.stable


def test_n9_pair_matches_published_matrices():
    omega, sigma = catalog.n9_coupled_pair()
    pair = metric_from_pair(omega, sigma)
    j = np.array([[float(x) for x in row] for row in pair.J])
    h = np.array([[float(x) for x in row] for row in pair.metric.matrix])
    assert np.abs(j - np.array(n9_expected_j_matrix())).max() < 1e-10
    assert np.abs(h - np.array(n9_expected_metric())).max() < 1e-10
    assert pair.normalized and pair.positive
    algebra = catalog.algebra("n9")
    c = coupling_constant(algebra, omega, sigma)
    assert abs(c + 4 / (math.sqrt(15) * 2 ** 0.25)) < 1e-10
    verdict = su3_predicates(algebra, omega, sigma)
    assert verdict.half_flat


def test_metric_properties_of_positive_pairs(n28_pair):
    omega, sigma = n28_pair
    pair = metric_from_pair(omega, sigma)
    j, h = pair.J, pair.metric
    # h(Jx, Jy) = h(x, y) and omega(x, y) = h(x, Jy) on all basis pairs;
    # the published n9 matrices satisfy exactly these identities
    for a in range(6):
        for b in range(6):
            hj = sum(j[p][a] * h.matrix[p][q] * j[q][b]
                     for p in range(6) for q in range(6))
            assert hj == h.matrix[a][b]
            om_ab = omega[(a + 1, b + 1)] if a != b else Fraction(0)
            hbj = sum(h.matrix[a][p] * j[p][b] for p in range(6))
            assert om_ab == hbj


def test_abelian_pair_not_coupled(n28_pair):
    omega, sigma = n28_pair
    abelian = catalog.algebra("n34")
    verdict = su3_predicates(abelian, omega, sigma)
    assert verdict.coupled_c is None
    assert verdict.half_flat


def test_incompatible_pair_rejected():
    omega = KForm.from_terms(6, 2, (1, 1, 2), (1, 3, 4), (1, 5, 6))
    sigma = KForm.from_terms(6, 3, (1, 1, 2, 3))
    with pytest.raises((IncompatiblePairError, NotStableError)):
        metric_from_pair(omega, sigma)


def test_orientation_sign():
    omega, _ = catalog.n28_coupled_pair()
    assert orientation_sign(omega) == -1
    standard = KForm.from_terms(6, 2, (1, 1, 2), (1, 3, 4), (1, 5, 6))
    assert orientation_sign(standard) == 1
    with pytest.raises(NotStableError):
        orientation_sign(KForm.monomial(6, (1, 2)))


def test_coupled_implies_half_flat_randomized():
    # rescalings of the coupled pair stay coupled; the predicate must agree
    omega, sigma = catalog.n28_coupled_pair()
    algebra = catalog.algebra("n28")
    for t in (Fraction(1, 2), Fraction(2), Fraction(-3, 2)):
        omega_t = (t ** 2) * omega
        sigma_t = (t ** 3) * sigma
        verdict = su3_predicates(algebra, omega_t, sigma_t)
        assert verdict.coupled_c == Fraction(-1) / t
        assert verdict.half_flat


def test_pullback_fixes_compatible_omega(n28_pair):
    # the 2-form of an induced pair is of type (1,1): omega(J., J.) = omega
    omega, sigma = n28_pair
    pair = metric_from_pair(omega, sigma)
    assert pullback(omega, linalg.Compound(pair.J)) == omega
    om9, sg9 = catalog.n9_coupled_pair()
    pair9 = metric_from_pair(om9, sg9)
    assert (pullback(om9, linalg.Compound(pair9.J)) - om9).is_zero(1e-10)


def scaled_pair(name, ring, t):
    """The catalog pair of name under a scale change of the coframe,
    (omega, sigma) -> (t^2 omega, t^3 sigma), with its algebra; the float
    ring converts the algebra, the forms and t."""
    algebra = catalog.algebra(name)
    omega, sigma = (catalog.n28_coupled_pair() if name == "n28"
                    else catalog.n9_coupled_pair())
    if ring == "float":
        algebra = to_float_algebra(algebra)
        omega, sigma, t = omega.to_float(), sigma.to_float(), float(t)
    return algebra, t ** 2 * omega, t ** 3 * sigma


def close(a, b, tol=1e-9):
    return a == b if not isinstance(a, float) and not isinstance(b, float) \
        else abs(a - b) <= tol * max(abs(a), abs(b))


@pytest.mark.parametrize("t", [Fraction(1, 10 ** 4), Fraction(1, 100),
                               Fraction(1, 10), Fraction(10), Fraction(100),
                               Fraction(10 ** 4)], ids=str)
@pytest.mark.parametrize("ring", ["exact", "float"])
@pytest.mark.parametrize("name", ["n28", "n9"])
def test_verdicts_do_not_change_with_scale(name, ring, t):
    algebra, omega, sigma = scaled_pair(name, ring, 1)
    base = su3_predicates(algebra, omega, sigma)
    assert base.stable and base.compatible and base.normalized and \
        base.positive and base.half_flat and base.coupled_c is not None
    algebra, omega_t, sigma_t = scaled_pair(name, ring, t)
    v = su3_predicates(algebra, omega_t, sigma_t)
    for key in ("stable", "compatible", "normalized", "positive", "half_flat"):
        assert getattr(v, key) == getattr(base, key), key
    t = float(t) if ring == "float" else t
    assert close(v.lambda_value, t ** 12 * base.lambda_value)
    assert close(v.coupled_c, base.coupled_c / t)
    h = metric_from_pair(omega, sigma).metric.matrix
    h_t = metric_from_pair(omega_t, sigma_t).metric.matrix
    assert all(close(x_t, t ** 2 * x) or abs(x_t - t ** 2 * x) <= 1e-12 * t ** 2
               for r_t, r in zip(h_t, h) for x_t, x in zip(r_t, r))


def k_by_wedge(sigma):
    """Reference: column j of K is A(i_{e_j} sigma ^ sigma), one generic
    wedge per column, with A(e^(full - m)) = (-1)^(m-1) e_m and zero
    entries Fraction(0)."""
    cols = []
    for j in range(1, 7):
        w = [Fraction(0)] * 6
        for idx, c in wedge(contract_basis(j, sigma), sigma).coeffs.items():
            (m,) = set(range(1, 7)) - set(idx)
            w[m - 1] = c * (-1) ** (m - 1)
        cols.append(w)
    return tuple(tuple(cols[j][i] for j in range(6)) for i in range(6))


def typed(k):
    return [(type(x), x) for row in k for x in row]


def random_sigma(rng, value):
    """A 3-form on a random subset of the 20 triples, with coefficients
    value(rng)."""
    triples = rng.sample(basis_indices(6, 3), rng.randint(0, 20))
    return KForm(6, 3, {t: value(rng) for t in triples})


def rational(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 6))


def exact_sigmas():
    """The survey sigmas d(omega) and c d(omega) at the generic omega on the
    24 algebras, the symbolic abelian_ext pair's sigma times its parameter
    a, random rational sigmas and the generic 20-symbol sigma."""
    domega = [catalog.algebra(name).d(generic_form(2, "b"))
              for name in catalog.TABLE_ORDER]
    c = Polynomial.variable("c")
    phi = catalog.abelian_ext_g2_form()
    abelian = KForm(6, 3, {idx: x for idx, x in phi.coeffs.items()
                           if 7 not in idx})
    rng = random.Random(25)
    return (domega + [c * s for s in domega]
            + [Polynomial.variable("a") * abelian, abelian]
            + [random_sigma(rng, rational) for _ in range(40)]
            + [generic_form(3, "s")])


def test_k_from_the_polarization_table_is_the_wedge_route():
    """Exact and polynomial sigma: the same entries, types included."""
    for sigma in exact_sigmas():
        assert typed(k_endomorphism(sigma)) == typed(k_by_wedge(sigma))


def test_float_k_from_the_table_is_within_rounding_of_the_wedge_route():
    """The table sums each entry in its own order: within 1e-13 max|K| of
    the wedge route, and bitwise on integer-valued coefficients."""
    rng = random.Random(7)
    for _ in range(100):
        sigma = random_sigma(rng, lambda r: r.uniform(-10, 10))
        got, want = k_endomorphism(sigma), k_by_wedge(sigma)
        bound = 1e-13 * max([abs(x) for row in want for x in row] + [1.0])
        assert all(type(x) is float or x == 0 for row in got for x in row)
        assert all(abs(x - y) <= bound for rg, rw in zip(got, want)
                   for x, y in zip(rg, rw))
        ints = random_sigma(rng, lambda r: float(r.randint(-9, 9)))
        assert typed(k_endomorphism(ints)) == typed(k_by_wedge(ints))
    for sigma in (catalog.n28_coupled_pair()[1], catalog.n9_coupled_pair()[1]):
        sigma = sigma.to_float()
        assert typed(k_endomorphism(sigma)) == typed(k_by_wedge(sigma))


def test_a_flipped_table_entry_breaks_the_match(monkeypatch):
    """Negative control: the sign of any one of the 150 entries matters."""
    table = stable_forms._k_table()
    assert len(table) == 100 and sum(len(e) for _, _, e in table) == 150
    rng = random.Random(3)
    sigma = KForm(6, 3, {t: Fraction(rng.choice([-2, -1, 1, 2, 3]))
                         for t in basis_indices(6, 3)})
    want = k_by_wedge(sigma)
    assert k_endomorphism(sigma) == want
    for p, (a, b, entries) in enumerate(table):
        for e, (mj, coef) in enumerate(entries):
            flipped = entries[:e] + ((mj, -coef),) + entries[e + 1:]
            bad = table[:p] + ((a, b, flipped),) + table[p + 1:]
            monkeypatch.setattr(stable_forms, "_k_table", lambda: bad)
            assert k_endomorphism(sigma) != want


def count_products(monkeypatch):
    """Record each product of two polynomials."""
    calls = []
    original = Polynomial.__mul__

    def counted(self, other):
        if isinstance(other, Polynomial):
            calls.append(1)
        return original(self, other)

    monkeypatch.setattr(Polynomial, "__mul__", counted)
    return calls


def test_k_and_lambda_make_each_product_once(monkeypatch):
    """K makes each s_I s_J of a present pair once, at most 100 (the wedge
    route made 240 on the generic sigma), and lambda 21 of the K_ij K_ji."""
    calls = count_products(monkeypatch)
    generic = generic_form(3, "s")
    k = k_endomorphism(generic)
    assert len(calls) == 100
    del calls[:]
    _quartic(k)
    assert len(calls) == 21
    for name in catalog.TABLE_ORDER:
        del calls[:]
        k = k_endomorphism(catalog.algebra(name).d(generic_form(2, "b")))
        assert len(calls) <= 100
        del calls[:]
        _quartic(k)
        assert len(calls) <= 21


def test_float_algebra_decides_the_d_test_of_an_exact_omega():
    """d(omega) on a float algebra is float even for an exact omega: here
    -(0.1 + 0.2 - 0.3) e123, a rounding residue of a true zero.  The bound
    reads the structure constants, so the residue is zero and sigma = e123
    is not coupled at c = -5.6e-17."""
    from g2forge.liealg import parse_structure_equations
    algebra = parse_structure_equations("(0,0,0,0.1*e12,0.2*e12,0.3*e12)")
    omega = KForm.from_terms(6, 2, (1, 3, 4), (1, 3, 5), (-1, 3, 6))
    assert not algebra.d(omega).is_zero()
    sigma = KForm.from_terms(6, 3, (1, 1, 2, 3))
    assert coupling_constant(algebra, omega, sigma) is None
