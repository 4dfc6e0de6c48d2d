"""Invariance of the G2 analysis under integer changes of coframe.

A structure on the coframe e^1..e^7 is rewritten on f = P e with P an
integer matrix of determinant 1, so Q = P^-1 is integral, the orientation
is kept and the exact ring stays exact.  Substituting e^j = sum_i Q[j][i] f^i
rewrites every form; the induced metric becomes dense.  Torsion class,
tau0, the norms |tau_i|^2, the scalar curvature and the star-Ricci trace
are invariants and must not change.
"""
import dataclasses
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import pytest

from g2forge import catalog, exterior, linalg, scalars
from g2forge.curvature import curvature_tensors
from g2forge import g2
from g2forge.exterior import (KForm, basis_indices, contract_basis, form_inner,
                              pullback, wedge)
from g2forge.g2 import (TorsionInconsistencyError, metric_from_phi,
                        star_ricci, torsion_forms, two_form_components)
from g2forge.liealg import (LieAlgebra, MetricLieAlgebra,
                            parse_structure_equations, specialize,
                            to_float_algebra)
from g2forge.stable_forms import metric_from_pair

# dense: every entry of P^-1 is nonzero
P_DENSE = ((1, 0, -1, 0, 1, 0, -1),
           (-1, 1, 0, 0, -1, 0, 1),
           (1, -1, 1, 0, 1, -1, -1),
           (1, -1, -1, 1, 2, 1, -1),
           (1, 1, -2, -1, 1, -1, 0),
           (0, 0, -1, 1, 1, 2, 1),
           (-1, 1, 1, 1, -1, 1, 2))
# dense in dimension six: every entry of P^-1 is nonzero
P6_DENSE = ((1, -1, -1, 0, 0, -1),
            (1, 0, -2, -1, 1, -2),
            (0, 0, 1, 1, 0, 0),
            (-1, 1, 2, 2, 1, 1),
            (1, -2, -1, -1, -1, 1),
            (0, 0, 1, 1, 1, 2))
# a few shears
P_SHEAR = ((1, 1, 0, 0, 0, 0, 0),
           (0, 1, 0, 0, 0, 0, -1),
           (0, 0, 1, 2, 0, 0, 0),
           (0, 0, 0, 1, 0, 0, 0),
           (1, 0, 0, 0, 1, 0, 0),
           (0, 0, 0, 0, 0, 1, 1),
           (0, 0, 0, 0, 0, 0, 1))
# a worse-conditioned twist: max|g| max|g^-1| is 6.9e3 on the CASES, against
# 540 for P_DENSE
P_DENSE_SHEAR = linalg.mat_mul(linalg.mat(P_DENSE), linalg.mat(P_SHEAR))


class Coframe:
    """The change of coframe f = P e for an integer P with det P = 1."""

    def __init__(self, p):
        self.p = linalg.mat(p)
        assert linalg.det(self.p) == 1
        self.q = linalg.inverse(self.p)
        assert all(x.denominator == 1 for row in self.q for x in row)
        n = len(p)
        # e^j written on the new coframe
        self.old_on_new = [KForm(n, 1, {(i + 1,): self.q[j][i]
                                        for i in range(n)})
                           for j in range(n)]

    def form(self, a: KForm) -> KForm:
        out = KForm.zero(a.dim, a.degree)
        for idx, c in a.coeffs.items():
            term = KForm(a.dim, 0, {(): c})
            for j in idx:
                term = wedge(term, self.old_on_new[j - 1])
            out = out + term
        return out

    def algebra(self, alg: LieAlgebra) -> LieAlgebra:
        """df^i = sum_j P[i][j] de^j, rewritten on f (Jacobi re-checked)."""
        n = alg.dim
        forms = []
        for i in range(n):
            de = KForm.zero(n, 2)
            for j in range(n):
                de = de + self.p[i][j] * alg.d_coframe[j]
            forms.append(self.form(de))
        return LieAlgebra(n, forms)


def twisted_n28_pair():
    """The n28 algebra and its coupled pair on the coframe P6_DENSE e."""
    c = Coframe(P6_DENSE)
    omega, sigma = catalog.n28_coupled_pair()
    return c.algebra(catalog.algebra("n28")), c.form(omega), c.form(sigma)


def off_diagonal(m):
    """The entries of a square matrix off its diagonal."""
    return [x for i, row in enumerate(m) for j, x in enumerate(row) if i != j]


def abelian_ext_at(a: Fraction) -> LieAlgebra:
    return specialize(catalog.abelian_scaling_extension().algebra, {"a": a})


CASES = {
    "n28_ext": (catalog.n28_einstein_extension().algebra,
                catalog.n28_ext_g2_form()),
    "abelian_ext": (abelian_ext_at(Fraction(2, 3)),
                    catalog.abelian_ext_g2_form()),
}
# the standard phi on a nilpotent algebra: tau1, tau2 and tau3 are nonzero
GENERIC = (parse_structure_equations("(0,0,0,0,e12,e13,e14+e23)"),
           catalog.standard_g2_form())


def invariants(algebra: LieAlgebra, phi: KForm):
    s = metric_from_phi(phi)
    t = torsion_forms(algebra, phi, s)
    g = s.metric
    m = MetricLieAlgebra(algebra, g)
    tensors = curvature_tensors(m)
    return {
        "class": t.class_label,
        "tau0": t.tau0,
        "norms": [form_inner(x, x, g) for x in (t.tau1, t.tau2, t.tau3)],
        "scal": tensors.scal,
        "star_ricci_trace": star_ricci(m, phi, s, tensors=tensors).trace,
    }


@pytest.fixture(scope="module")
def reference():
    return {name: invariants(*case) for name, case in CASES.items()}


@pytest.mark.parametrize("p", [P_DENSE, P_SHEAR], ids=["dense", "shear"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_g2_invariants_under_change_of_coframe(reference, name, p):
    algebra, phi = CASES[name]
    c = Coframe(p)
    twisted_phi = c.form(phi)
    twisted = invariants(c.algebra(algebra), twisted_phi)
    assert any(off_diagonal(metric_from_phi(twisted_phi).metric.matrix))
    assert twisted == reference[name]


def test_dense_twist_reads_each_minor_once(monkeypatch):
    """Every minor comes from a compound cache that builds each row once."""
    rows = Counter()
    caches = []     # kept alive, so that an id names one matrix
    outside = []
    expand = linalg.Compound._expand
    submatrix_det = linalg.submatrix_det

    def counted_expand(self, idx):
        caches.append(self)
        rows[id(self), idx] += 1
        return expand(self, idx)

    def counted_submatrix_det(m, r, c):
        outside.append((tuple(r), tuple(c)))
        return submatrix_det(m, r, c)

    monkeypatch.setattr(linalg.Compound, "_expand", counted_expand)
    monkeypatch.setattr(linalg, "submatrix_det", counted_submatrix_det)
    algebra, phi = CASES["n28_ext"]
    c = Coframe(P_DENSE)
    t = torsion_forms(c.algebra(algebra), c.form(phi))
    assert t.class_label == "locally_conformal_calibrated"
    _, omega, sigma = twisted_n28_pair()
    pair = metric_from_pair(omega, sigma)
    assert pair.normalized and pair.positive
    assert rows and max(rows.values()) == 1
    assert outside == []


def test_index_tables_hold_one_key_per_index_set():
    """The insertion table of the compound cache and complement_sign are
    keyed by index sets, never by matrix values: after the dense-twist
    analyses they hold at most 2**n keys per dimension n, so memory stays
    flat whatever the input."""
    tables = (linalg._insertions, exterior.complement_sign)
    for table in tables:
        table.cache_clear()
    algebra, phi = CASES["n28_ext"]
    for p in (P_DENSE, P_DENSE_SHEAR):
        c = Coframe(p)
        t = torsion_forms(c.algebra(algebra), c.form(phi))
        assert t.class_label == "locally_conformal_calibrated"
        assert all(0 < table.cache_info().currsize <= 2 ** 7
                   for table in tables)
    _, omega, sigma = twisted_n28_pair()
    assert metric_from_pair(omega, sigma).positive
    assert all(table.cache_info().currsize <= 2 ** 7 + 2 ** 6
               for table in tables)


def test_metric_from_phi_reads_det_and_positivity_from_one_compound(
        monkeypatch):
    """det B and the Sylvester chain of sign * B come from one cache over B:
    the trailing minors of sign * B are sign^k those of B."""
    _, phi = CASES["n28_ext"]
    # phi -> 8 phi gives g -> 4 g and B -> 2^9 B, so the metric's own
    # determinant is not read from a matrix equal to B
    phi = Coframe(P_DENSE).form(phi) * 8
    b = g2.b_form(phi)
    minus_b = tuple(tuple(-x for x in row) for row in b)
    over = []
    init = linalg.Compound.__init__

    def counted_init(self, m):
        over.append(tuple(map(tuple, m)))
        init(self, m)

    monkeypatch.setattr(linalg.Compound, "__init__", counted_init)
    s = metric_from_phi(phi)
    assert any(off_diagonal(s.metric.matrix)) and s.metric.matrix != b
    assert sum(m in (b, minus_b) for m in over) == 1


def test_dense_twist_computes_each_gram_entry_once(monkeypatch):
    algebra, phi = CASES["n28_ext"]
    c = Coframe(P_DENSE)
    algebra, phi = c.algebra(algebra), c.form(phi)
    calls = []

    def counted_form_inner(a, b, g):
        calls.append(1)
        return form_inner(a, b, g)

    solves = []

    def counted(name):
        fn = getattr(linalg, name)

        def wrapper(*args, **kwargs):
            solves.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for name in ("solve", "nullspace"):
        monkeypatch.setattr(linalg, name, counted(name))
    monkeypatch.setattr(g2, "form_inner", counted_form_inner)
    torsion_forms(algebra, phi)
    # the Lambda^3_1 coefficient of *d phi (<*d phi, phi> and |phi|^2), then
    # per 7-part the 7 inner products with the i_X phi or i_X *phi: their
    # Gram matrices are 3 g and 4 g
    assert len(calls) == 2 + 2 * 7
    assert solves == []


def test_pullback_by_q_is_the_change_of_coframe():
    """Coframe.form substitutes e^j = sum_i Q[j][i] f^i, which is the
    pullback by Q = P^-1, in every degree."""
    c = Coframe(P_DENSE)
    minors = linalg.Compound(c.q)
    for _, phi in CASES.values():
        assert pullback(phi, minors) == c.form(phi)
    for k in range(8):
        a = KForm(7, k, {idx: Fraction(i + 1, 2) for i, idx in
                         enumerate(basis_indices(7, k)) if i % 3 != 1})
        assert pullback(a, minors) == c.form(a)


def test_float_ring_on_dense_twist_matches_exact(reference):
    # float rounding grows with max|g| max|g^-1|: 540, then 6.9e3
    for p, tau0_tol in ((P_DENSE, 1e-9), (P_DENSE_SHEAR, 1e-8)):
        algebra, phi = CASES["n28_ext"]
        c = Coframe(p)
        algebra = to_float_algebra(c.algebra(algebra))
        phi = c.form(phi).to_float()
        t = torsion_forms(algebra, phi, tol=1e-10)
        assert t.class_label == reference["n28_ext"]["class"]
        assert abs(t.tau0 - reference["n28_ext"]["tau0"]) <= tau0_tol
        # negative control: a *phi that is off by 1e-6 must not close
        s = metric_from_phi(phi)
        bent = dataclasses.replace(
            s, star_phi=s.star_phi + KForm(7, 4, {(1, 2, 3, 4): 1e-6}))
        with pytest.raises(TorsionInconsistencyError):
            torsion_forms(algebra, phi, bent, tol=1e-10)


TWISTS = {"identity": None, "dense": P_DENSE, "dense_shear": P_DENSE_SHEAR}
INPUTS = dict(CASES, generic=GENERIC)


@lru_cache(maxsize=None)
def exact_class(name):
    return torsion_forms(*INPUTS[name]).class_label


@pytest.mark.parametrize("c", [Fraction(1, 1000), Fraction(1), Fraction(1000)],
                         ids=str)
@pytest.mark.parametrize("twist", sorted(TWISTS))
@pytest.mark.parametrize("name", sorted(INPUTS))
def test_float_class_matches_exact_on_twists_and_scales(name, twist, c):
    """The float class of c^3 phi on a twisted coframe is the exact class of
    phi, for max|g| max|g^-1| up to 6.9e3 (P_DENSE_SHEAR).  The float ring
    still raises on P_DENSE P_SHEAR^2 (4.4e4) and P_DENSE^2 (4.3e5)."""
    algebra, phi = INPUTS[name]
    if TWISTS[twist] is not None:
        coframe = Coframe(TWISTS[twist])
        algebra, phi = coframe.algebra(algebra), coframe.form(phi)
    t = torsion_forms(to_float_algebra(algebra), (phi * c ** 3).to_float(),
                      tol=1e-10)
    assert t.class_label == exact_class(name)


def test_float_type_projection_on_dense_twist_matches_exact():
    _, phi = CASES["n28_ext"]
    phi = Coframe(P_DENSE).form(phi)
    s_exact, s_float = metric_from_phi(phi), metric_from_phi(phi.to_float())
    exact, _ = two_form_components(
        contract_basis(1, contract_basis(2, s_exact.star_phi)), s_exact)
    approx, _ = two_form_components(
        contract_basis(1, contract_basis(2, s_float.star_phi)), s_float)
    assert not exact["14"].is_zero() and not exact["7"].is_zero()
    for part in ("7", "14"):
        diff = approx[part] - exact[part].to_float()
        assert diff.is_zero(1e-8)
    # negative control: a 14-part that is off by 1e-6 must not pass
    bent = dataclasses.replace(
        s_float, star_phi=s_float.star_phi + KForm(7, 4, {(1, 2, 3, 4): 1e-6}))
    with pytest.raises(TorsionInconsistencyError, match="14-part"):
        two_form_components(
            contract_basis(1, contract_basis(2, s_float.star_phi)), bent)


def scaled_analysis(name, c, ring):
    """metric_from_phi, torsion_forms and Scal of c^3 phi."""
    algebra, phi = CASES[name]
    phi = phi * c ** 3
    if ring == "float":
        algebra, phi = to_float_algebra(algebra), phi.to_float()
    s = metric_from_phi(phi)
    t = torsion_forms(algebra, phi, s)
    return s, t, curvature_tensors(MetricLieAlgebra(algebra, s.metric)).scal


@pytest.mark.parametrize("ring", ["exact", "float"])
@pytest.mark.parametrize("c", [Fraction(1, 1000), Fraction(1, 10),
                               Fraction(1, 2), Fraction(2), Fraction(10),
                               Fraction(1000)], ids=str)
@pytest.mark.parametrize("name", sorted(CASES))
def test_scale_covariance(name, c, ring):
    """phi -> c^3 phi keeps positivity and the class, and gives g -> c^2 g,
    tau0 -> tau0/c and Scal -> Scal/c^2, in either ring."""
    s1, t1, scal1 = scaled_analysis(name, Fraction(1), ring)
    sc, tc, scalc = scaled_analysis(name, c, ring)

    def close(a, b):
        return scalars.eq(a, b, 1e-9 * max(1, abs(b)))

    assert tc.class_label == t1.class_label
    assert all(close(x, c ** 2 * y) for rx, ry in
               zip(sc.metric.matrix, s1.metric.matrix) for x, y in zip(rx, ry))
    assert close(tc.tau0, t1.tau0 / c)
    assert close(scalc, scal1 / c ** 2)
