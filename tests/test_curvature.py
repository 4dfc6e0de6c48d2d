import functools
import hashlib
from fractions import Fraction
from itertools import combinations, product
from types import SimpleNamespace

import pytest

from g2forge import catalog, curvature, linalg
from g2forge.curvature import (CurvatureTensors, NilsolitonWitness,
                               curvature_tensors, einstein_constant,
                               levi_civita, nilsoliton_check, ricci_operator)
from g2forge.exterior import (InnerProduct, KForm, basis_indices,
                              contract_basis, form_inner, pullback,
                              render_form, scaled)
from g2forge.g2 import metric_from_phi, star_ricci, torsion_forms
from g2forge.cli import main
from g2forge.liealg import (MetricLieAlgebra, derivation_defect,
                            derivation_space, is_derivation, is_nilpotent,
                            parse_structure_equations, to_float_algebra)
from g2forge.scalars import Polynomial, is_zero
from test_coframe import (CASES, INPUTS, P6_DENSE, P_DENSE, P_DENSE_SHEAR,
                          P_SHEAR, Coframe, off_diagonal)
from test_exterior import leibniz_det
from test_liealg import (exact_entry, is_derivation_by_brackets,
                         structure_constants, times)


def euclidean(name):
    return MetricLieAlgebra.euclidean(catalog.algebra(name))


@functools.lru_cache(maxsize=None)
def induced(name, p=None):
    """A CASES structure with the metric of its phi, after the change of
    coframe p if one is given: a dense metric for P_DENSE."""
    algebra, phi = CASES[name]
    if p is not None:
        c = Coframe(p)
        algebra, phi = c.algebra(algebra), c.form(phi)
    return MetricLieAlgebra(algebra, metric_from_phi(phi).metric)


def twisted():
    """The non-diagonal inputs: the P_DENSE twists of both CASES."""
    return [induced(name, P_DENSE) for name in sorted(CASES)]


def besse_ricci(m, quarter=Fraction(1, 4)):
    """Ric of a left-invariant metric in closed form (Besse, Einstein
    Manifolds, 7.38; Milnor, Curvatures of left invariant metrics on Lie
    groups, 1976), polarized and written with g^-1, so that it needs no
    orthonormal basis and stays rational:

        Ric(X,Y) = -1/2 sum g^ab g([X,e_a],[Y,e_b]) - 1/2 B(X,Y)
                   + 1/4 sum g^ac g^bd g([e_a,e_b],X) g([e_c,e_d],Y)
                   - 1/2 (g([H,X],Y) + g([H,Y],X)),

    with B the Killing form and g(H,X) = tr ad_X.  ``quarter`` replaces the
    1/4, for the negative control.  Independent of the library's
    connection: only the structure constants and g enter.
    """
    g, ginv = m.metric.matrix, m.metric.inverse
    c = structure_constants(m.algebra)      # [e_i, e_j] = sum_k c[k][i][j] e_k
    r = range(m.algebra.dim)
    # low[a][b][x] = g([e_a, e_b], e_x); up raises a and b
    low = [[[sum(c[k][a][b] * g[k][x] for k in r) for x in r] for b in r]
           for a in r]
    half = [[[sum(ginv[b][q] * low[p][q][x] for q in r) for x in r]
             for b in r] for p in r]
    up = [[[sum(ginv[a][p] * half[p][b][x] for p in r) for x in r]
           for b in r] for a in r]
    # adup[y][a][l] = e^l([e_y, g^ab e_b])
    adup = [[[sum(ginv[a][b] * c[l][y][b] for b in r) for l in r] for a in r]
            for y in r]
    h = [sum(ginv[a][b] * sum(c[k][b][k] for k in r) for b in r) for a in r]
    # hx[x][y] = g([H, e_x], e_y)
    hx = [[sum(h[a] * low[a][x][y] for a in r) for y in r] for x in r]

    def ric(x, y):
        brackets = sum(low[x][a][l] * adup[y][a][l] for a in r for l in r)
        killing = sum(c[k][x][j] * c[j][y][k] for j in r for k in r)
        squares = sum(low[a][b][x] * up[a][b][y] for a in r for b in r)
        return (-brackets / 2 - killing / 2 + quarter * squares
                - (hx[x][y] + hx[y][x]) / 2)

    return tuple(tuple(ric(x, y) for y in r) for x in r)


COFRAMES = {"identity": None, "dense": P_DENSE, "shear": P_SHEAR}
# the 24 euclidean NILPOTENT6 algebras, the n28 Einstein extension and both
# CASES with their induced metrics in three coframes: 31 inputs
BESSE_INPUTS = sorted(catalog.NILPOTENT6) + ["n28_einstein_extension"] + [
    "%s-%s" % (name, label) for name in sorted(CASES) for label in COFRAMES]


def besse_input(key):
    if key in catalog.NILPOTENT6:
        return euclidean(key)
    if key == "n28_einstein_extension":
        return catalog.n28_einstein_extension()
    name, label = key.split("-")
    return induced(name, COFRAMES[label])


def test_levi_civita_examples(n28):
    abelian = euclidean("n34")
    assert all(x == 0 for ni in levi_civita(abelian).matrices
               for row in ni for x in row)
    m28 = MetricLieAlgebra.euclidean(n28)
    # column j of N_i is nabla_{e_i} e_j: nabla_{e1} e3 = -1/2 e5
    n1 = levi_civita(m28).matrices[0]
    assert n1[4][2] == Fraction(-1, 2)
    assert all(n1[k][2] == 0 for k in range(6) if k != 4)
    ext = catalog.abelian_scaling_extension()
    n1 = levi_civita(ext).matrices[0]
    a = Polynomial.variable("a")
    assert n1[6][0] == a
    assert n1[0][6] == -1 * a


def connection_satisfies_invariants(m):
    """Metric compatibility (g N_i is antisymmetric) and torsion-freeness
    (nabla_i e_j - nabla_j e_i = [e_i, e_j]) of the Koszul connection."""
    n, nab = m.algebra.dim, levi_civita(m).matrices
    c = structure_constants(m.algebra)
    lows = [linalg.mat_mul(m.metric.matrix, nm) for nm in nab]
    return all(is_zero(low[j][k] + low[k][j])
               for low in lows for j in range(n) for k in range(j, n)) and \
        all(is_zero(nab[i][k][j] - nab[j][k][i] - c[k][i][j])
            for i in range(n) for j in range(i + 1, n) for k in range(n))


def test_connection_invariants(n28, einstein_ext):
    assert connection_satisfies_invariants(MetricLieAlgebra.euclidean(n28))
    assert connection_satisfies_invariants(einstein_ext)
    assert connection_satisfies_invariants(catalog.abelian_scaling_extension())
    for m in twisted():
        assert any(off_diagonal(m.metric.matrix))
        assert connection_satisfies_invariants(m)


def test_ricci_n28(n28):
    t = curvature_tensors(MetricLieAlgebra.euclidean(n28))
    expected = [-1, -1, -1, -1, 1, 1]
    for i in range(6):
        for j in range(6):
            assert t.ricci[i][j] == (expected[i] if i == j else 0)
    assert t.scal == -2


def test_einstein_extension_curvature(einstein_ext):
    t = curvature_tensors(einstein_ext)
    for i in range(7):
        for j in range(7):
            assert t.ricci[i][j] == (-3 if i == j else 0)
    assert t.scal == -21
    assert einstein_constant(einstein_ext, t) == -3


def test_polynomial_family_curvature():
    ext = catalog.abelian_scaling_extension()
    t = curvature_tensors(ext)
    a = Polynomial.variable("a")
    expected = -6 * a ** 2
    for i in range(7):
        for j in range(7):
            assert t.ricci[i][j] == (expected if i == j else Polynomial.zero())
    assert t.scal == -42 * a ** 2
    assert einstein_constant(ext, t) == expected


def test_einstein_negative_case(n28):
    assert einstein_constant(MetricLieAlgebra.euclidean(n28)) is None
    abelian = euclidean("n34")
    assert einstein_constant(abelian) == 0


def einstein_grid():
    """33 metric algebras: the catalog entries with the identity metric
    (n28_ext with its own), and the P_DENSE and P_DENSE_SHEAR twists of the
    INPUTS with the metric of phi."""
    grid = {}
    for name in catalog.names():
        algebra = exact_entry(name)
        grid[name] = (algebra, catalog.n28_einstein_extension().metric
                      if name == "n28_ext" else
                      InnerProduct.euclidean(algebra.dim))
    for name, (algebra, phi) in INPUTS.items():
        for twist, p in (("dense", P_DENSE), ("dense_shear", P_DENSE_SHEAR)):
            c = Coframe(p)
            grid[name, twist] = (c.algebra(algebra),
                                 metric_from_phi(c.form(phi)).metric)
    return grid


@pytest.mark.parametrize("k", [-6, 0, 6])
def test_einstein_verdicts_agree_across_rings(k):
    """With the structure constants times 10^k, the float constant is the
    exact one or both are None: float entries of Ric - lambda g are bounded
    by kappa tol max|c|^2, not by the absolute tol."""
    found = {}
    for key, (algebra, g) in einstein_grid().items():
        algebra = times(algebra, Fraction(10) ** k)
        exact = einstein_constant(MetricLieAlgebra(algebra, g))
        approx = einstein_constant(MetricLieAlgebra(to_float_algebra(algebra),
                                                    g.to_float()))
        assert (exact is None) == (approx is None), key
        if exact is not None:
            assert abs(approx - exact) <= 1e-9 * abs(exact), key
            found[key] = exact
    assert len(found) == 7
    if k == 0:
        assert found["n28_ext", "dense_shear"] == -3
        assert found["abelian_ext", "dense_shear"] == Fraction(-8, 3)


def test_a_small_heisenberg_metric_is_not_einstein():
    # Ric = c^2/2 diag(-1, -1, 1) for c = 1e-6 lies within an absolute
    # 1e-10 of -5e-13 g
    for text in ("(0,0,1/1000000*e12)", "(0,0,0.000001*e12)"):
        m = MetricLieAlgebra.euclidean(parse_structure_equations(text))
        assert einstein_constant(m) is None


@pytest.mark.parametrize("scale", [Fraction(1, 10 ** 13), Fraction(10 ** 13)],
                         ids=["1e-13", "1e13"])
@pytest.mark.parametrize("ring", ["exact", "float"])
def test_levi_civita_accepts_a_metric_of_any_scale(ring, scale):
    """The positivity floor scales with g: n28 with the metric t I is a
    nilsoliton with c = -3 / t in both rings."""
    g = InnerProduct.diagonal([scale] * 6)
    m = MetricLieAlgebra(catalog.algebra("n28"), g)
    if ring == "float":
        m = MetricLieAlgebra(to_float_algebra(m.algebra), g.to_float())
    levi_civita(m)
    w = nilsoliton_check(m)
    assert abs(w.constant * scale + 3) <= 1e-12


def test_riemann_symmetries(n28, einstein_ext):
    for m in [MetricLieAlgebra.euclidean(n28), einstein_ext] + twisted():
        t = curvature_tensors(m)
        r = t.riemann
        n = m.algebra.dim
        get = lambda i, j, k, l: r.get((i, j, k, l), Fraction(0))
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                for k in range(1, n + 1):
                    for l in range(1, n + 1):
                        assert get(i, j, k, l) == -get(j, i, k, l)
                        assert get(i, j, k, l) == -get(i, j, l, k)
                        assert get(i, j, k, l) == get(k, l, i, j)
                        bianchi = (get(i, j, k, l) + get(j, k, i, l)
                                   + get(k, i, j, l))
                        assert bianchi == 0


def test_trace_of_ricci_is_scal():
    for name in ("n28", "n6", "n34", "n9"):
        m = euclidean(name)
        t = curvature_tensors(m)
        assert sum(t.ricci[i][i] for i in range(6)) == t.scal


def test_abelian_is_flat():
    t = curvature_tensors(euclidean("n34"))
    assert not t.riemann
    assert all(x == 0 for row in t.ricci for x in row)


def test_nilsoliton_n28(n28):
    w = nilsoliton_check(MetricLieAlgebra.euclidean(n28))
    assert w is not None
    assert w.constant == -3
    expected = [2, 2, 2, 2, 4, 4]
    for i in range(6):
        for j in range(6):
            assert w.derivation[i][j] == (expected[i] if i == j else 0)
    from g2forge.liealg import is_derivation
    assert is_derivation(n28, w.derivation)


def test_nilsoliton_abelian():
    w = nilsoliton_check(euclidean("n34"))
    assert w is not None and w.constant == 0
    assert all(x == 0 for row in w.derivation for x in row)


def test_nilsoliton_n9_soliton_frame():
    m = MetricLieAlgebra.euclidean(catalog.n9_nilsoliton_frame())
    w = nilsoliton_check(m, tol=1e-8)
    assert w is not None
    from g2forge.liealg import is_derivation
    assert is_derivation(m.algebra, w.derivation)


def test_n9_soliton_metric_has_the_exact_witness():
    """g0 = diag(1, 1, 5/4, 5/4, 5/4, 25/16) on the catalog n9: Ric = c g0 + D
    exactly, c = -5/2 and D = diag(3/4, 11/8, 3/2, 17/8, 23/8, 29/8); the
    float ring finds the witness at the default tol."""
    n9 = catalog.algebra("n9")
    g0 = InnerProduct.diagonal(catalog.N9_SOLITON_METRIC)
    w = nilsoliton_check(MetricLieAlgebra(n9, g0))
    d = [Fraction(x) for x in "3/4 11/8 3/2 17/8 23/8 29/8".split()]
    assert w.constant == Fraction(-5, 2)
    assert w.derivation == tuple(tuple(d[i] if i == j else 0
                                       for j in range(6)) for i in range(6))
    assert is_derivation(n9, w.derivation)
    wf = nilsoliton_check(MetricLieAlgebra(to_float_algebra(n9),
                                           g0.to_float()), tol=1e-10)
    assert abs(wf.constant + 2.5) <= 1e-12
    # negative control: 25/16 -> 3/2 has no witness, in either ring
    bent = InnerProduct.diagonal(catalog.N9_SOLITON_METRIC[:5]
                                 + (Fraction(3, 2),))
    assert nilsoliton_check(MetricLieAlgebra(n9, bent)) is None
    assert nilsoliton_check(MetricLieAlgebra(to_float_algebra(n9),
                                             bent.to_float())) is None


def test_nilsoliton_standard_n9_frame_has_no_witness():
    # the identity product in the plain frame is not a soliton
    m = euclidean("n9")
    assert nilsoliton_check(m) is None


def nilsoliton_by_derivation_basis(m, tol):
    """Reference: solve Ric = c I + sum_b x_b B_b over the derivation basis
    B_b, then re-check Ric - cI with the bracket form of the identity.
    Returns c, or None when there is no witness."""
    n = m.algebra.dim
    ric_op = ricci_operator(m)
    basis = derivation_space(m.algebra)
    rows = [[Fraction(int(p == q))] + [b[p][q] for b in basis]
            for p in range(n) for q in range(n)]
    rhs = [ric_op[p][q] for p in range(n) for q in range(n)]
    sol = linalg.solve(linalg.mat(rows), rhs, tol)
    if sol is None:
        return None
    d = [[ric_op[p][q] - (sol[0] if p == q else 0) for q in range(n)]
         for p in range(n)]
    if not is_derivation_by_brackets(m.algebra, d, tol=max(tol, 1e-8)):
        return None
    return sol[0]


# the Gram matrix of the dense coframe P6_DENSE: a dense rational metric
P6_GRAM = linalg.mat_mul(linalg.transpose(linalg.mat(P6_DENSE)),
                         linalg.mat(P6_DENSE))


@pytest.mark.parametrize("metric", ["identity", "dense"])
@pytest.mark.parametrize("ring", ["exact", "float"])
def test_nilsoliton_matches_derivation_basis_solve(ring, metric):
    found = 0
    for name in sorted(catalog.NILPOTENT6):
        algebra = catalog.algebra(name)
        g = InnerProduct.euclidean(6) if metric == "identity" \
            else InnerProduct(P6_GRAM)
        if ring == "float":
            algebra, g = to_float_algebra(algebra), g.to_float()
        m = MetricLieAlgebra(algebra, g)
        witness = nilsoliton_check(m)
        expected = nilsoliton_by_derivation_basis(
            m, scaled(1e-10, ricci_operator(m)))
        assert (witness is None) == (expected is None), name
        if witness is None:
            continue
        found += 1
        if ring == "exact":
            assert witness.constant == expected
        else:
            assert abs(witness.constant - expected) <= 1e-10 * max(
                1, abs(expected))
    # the identity metric is a nilsoliton on some algebras and not on others
    assert found > 0
    if metric == "identity":
        assert found < len(catalog.NILPOTENT6)


@pytest.mark.parametrize("metric", ["identity", "dense"])
def test_nilsoliton_verdicts_agree_across_rings(metric):
    # on the dense metric the float residual of n33 is 3.9e-10 against
    # entries of Ric up to 1309: an absolute tol of 1e-10 misses a witness
    # the exact ring finds (c = -2244)
    for name in sorted(catalog.NILPOTENT6):
        algebra = catalog.algebra(name)
        g = InnerProduct.euclidean(6) if metric == "identity" \
            else InnerProduct(P6_GRAM)
        exact = nilsoliton_check(MetricLieAlgebra(algebra, g))
        approx = nilsoliton_check(MetricLieAlgebra(to_float_algebra(algebra),
                                                   g.to_float()))
        assert (exact is None) == (approx is None), name
        if exact is not None:
            assert abs(exact.constant - approx.constant) <= 1e-10 * max(
                1, abs(exact.constant))


def test_nilsoliton_requires_nilpotent(einstein_ext):
    with pytest.raises(ValueError):
        nilsoliton_check(einstein_ext)


@pytest.mark.parametrize("key", BESSE_INPUTS)
def test_ricci_matches_besse_formula(key):
    m = besse_input(key)
    ricci = curvature_tensors(m).ricci
    assert besse_ricci(m) == ricci
    # negative control: the 1/4 term with its sign flipped must not match
    # unless the algebra is abelian, where every term vanishes
    abelian = not any(x for plane in structure_constants(m.algebra)
                      for row in plane for x in row)
    assert (besse_ricci(m, Fraction(-1, 4)) == ricci) == abelian


def curvature_by_pairs(m, bracket_term=True):
    """Reference: R(e_i, e_j) one pair at a time, with two products
    N_i N_j and N_j N_i, the c^m_ij N_m term subtracted from every entry,
    and one lowering by g per pair, every (k, l) kept.  ``bracket_term=False``
    drops the c^m_ij N_m term, for the negative control.  riemann, ricci and
    scal, as a CurvatureTensors has them."""
    algebra, g = m.algebra, m.metric
    n = algebra.dim
    nab, c = levi_civita(m).matrices, structure_constants(algebra)
    zero = linalg.ring_zero(g.matrix, *nab)
    riemann = {}
    ricci = [[zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            r = [[x - y for x, y in zip(rx, ry)] for rx, ry in
                 zip(linalg.mat_mul(nab[i], nab[j]),
                     linalg.mat_mul(nab[j], nab[i]))]
            for mm in range(n):
                cm = c[mm][i][j]
                if bracket_term and not is_zero(cm):
                    r = [[x - cm * y for x, y in zip(rx, ry)]
                         for rx, ry in zip(r, nab[mm])]
            low = linalg.mat_mul(g.matrix, r)
            for k in range(n):
                for l in range(n):
                    if not is_zero(low[l][k]):
                        riemann[(i + 1, j + 1, k + 1, l + 1)] = low[l][k]
                        riemann[(j + 1, i + 1, k + 1, l + 1)] = -low[l][k]
                ricci[j][k] = ricci[j][k] + r[i][k]
                ricci[i][k] = ricci[i][k] - r[j][k]
    ricci = tuple(map(tuple, ricci))
    ginv = g.inverse
    scal = sum((ginv[j][k] * ricci[j][k] for j in range(n) for k in range(n)
                if not is_zero(ricci[j][k])), zero)
    return SimpleNamespace(riemann=riemann, ricci=ricci, scal=scal)


def riemann_by_blocks(m, bracket_term=True, swapped=False):
    """Reference: R_ijkl = P[l][k] - P[k][l] - sum_m c^m_ij M_m[l][k] with
    P = M_i N_j and M_i = g N_i, at i < j and k < l, on the scalars of the
    connection, then in all four signs.  ``bracket_term=False`` drops the
    c^m_ij M_m term and ``swapped=True`` takes P[k][l] - P[l][k], for the
    negative controls."""
    n = m.algebra.dim
    nab, c = levi_civita(m).matrices, structure_constants(m.algebra)
    low = [linalg.mat_mul(m.metric.matrix, ni) for ni in nab]
    riemann = {}
    for i, j in combinations(range(n), 2):
        p = linalg.mat_mul(low[i], nab[j])
        for k, l in combinations(range(n), 2):
            x = p[k][l] - p[l][k] if swapped else p[l][k] - p[k][l]
            if bracket_term:
                x = x - sum(c[mm][i][j] * low[mm][l][k] for mm in range(n))
            if not is_zero(x):
                for key, y in (((i, j, k, l), x), ((j, i, l, k), x),
                               ((j, i, k, l), -x), ((i, j, l, k), -x)):
                    riemann[tuple(a + 1 for a in key)] = y
    return riemann


def typed(t):
    """The tensors with the type of every entry next to it: equal exactly
    when values and types agree."""
    def entry(x):
        return type(x), x
    return ({key: entry(x) for key, x in t.riemann.items()},
            tuple(tuple(entry(x) for x in row) for row in t.ricci),
            entry(t.scal))


def float_copy(m):
    return MetricLieAlgebra(to_float_algebra(m.algebra), m.metric.to_float())


@pytest.mark.parametrize("ring", ["exact", "float"])
@pytest.mark.parametrize("key", BESSE_INPUTS)
def test_batched_curvature_matches_pairs(key, ring):
    """Exact tensors equal the pairs reference, types included.  Float
    entries of Riemann are within 1e-13 max|R| of the exact ring's (1.4e-14
    at worst, on n28_ext-dense; N_i N_j lowered by g strayed 8.6e-13 there),
    and float Ricci and scal within 1e-13 max|Ric|."""
    m = besse_input(key)
    if ring == "exact":
        assert typed(curvature_tensors(m)) == typed(curvature_by_pairs(m))
        return
    exact, t = curvature_tensors(m), curvature_tensors(float_copy(m))
    bound = 1e-13 * max(map(abs, exact.riemann.values()), default=0)
    assert all(type(x) is float for x in t.riemann.values())
    assert all(abs(t.riemann.get(ix, 0.0) - exact.riemann.get(ix, 0))
               <= bound for ix in set(t.riemann) | set(exact.riemann))
    bound = 1e-13 * max(abs(x) for row in exact.ricci for x in row)
    got = [x for row in t.ricci for x in row] + [t.scal]
    want = [x for row in exact.ricci for x in row] + [exact.scal]
    assert all(type(x) is float and abs(x - y) <= bound
               for x, y in zip(got, want))


def test_batched_curvature_matches_pairs_on_polynomial_family():
    m = catalog.abelian_scaling_extension()
    t = curvature_tensors(m)
    assert typed(t) == typed(curvature_by_pairs(m))
    assert all(type(x) is Polynomial for row in t.ricci for x in row)


@pytest.mark.parametrize("key", BESSE_INPUTS + ["polynomial"])
def test_koszul_rows_are_g_times_the_connection_and_antisymmetric(key):
    """levi_civita's lowered rows over dk are M_i = g N_i, antisymmetric
    exactly, in the rational and the polynomial ring."""
    m = catalog.abelian_scaling_extension() if key == "polynomial" \
        else besse_input(key)
    coeffs, n = levi_civita(m), m.algebra.dim
    for i, ni in enumerate(coeffs.matrices):
        mi = [[linalg.over(x, coeffs.dk) for x in row]
              for row in coeffs.lowered[i * n:(i + 1) * n]]
        assert mi == [list(row) for row in linalg.mat_mul(m.metric.matrix, ni)]
        assert all(mi[l][k] == -mi[k][l] for k in range(n) for l in range(n))


@pytest.mark.parametrize("key", BESSE_INPUTS)
def test_riemann_blocks_need_the_bracket_term_and_their_order(key):
    """The block formula of ``lower`` gives the pairs reference's Riemann
    tensor; negative controls: without the c^m_ij M_m term, or with
    P[k][l] - P[l][k], it does not, on every non-flat input."""
    m = besse_input(key)
    want = curvature_by_pairs(m).riemann
    assert riemann_by_blocks(m) == want == curvature_tensors(m).riemann
    assert (riemann_by_blocks(m, bracket_term=False) == want) == (not want)
    assert (riemann_by_blocks(m, swapped=True) == want) == (not want)


def test_direct_ricci_needs_the_bracket_term(monkeypatch):
    """Negative control: with the connection of n28 but no c^x_yj, on the
    abelian algebra of its dimension, the direct Ricci is not the exact
    reference."""
    m = euclidean("n28")
    ricci = curvature_tensors(m).ricci
    assert ricci == besse_ricci(m)
    coeffs = levi_civita(m)
    monkeypatch.setattr(curvature, "levi_civita", lambda _: coeffs)
    flat = MetricLieAlgebra(euclidean("n34").algebra, m.metric)
    dropped = curvature_tensors(flat).ricci
    # nonzero: the n28 connection was used, as the abelian one is 0
    assert any(x for row in dropped for x in row) and dropped != ricci


def test_pairs_reference_needs_the_bracket_term():
    # negative control: without c^m_ij N_m the reference differs from the
    # batched tensors on a non-abelian algebra, in either ring
    for m in (euclidean("n28"), float_copy(euclidean("n28")),
              catalog.n28_einstein_extension()):
        assert typed(curvature_by_pairs(m, bracket_term=False)) != \
            typed(curvature_tensors(m))
        assert typed(curvature_by_pairs(m)) == typed(curvature_tensors(m))


def count_mat_mul(monkeypatch):
    """Record (rows of a, rows of b, columns of b) of every ``mat_mul``,
    either factor a matrix or its ``Sparse``."""
    calls = []
    original = linalg.mat_mul

    def counted(a, b):
        a_rows, b_rows = (getattr(x, "matrix", x) for x in (a, b))
        calls.append((len(a_rows), len(b_rows),
                      len(b_rows[0]) if len(b_rows) else 0))
        return original(a, b)

    monkeypatch.setattr(linalg, "mat_mul", counted)
    return calls


@pytest.mark.parametrize("key", ["n28", "n28_einstein_extension",
                                 "n28_ext-dense"])
def test_curvature_makes_a_fixed_number_of_products(monkeypatch, key):
    # Ricci takes t times the side-by-side N_j and one contraction of the
    # stacked N_x; the first read of riemann adds M_i times the N_j, j > i,
    # side by side: n - 1 products of C(n, 2) n x n blocks in all, and no
    # lowering by g, in dimension 6 and 7 alike, where the pairs took
    # 3 C(n, 2) products
    m = besse_input(key)
    calls = count_mat_mul(monkeypatch)
    t = curvature_tensors(m)
    n = m.algebra.dim
    # levi_civita lowers the brackets and raises the Koszul sums
    koszul = [(n, n, n * n)] * 2
    ricci = [(1, n, n * n), (n, n * n, n)]
    assert calls == koszul + ricci
    riemann = t.riemann
    assert calls[4:] == [(n, n, (n - 1 - i) * n) for i in range(n - 1)]
    assert sum(cols for _, _, cols in calls[4:]) == n * n * (n - 1) // 2
    assert t.riemann is riemann and len(calls) == 4 + n - 1


def test_metric_analyze_builds_no_dense_map_and_no_riemann(monkeypatch):
    """metric analyze reads Ricci only: no 90-row L and no block products
    M_i N_j (n - 1 products (n, n, (n - 1 - i) n) in a row); g2 analyze
    makes the blocks once, for star-Ricci.  Neither lowers an R(e_i, e_j),
    a product by g with n C(n, 2) columns."""
    built = []
    init = linalg.Sparse.__init__

    def counted(self, m):
        built.append(len(m))
        init(self, m)

    monkeypatch.setattr(linalg.Sparse, "__init__", counted)
    calls = count_mat_mul(monkeypatch)

    def lowerings():
        return [b for a, b, cols in calls
                if a == b and b > 1 and cols == b * b * (b - 1) // 2]

    def block_products():
        return [b for p, (a, b, cols) in enumerate(calls)
                if a == b > 1 and cols == (b - 1) * b and calls[p:p + b - 1]
                == [(b, b, (b - 1 - i) * b) for i in range(b - 1)]]
    for ring in ("exact", "float"):
        for name in ("n28", "n24", "n34"):
            assert main(["--ring", ring, "metric", "analyze", name]) in (0, 1)
    assert 90 not in built and not lowerings() and not block_products()
    phi = render_form(catalog.n28_ext_g2_form())
    assert main(["g2", "analyze", "n28_ext", "--phi", phi]) == 0
    assert 90 not in built and not lowerings() and block_products() == [7]


def test_nilpotency_takes_one_product_per_step(monkeypatch):
    algebras = {name: parse_structure_equations(text)
                for name, text in catalog.NILPOTENT6.items()}
    calls = count_mat_mul(monkeypatch)
    for name, algebra in sorted(algebras.items()):
        calls.clear()
        nilp, step = is_nilpotent(algebra)
        assert nilp and len(calls) == step, name


def test_nilsoliton_raises_on_a_cached_non_nilpotent_verdict(einstein_ext):
    assert is_nilpotent(einstein_ext.algebra) == (False, None)
    with pytest.raises(ValueError):
        nilsoliton_check(einstein_ext)


def nilsoliton_through_dense_map(m, tol=1e-10):
    """Reference: the nilsoliton solve on all rows of the dense L of
    ``derivation_map_on_fraction_zeros``, applied by ``mat_mul``."""
    n = m.algebra.dim
    ric_op = ricci_operator(m)
    images = linalg.mat_mul(derivation_map_on_fraction_zeros(m.algebra), [
        (ric_op[p][q], Fraction(1 if p == q else 0))
        for p in range(n) for q in range(n)])
    sol = linalg.solve(tuple((li,) for _, li in images),
                       [lr for lr, _ in images], scaled(tol, ric_op))
    if sol is None:
        return None
    d = tuple(tuple(ric_op[p][q] - sol[0] if p == q else ric_op[p][q]
                    for q in range(n)) for p in range(n))
    return NilsolitonWitness(constant=sol[0], derivation=d)


def typed_entries(x):
    """x with the type of every scalar next to it."""
    if isinstance(x, (list, tuple)):
        return [typed_entries(y) for y in x]
    return x if x is None or type(x) is bool else (type(x), x)


def assert_close(got, want, ring, scale, name):
    """Two lists of scalars with equal types, equal in Q and within 1e-12
    of scale in floats."""
    assert [type(x) for x in got] == [type(x) for x in want], name
    if ring == "exact":
        assert got == want, name
    else:
        assert all(abs(x - y) <= 1e-12 * scale
                   for x, y in zip(got, want)), name


def witness_entries(w):
    return [w.constant] + [x for row in w.derivation for x in row]


def derivation_map_on_fraction_zeros(algebra):
    """Reference: the dense L of the derivation identity on a grid of
    Fraction(0) with the structure constants added in, row (i<j, k) and
    column p*n + q for D[p][q]."""
    n = algebra.dim
    row_of = {p: r * n for r, p in enumerate(combinations(range(n), 2))}
    rows = [[Fraction(0)] * (n * n) for _ in range(len(row_of) * n)]
    c = structure_constants(algebra)
    for k, a, b in product(range(n), repeat=3):
        x = c[k][a][b]
        if not x:
            continue
        for q in range(n if a < b else 0):
            rows[row_of[a, b] + q][q * n + k] += x
        for i in range(b):
            rows[row_of[i, b] + k][a * n + i] -= x
        for j in range(a + 1, n):
            rows[row_of[a, j] + k][b * n + j] -= x
    return tuple(map(tuple, rows))


def metrics_in(ring, algebra):
    """The identity and the dense P6_GRAM metric on algebra, in ring."""
    metrics = [MetricLieAlgebra(algebra, g) for g in (
        InnerProduct.euclidean(6), InnerProduct(P6_GRAM))]
    if ring == "float":
        metrics = [float_copy(m) for m in metrics]
    return metrics


@pytest.mark.parametrize("ring", ["exact", "float"])
def test_derivation_defect_is_the_dense_map_product(ring):
    """The defect of D is L vec(D) for the dense L, the derivation space is
    the kernel of L, and is_derivation tests the same products."""
    n = 6
    units = [tuple(tuple(Fraction(int(p * n + q == u)) for q in range(n))
                   for p in range(n)) for u in range(n * n)]
    ramp = tuple(tuple(Fraction(p * n + q + 1, q + 2) for q in range(n))
                 for p in range(n))
    for name in sorted(catalog.NILPOTENT6):
        algebra = catalog.algebra(name)
        if ring == "float":
            algebra = to_float_algebra(algebra)
        dense = derivation_map_on_fraction_zeros(algebra)
        basis = derivation_space(algebra)
        assert typed_entries(basis) == typed_entries(
            [tuple(tuple(v[p * n + q] for q in range(n)) for p in range(n))
             for v in linalg.nullspace(dense, 1e-10)]), name
        for d in basis + units + [ramp]:
            want = [x for (x,) in linalg.mat_mul(
                dense, [[x] for row in d for x in row])]
            assert_close(derivation_defect(algebra, d), want, ring,
                         max(abs(x) for row in d for x in row), name)
        verdicts = [is_derivation(algebra, d) for d in basis + units]
        # some units are derivations and some are not, except on n34
        assert all(verdicts[:-n * n]) and (not all(verdicts) or name == "n34")


@pytest.mark.parametrize("ring", ["exact", "float"])
def test_nilsoliton_matches_the_dense_map_reference(ring):
    """The witness from the nonzero rows of L(Ric) = c L(I) is the one of
    the dense solve on all 90 rows: exactly in Q, within 1e-12 of the
    largest entry of Ric in floats."""
    found = 0
    for name in sorted(catalog.NILPOTENT6):
        algebra = catalog.algebra(name)
        if ring == "float":
            algebra = to_float_algebra(algebra)
        for m in metrics_in(ring, algebra):
            got, want = nilsoliton_check(m), nilsoliton_through_dense_map(m)
            assert (got is None) == (want is None), name
            if got is not None:
                found += 1
                scale = max(abs(x) for row in ricci_operator(m) for x in row)
                assert_close(witness_entries(got), witness_entries(want),
                             ring, max(scale, 1), name)
    assert found > 0


def test_nilsoliton_on_the_abelian_algebra_keeps_the_ring():
    for ring, zero in (("exact", Fraction(0)), ("float", 0.0)):
        for m in metrics_in(ring, catalog.algebra("n34")):
            assert typed_entries(witness_entries(nilsoliton_check(m))) == \
                [(type(zero), zero)] * 37


def digest(x):
    return hashlib.sha256(repr(x).encode()).hexdigest()[:16]


# Exact outputs on the P_DENSE twist of n28_ext, with phi and with phi / 8
# (g / 4, so that g and g^-1 have denominators): sha256 prefixes of the
# reprs, which carry the Fraction type, recorded from the Fraction-only
# kernels that the integer kernels replaced.
# rho* and tau2 were recorded from the Fraction contraction of star_ricci
# and the Fraction elimination of rref.
PINNED = {
    1: {"riemann": "2be601d7a65e1295", "ricci": "30d4603d51e8264a",
        "scal": Fraction(-21), "star_phi": "d68ad43aff20116f",
        "tau0": Fraction(0), "gram": "15ddbd30e88b3eba",
        "star_ricci": "b2a8c566aa5767e1", "tau2": "7136ff5b765f6921"},
    8: {"riemann": "863f0ef6f4ad7e15", "ricci": "30d4603d51e8264a",
        "scal": Fraction(-84), "star_phi": "21874aa7d0234a92",
        "tau0": Fraction(0), "gram": "b5da9c397614aa62",
        "star_ricci": "b2a8c566aa5767e1", "tau2": "45ec7b00df1bbe6c"},
}


def dense_twist(scale):
    """The P_DENSE twist of n28_ext with phi / scale: (algebra, phi)."""
    algebra, phi = CASES["n28_ext"]
    c = Coframe(P_DENSE)
    return c.algebra(algebra), c.form(phi) * Fraction(1, scale)


@pytest.mark.parametrize("scale", sorted(PINNED))
def test_dense_twist_exact_outputs_are_pinned(scale):
    algebra, phi = dense_twist(scale)
    s = metric_from_phi(phi)
    m = MetricLieAlgebra(algebra, s.metric)
    tensors = curvature_tensors(m)
    assert typed(tensors) == typed(curvature_by_pairs(m))
    two = basis_indices(7, 2)
    gram = [[form_inner(KForm.monomial(7, a), KForm.monomial(7, b), s.metric)
             for b in two] for a in two]
    ginv = s.metric.inverse
    assert gram == [[leibniz_det(ginv, a, b) for b in two] for a in two]
    torsion = torsion_forms(algebra, phi, s)
    rho = star_ricci(m, phi, s, tensors=tensors).matrix
    pin = PINNED[scale]
    assert digest(rho) == pin["star_ricci"]
    assert digest(sorted(torsion.tau2.coeffs.items())) == pin["tau2"]
    assert digest(sorted(tensors.riemann.items())) == pin["riemann"]
    assert digest(tensors.ricci) == pin["ricci"]
    assert digest(sorted(s.star_phi.coeffs.items())) == pin["star_phi"]
    assert digest(gram) == pin["gram"]
    assert (type(tensors.scal), tensors.scal) == (Fraction, pin["scal"])
    assert (type(torsion.tau0), torsion.tau0) == (Fraction, pin["tau0"])


def star_ricci_by_fractions(m, phi):
    """Reference: rho*_{sm} = 4 R_{ijkl} phi^{ij}_s phi^{kl}_m over i < j
    and k < l, in star_ricci's loop order, summed on the scalars as they
    come from Fraction(0): Fractions in the exact ring, floats in the float
    ring."""
    up = {}
    for t in range(1, 8):
        raised = pullback(contract_basis(t, phi), m.metric.minors)
        for ij, c in raised.coeffs.items():
            up.setdefault(ij, {})[t] = c
    contracted = {}
    for (i, j, k, l), r in curvature_tensors(m).riemann.items():
        if i > j or k > l:
            continue
        for s, c in up.get((i, j), {}).items():
            row = contracted.setdefault((k, l), {})
            row[s] = row.get(s, Fraction(0)) + r * c
    rows = [[Fraction(0)] * 7 for _ in range(7)]
    for kl, row in contracted.items():
        for mm, c2 in up.get(kl, {}).items():
            for s, c1 in row.items():
                rows[s - 1][mm - 1] = rows[s - 1][mm - 1] + c1 * c2
    return tuple(tuple(4 * x for x in row) for row in rows)


def bits(x):
    """A scalar as its type and value, a float as its exact bits."""
    return (float, x.hex()) if type(x) is float else (type(x), x)


@pytest.mark.parametrize("ring", ["exact", "float"])
@pytest.mark.parametrize("scale", [1, 8, Fraction(1, 27)],
                         ids=["phi", "phi/8", "27phi"])
def test_star_ricci_on_integers_matches_the_fraction_contraction(scale, ring):
    """The integer contraction over dr du^2 gives the Fractions of the
    reference in the exact ring and its bits in the float ring.  The
    Riemann denominator dr is 32, 512 and 288 (dc dk dn); the raised phi's
    du is 1, 1 and 3."""
    algebra, phi = dense_twist(scale)
    if ring == "float":
        algebra, phi = to_float_algebra(algebra), phi.to_float()
    s = metric_from_phi(phi)
    m = MetricLieAlgebra(algebra, s.metric)
    got = star_ricci(m, phi, s).matrix
    want = star_ricci_by_fractions(m, phi)
    assert [[bits(x) for x in row] for row in got] == \
        [[bits(x) for x in row] for row in want]


@pytest.mark.parametrize("ring", ["exact", "float"])
def test_star_ricci_reads_the_riemann_sums_over_their_denominator(ring):
    """star_ricci contracts the lowered sums, integers on exact input: it
    builds no Fraction view of riemann, and gives the bits it gives on
    that view.  The float denominator is 4, an exact scale."""
    algebra, phi = dense_twist(8)
    if ring == "float":
        algebra, phi = to_float_algebra(algebra), phi.to_float()
    s = metric_from_phi(phi)
    m = MetricLieAlgebra(algebra, s.metric)
    tensors = curvature_tensors(m)
    got = star_ricci(m, phi, s, tensors=tensors).matrix
    assert "riemann" not in vars(tensors)
    den, sums = tensors.lowered
    assert den == 4 if ring == "float" else den > 1
    assert {type(x) for x in sums.values()} == \
        ({int} if ring == "exact" else {float})
    half = {(i, j, k, l): r for (i, j, k, l), r in tensors.riemann.items()
            if i < j and k < l}
    assert len(half) == len(sums) and 4 * len(half) == len(tensors.riemann)
    view = CurvatureTensors(lambda: (1, half), tensors.ricci, tensors.scal)
    assert view.riemann == tensors.riemann
    want = star_ricci(m, phi, s, tensors=view).matrix
    assert [[bits(x) for x in row] for row in got] == \
        [[bits(x) for x in row] for row in want]
