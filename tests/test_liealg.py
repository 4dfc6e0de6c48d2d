import functools
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from g2forge import catalog, linalg
from g2forge.exterior import KForm, basis_indices, scaled, sort_index, wedge
from g2forge.liealg import (JacobiError, LieAlgebra, MetricLieAlgebra,
                            NotDerivationError, StructureParseError,
                            derivation_defect, derivation_space,
                            is_derivation, is_nilpotent, parse_form,
                            parse_structure_equations, rank_one_extension,
                            render_structure_equations, restrict,
                            specialize, to_float_algebra)
from test_coframe import CASES, P6_DENSE, P_DENSE, Coframe, abelian_ext_at

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=3)


def test_parse_examples():
    n28 = parse_structure_equations("(0,0,0,0,e13-e24,e14+e23)")
    assert n28.d_coframe[4] == KForm.from_terms(6, 2, (1, 1, 3), (-1, 2, 4))
    abelian = parse_structure_equations("(0,0,0,0,0,0)")
    assert all(f.is_zero() for f in abelian.d_coframe)
    n6 = parse_structure_equations("(0,0,e12,e13,e23,e14)")
    assert n6.d_coframe[5] == KForm.monomial(6, (1, 4))


def test_parse_rejects_jacobi_violations():
    with pytest.raises(JacobiError) as err:
        parse_structure_equations("(0,e12,e23,0,0,0)")
    assert "d^2" in str(err.value)


# d^2 e^6 = (3a - b) e123: closed for b = 3a, so exactly at 370370367.3 in Q
LARGE_FLOAT = "(0,0,0,e12,e14-3*e23,123456789.1*e15+%r*e34)"


def test_float_jacobi_bound_scales_with_the_products_d2_sums():
    """The float d^2 e^6 above is -6e-8 e123, past an absolute 1e-9, and
    within 1e-9 times the products it sums, 3a + b."""
    algebra = parse_structure_equations(LARGE_FLOAT % 370370367.3)
    assert algebra.is_float_ring()
    assert is_nilpotent(algebra) == (True, 4)
    # negative controls: b off by 40% or by 1e-5 of itself
    for b in (370370367.3 * 1.4, 370370367.3 * (1 + 1e-5)):
        with pytest.raises(JacobiError):
            parse_structure_equations(LARGE_FLOAT % b)


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6, 1e12])
def test_float_jacobi_check_accepts_a_twisted_algebra_at_any_scale(scale):
    """The float n9_nilsoliton on the P6_DENSE coframe, its structure
    constants times scale: d^2 e^1 was 6e-3 e123 at 1e6."""
    twisted = Coframe(P6_DENSE).algebra(catalog.n9_nilsoliton_frame())
    algebra = LieAlgebra(6, [scale * f for f in twisted.d_coframe])
    assert is_nilpotent(algebra) == (True, 4)


def test_parse_errors_carry_position():
    with pytest.raises(StructureParseError) as err:
        parse_structure_equations("(0,0,0,0,e13-,e14)")
    assert err.value.position > 0
    with pytest.raises(StructureParseError):
        parse_form("e12 + 5", 6)
    with pytest.raises(StructureParseError):
        parse_form("e17", 6)
    with pytest.raises(StructureParseError):
        parse_form("e12*e34", 6)


def test_parse_coefficient_flavours():
    f = parse_form("1/2*e17-0.25e27+a*e37", 7)
    # rational, decimal and symbolic coefficients may not share one form,
    # so parse separately
    assert parse_form("1/2*e17", 7) == KForm(7, 2, {(1, 7): Fraction(1, 2)})
    approx = parse_form("0.25e27", 7)
    assert isinstance(next(iter(approx.coeffs.values())), float)
    sym = parse_form("a*e37", 7)
    from g2forge.scalars import Polynomial
    assert sym == KForm(7, 2, {(3, 7): Polynomial.variable("a")})


def test_decimal_and_symbol_cannot_mix():
    with pytest.raises(StructureParseError):
        parse_form("0.5*a*e12", 6)


def test_catalog_roundtrip():
    for name in catalog.names():
        algebra = catalog.algebra(name)
        text = render_structure_equations(algebra)
        reparsed = parse_structure_equations(text)
        assert render_structure_equations(reparsed) == text
        if not (algebra.is_float_ring() or algebra.is_polynomial_ring()):
            assert reparsed == algebra


def test_d_squared_zero_on_catalog():
    from g2forge.exterior import basis_indices
    for name in catalog.TABLE_ORDER:
        algebra = catalog.algebra(name)
        assert algebra.jacobi_defect() is None
        for idx in basis_indices(6, 2):
            dd = algebra.d(algebra.d(KForm.monomial(6, idx)))
            assert dd.is_zero()


def test_nilpotency():
    assert is_nilpotent(catalog.algebra("n28")) == (True, 2)
    assert is_nilpotent(catalog.algebra("n34")) == (True, 1)
    assert is_nilpotent(catalog.n28_einstein_extension().algebra) == (False, None)
    for name in catalog.TABLE_ORDER:
        nilp, step = is_nilpotent(catalog.algebra(name))
        assert nilp and step >= 1
    assert is_nilpotent(catalog.n9_nilsoliton_frame())[0] is True
    # symbolic family: specialize before asking
    ext = catalog.abelian_scaling_extension().algebra
    at_one = specialize(ext, {"a": Fraction(1)})
    assert is_nilpotent(at_one) == (False, None)


def exact_entry(name):
    """A catalog entry in the exact ring: abelian_ext at a = 2/3, and the
    float n9_nilsoliton frame with its coefficients read as Fractions."""
    if name == "abelian_ext":
        return abelian_ext_at(Fraction(2, 3))
    algebra = (catalog.n9_nilsoliton_frame() if name == "n9_nilsoliton"
               else catalog.algebra(name))
    return LieAlgebra(algebra.dim,
                      [f.map_coeffs(Fraction) for f in algebra.d_coframe])


def times(algebra, s):
    """The algebra with every structure constant multiplied by s; Jacobi
    holds for every s, so it is not checked again."""
    return LieAlgebra(algebra.dim, [f.map_coeffs(lambda x: x * s)
                                    for f in algebra.d_coframe], check=False)


def nilpotency_disagreements(algebras):
    return [key for key, algebra in algebras
            if is_nilpotent(algebra) != is_nilpotent(to_float_algebra(algebra))]


def test_nilpotency_agrees_across_rings_on_scaled_catalog():
    """135 cases: the 26 catalog entries and the float n9 frame with
    structure constants times 10^-12 ... 10^12.  The float span rank counts
    singular values above scaled(1e-9, c), so it does not change with the
    scale of c."""
    cases = [((name, k), times(exact_entry(name), Fraction(10) ** k))
             for name in catalog.names() + ["n9_nilsoliton"]
             for k in (-12, -6, 0, 6, 12)]
    assert len(cases) == 135
    assert nilpotency_disagreements(cases) == []


def test_nilpotency_agrees_across_rings_on_scaled_twists():
    """78 cases: the 26 exact catalog entries on a dense coframe, times
    10^-6, 1 and 10^6; every bracket span is then dense."""
    cases = []
    for name in catalog.names():
        algebra = exact_entry(name)
        twisted = Coframe(P6_DENSE if algebra.dim == 6 else P_DENSE
                          ).algebra(algebra)
        cases += [((name, k), times(twisted, Fraction(10) ** k))
                  for k in (-6, 0, 6)]
    assert len(cases) == 78
    assert nilpotency_disagreements(cases) == []


def test_a_small_bracket_is_not_nilpotent_in_either_ring():
    # [e1, e2] = -1e-11 e1 is a nonzero bracket, whatever its size
    for text in ("(0.00000000001*e12,0)", "(1/100000000000*e12,0)"):
        assert is_nilpotent(parse_structure_equations(text)) == (False, None)


def test_cached_nilpotency_verdict_is_returned_first(monkeypatch):
    """A kept verdict is returned before the ring is read or a bracket
    taken; a new algebra on the same equations decides afresh."""
    algebra = catalog.algebra("n34")
    assert is_nilpotent(algebra) == (True, 1)
    reads = []
    mat_mul = linalg.mat_mul
    monkeypatch.setattr(linalg, "mat_mul",
                        lambda a, b: reads.append(1) or mat_mul(a, b))
    monkeypatch.setattr(LieAlgebra, "is_polynomial_ring",
                        lambda self: reads.append(1) or False)
    assert is_nilpotent(algebra) == (True, 1)
    assert reads == []
    fresh = parse_structure_equations(catalog.NILPOTENT6["n34"])
    assert is_nilpotent(fresh) == (True, 1)
    assert reads == [1, 1]


def test_exact_nilpotency_multiplies_integer_rows(monkeypatch):
    """Exact spans and the ad_i reach every product as Python ints, on
    rational constants and on a non-nilpotent algebra too."""
    algebras = [times(catalog.algebra(name), Fraction(1, 3))
                for name in sorted(catalog.NILPOTENT6)]
    algebras.append(catalog.n28_einstein_extension().algebra)
    types = set()
    mat_mul = linalg.mat_mul

    def recorded(a, b):
        types.update(type(x) for f in (a, b)
                     for row in getattr(f, "matrix", f) for x in row)
        return mat_mul(a, b)

    monkeypatch.setattr(linalg, "mat_mul", recorded)
    verdicts = [is_nilpotent(algebra)[0] for algebra in algebras]
    assert verdicts == [True] * len(catalog.NILPOTENT6) + [False]
    assert types == {int}


def test_ce_differential_examples(n28):
    assert n28.d(KForm.monomial(6, (5,))) == \
        KForm.from_terms(6, 2, (1, 1, 3), (-1, 2, 4))
    omega = KForm.from_terms(6, 2, (1, 1, 2), (1, 3, 4), (-1, 5, 6))
    sigma = KForm.from_terms(6, 3, (1, 1, 3, 6), (-1, 1, 4, 5),
                             (-1, 2, 3, 5), (-1, 2, 4, 6))
    assert n28.d(omega) == -1 * sigma


def d_by_wedges(algebra, a):
    """Reference: d(e^I) = sum over positions of +-e^left ^ de^i ^ e^right."""
    out = KForm.zero(algebra.dim, a.degree + 1)
    for idx, c in a.coeffs.items():
        for pos, i in enumerate(idx):
            left = KForm.monomial(algebra.dim, idx[:pos])
            right = KForm.monomial(algebra.dim, idx[pos + 1:])
            term = wedge(wedge(left, algebra.d_coframe[i - 1]), right)
            out = out + (c if pos % 2 == 0 else -c) * term
    return out


@pytest.mark.parametrize("name", ["n28_ext", "abelian_ext", "n9"])
def test_d_matches_wedge_expansion(name):
    algebra = catalog.algebra(name)
    n = algebra.dim
    for degree in range(n + 1):
        idx = basis_indices(n, degree)
        a = KForm(n, degree, {ix: Fraction(k % 7 - 3, k % 3 + 1)
                              for k, ix in enumerate(idx)})
        assert algebra.d(a) == d_by_wedges(algebra, a)
        if not algebra.is_polynomial_ring():
            fa = to_float_algebra(algebra)
            assert fa.d(a.to_float()) == d_by_wedges(fa, a.to_float())


def d_by_sorting(algebra, a):
    """Reference: the terms of d(e^I), the de^i put in place of e^i and the
    index sorted by ``sort_index``, summed in d's order in the ring of a."""
    acc = {}
    for idx, c in a.coeffs.items():
        for pos, i in enumerate(idx):
            signed = c if pos % 2 == 0 else -c
            for pair, cd in algebra.d_coframe[i - 1].coeffs.items():
                sign, merged = sort_index(idx[:pos] + pair + idx[pos + 1:])
                if sign:
                    acc[merged] = acc.get(merged, 0) + signed * (cd * sign)
    return KForm(algebra.dim, a.degree + 1, acc)


D_INPUTS = {**{name: lambda name=name: catalog.algebra(name)
               for name in sorted(catalog.NILPOTENT6)},
            "n28_ext": lambda: CASES["n28_ext"][0],
            "abelian_ext": lambda: CASES["abelian_ext"][0],
            "n28_ext-dense": lambda: Coframe(P_DENSE).algebra(
                CASES["n28_ext"][0]),
            "n28-dense": lambda: Coframe(P6_DENSE).algebra(
                catalog.algebra("n28"))}


def typed_coeffs(a):
    """The coefficients of a with their types, floats as their bits."""
    return sorted((idx, type(c), c.hex() if type(c) is float else c)
                  for idx, c in a.coeffs.items())


@pytest.mark.parametrize("ring", ["exact", "float"])
@pytest.mark.parametrize("name", sorted(D_INPUTS))
def test_d_matches_the_sorted_index_formula(name, ring):
    """d merges each de^i into e^I by merge_sign: on every monomial and on
    one dense form of each degree, the values and types (float bits) of
    the sort_index formula."""
    algebra = D_INPUTS[name]()
    n = algebra.dim
    forms = [KForm.monomial(n, idx) for k in range(1, n)
             for idx in basis_indices(n, k)]
    forms += [KForm(n, k, {ix: Fraction(j % 7 - 3, j % 4 + 1) for j, ix
                           in enumerate(basis_indices(n, k))})
              for k in range(1, n)]
    if ring == "float":
        algebra = to_float_algebra(algebra)
        forms = [a.to_float() for a in forms]
    for a in forms:
        assert typed_coeffs(algebra.d(a)) == \
            typed_coeffs(d_by_sorting(algebra, a))


def test_derivation_space_abelian():
    basis = derivation_space(catalog.algebra("n34"))
    assert len(basis) == 36


def test_derivation_membership(n28):
    d_in = [[2 if i == j and i < 4 else (4 if i == j else 0)
             for j in range(6)] for i in range(6)]
    assert is_derivation(n28, d_in)
    d_out = [[1 if i == j and i < 3 else (2 if i == j else 0)
              for j in range(6)] for i in range(6)]
    assert not is_derivation(n28, d_out)
    with pytest.raises(NotDerivationError):
        rank_one_extension(MetricLieAlgebra.euclidean(n28), d_out)
    # every element of the computed basis satisfies the identity
    for b in derivation_space(n28):
        assert is_derivation(n28, b)


def structure_constants(algebra):
    """c[k][i][j] with [e_i, e_j] = sum_k c^k_ij e_k (0-based): c^k_ij = -y
    and c^k_ji = y for the e^ij coefficient y of de^k, i < j."""
    n = algebra.dim
    c = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for k, f in enumerate(algebra.d_coframe):
        for (i, j), y in f.coeffs.items():
            c[k][i - 1][j - 1], c[k][j - 1][i - 1] = -y, y
    return c


def bracket(algebra, x, y):
    """Reference: [x, y] = sum_k c^k_ij x_i y_j e_k, vector by vector."""
    c = structure_constants(algebra)
    n = algebra.dim
    pairs = [(i, j) for i in range(n) if x[i] for j in range(n) if y[j]]
    return [sum((c[k][i][j] * x[i] * y[j] for i, j in pairs), Fraction(0))
            for k in range(n)]


def is_derivation_by_brackets(algebra, matrix, tol=1e-9):
    """Reference: D[e_i,e_j] = [De_i,e_j] + [e_i,De_j] for every i < j,
    with the brackets taken one vector at a time."""
    n = algebra.dim
    basis = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    col = [[matrix[p][q] for p in range(n)] for q in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            bij = bracket(algebra, basis[i], basis[j])
            lhs = [sum((matrix[k][m] * bij[m] for m in range(n)), Fraction(0))
                   for k in range(n)]
            rhs1 = bracket(algebra, col[i], basis[j])
            rhs2 = bracket(algebra, basis[i], col[j])
            if any(abs(a - b - c) > tol for a, b, c in zip(lhs, rhs1, rhs2)):
                return False
    return True


def defect_by_brackets(algebra, matrix, drop=None):
    """Reference: the e_k-components of D[e_i,e_j] - [De_i,e_j] - [e_i,De_j]
    for i < j, in the order of ``derivation_defect``, with the brackets
    taken one vector at a time and summed from the ring's zero.  ``drop``
    (0, 1 or 2) leaves one of the three terms out, for the negative
    control."""
    n = algebra.dim
    floats = algebra.is_float_ring() or any(
        isinstance(x, float) for row in matrix for x in row)
    zero = 0.0 if floats else Fraction(0)
    basis = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    col = [[matrix[p][q] for p in range(n)] for q in range(n)]
    out = []
    for i, j in combinations(range(n), 2):
        bij = bracket(algebra, basis[i], basis[j])
        terms = [[sum((matrix[k][m] * bij[m] for m in range(n)), zero)
                  for k in range(n)],
                 [-x for x in bracket(algebra, col[i], basis[j])],
                 [-x for x in bracket(algebra, basis[i], col[j])]]
        if drop is not None:
            del terms[drop]
        out += [sum(parts, zero) for parts in zip(*terms)]
    return out


@functools.lru_cache(maxsize=None)
def defect_input(name, twisted, ring):
    algebra = catalog.algebra(name)
    if twisted:
        algebra = Coframe(P6_DENSE).algebra(algebra)
    return to_float_algebra(algebra) if ring == "float" else algebra


@given(st.sampled_from(sorted(catalog.NILPOTENT6)), st.booleans(),
       st.sampled_from(["exact", "float"]),
       st.lists(rationals, min_size=36, max_size=36))
@settings(max_examples=60, deadline=None)
def test_derivation_defect_matches_brackets(name, twisted, ring, entries):
    """Entry by entry, with types: exactly in Q, and in floats within
    scaled(1e-12, D, c) of the bracket reference."""
    algebra = defect_input(name, twisted, ring)
    matrix = [entries[6 * i:6 * i + 6] for i in range(6)]
    if ring == "float":
        matrix = [[float(x) for x in row] for row in matrix]
    got, want = derivation_defect(algebra, matrix), defect_by_brackets(
        algebra, matrix)
    assert [type(x) for x in got] == [type(x) for x in want]
    if ring == "exact":
        assert got == want
    else:
        bound = scaled(1e-12, matrix,
                       [f.coeffs.values() for f in algebra.d_coframe])
        assert all(abs(x - y) <= bound for x, y in zip(got, want))


def test_bracket_reference_needs_each_term():
    # negative control: with one term dropped the reference tells a dense
    # rational D from its defect on every non-abelian algebra
    matrix = [[Fraction(p * 6 + q + 1, q + 2) for q in range(6)]
              for p in range(6)]
    for name in sorted(catalog.NILPOTENT6):
        if name == "n34":
            continue
        algebra = catalog.algebra(name)
        got = derivation_defect(algebra, matrix)
        for drop in range(3):
            assert defect_by_brackets(algebra, matrix, drop) != got, name


def test_float_is_derivation_bounds_by_the_matrix_and_the_constants():
    """Each entry of the defect is bounded by scaled(tol, D, c): a tiny
    non-derivation fails, and a true derivation passes at any scale."""
    algebra = to_float_algebra(catalog.algebra("n28"))
    unit = [[float(p == q == 0) for q in range(6)] for p in range(6)]
    weights = (1.0, 1.0, 1.0, 1.0, 2.0, 2.0)
    diagonal = [[weights[p] if p == q else 0.0 for q in range(6)]
                for p in range(6)]
    dense = [[sum(b[p][q] for b in derivation_space(algebra))
              for q in range(6)] for p in range(6)]
    for t in (1e-10, 1.0, 1e9):
        assert not is_derivation(algebra, [[t * x for x in r] for r in unit])
        for d in (diagonal, dense):
            assert is_derivation(algebra, [[t * x for x in r] for r in d])


def random_derivation(algebra, coeffs):
    basis = derivation_space(algebra)
    n = algebra.dim
    return [[sum((c * b[i][j] for c, b in zip(coeffs, basis)), Fraction(0))
             for j in range(n)] for i in range(n)]


@given(st.sampled_from(sorted(catalog.NILPOTENT6)),
       st.lists(rationals, min_size=36, max_size=36),
       st.booleans())
@settings(max_examples=40, deadline=None)
def test_is_derivation_agrees_with_brackets(name, entries, inside):
    # a rational matrix, or a rational combination of the derivation basis
    algebra = catalog.algebra(name)
    if inside:
        matrix = random_derivation(algebra, entries)
    else:
        matrix = [entries[6 * i:6 * i + 6] for i in range(6)]
    expected = is_derivation_by_brackets(algebra, matrix)
    assert is_derivation(algebra, matrix) == expected
    if inside:
        assert expected


@pytest.mark.parametrize("name", sorted(catalog.NILPOTENT6) + ["n9_frame"])
def test_derivation_basis_passes_both_tests(name):
    algebra = (catalog.n9_nilsoliton_frame() if name == "n9_frame"
               else catalog.algebra(name))
    n = algebra.dim
    basis = derivation_space(algebra)
    for b in basis:
        assert is_derivation(algebra, b)
        assert is_derivation_by_brackets(algebra, b)
    float_algebra = to_float_algebra(algebra)
    float_basis = derivation_space(float_algebra)
    assert len(float_basis) == len(basis)
    assert all(is_derivation(float_algebra, b) for b in float_basis)
    # negative control: adding E_ii, for an e_i with [e_i, e_j] != 0, makes
    # a basis element fail both tests
    if name == "n34":
        return
    c = structure_constants(algebra)
    i = next(i for i in range(n) for j in range(n) for k in range(n)
             if c[k][i][j] != 0)
    bumped = [list(row) for row in basis[0]]
    bumped[i][i] += 1
    assert not is_derivation(algebra, bumped)
    assert not is_derivation_by_brackets(algebra, bumped)


def test_rank_one_extension_matches_reference(n28):
    ext = catalog.n28_einstein_extension()
    assert render_structure_equations(ext.algebra) == \
        "(1/2*e17,1/2*e27,1/2*e37,1/2*e47,e13-e24+e57,e14+e23+e67,0)"
    base = MetricLieAlgebra.euclidean(catalog.algebra("n34"))
    a_ext = catalog.abelian_scaling_extension()
    assert render_structure_equations(a_ext.algebra) == \
        "(a*e17,a*e27,a*e37,a*e47,a*e57,a*e67,0)"
    zero_ext = rank_one_extension(MetricLieAlgebra.euclidean(n28),
                                  [[0] * 6 for _ in range(6)])
    assert zero_ext.algebra.d_coframe[6].is_zero()
    assert zero_ext.algebra.d_coframe[0].is_zero()


def test_extension_rejects_non_derivations(n28):
    with pytest.raises(NotDerivationError):
        rank_one_extension(MetricLieAlgebra.euclidean(n28),
                           [[1 if i == j else 0 for j in range(6)]
                            for i in range(6)])


@given(st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=20, deadline=None)
def test_extension_satisfies_jacobi_for_derivation_combinations(seed):
    import random
    rng = random.Random(seed)
    name = rng.choice(["n28", "n9", "n34", "n6"])
    algebra = catalog.algebra(name)
    basis = derivation_space(algebra)
    coeffs = [Fraction(rng.randint(-2, 2)) for _ in basis]
    n = algebra.dim
    d = [[sum((c * b[i][j] for c, b in zip(coeffs, basis)), Fraction(0))
          for j in range(n)] for i in range(n)]
    ext = rank_one_extension(MetricLieAlgebra.euclidean(algebra), d)
    assert ext.algebra.jacobi_defect() is None


def test_restrict_recovers_base(n28, einstein_ext):
    base = restrict(einstein_ext.algebra, 6)
    assert base == n28
