"""One elimination per ring: exact rows take Bareiss's ``rref``, and a float
anywhere sends ``solve``, ``nullspace``, ``inverse`` and ``row_basis`` to
numpy."""
import json
from fractions import Fraction
from functools import reduce
from math import gcd

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from g2forge import catalog, linalg
from g2forge.cli import main
from g2forge.liealg import derivation_space, to_float_algebra
from g2forge.scalars import Polynomial, coerce, is_zero

A = linalg.mat([[2, 1, 0], [1, 3, 1], [0, 1, 4]])
B = [Fraction(3), Fraction(5), Fraction(5)]      # A (1, 1, 1)
SINGULAR = linalg.mat([[1, 2, 3], [2, 4, 6]])


def to_float(m):
    return tuple(tuple(float(x) for x in row) for row in m)


def test_solve_exact():
    x = linalg.solve(A, B)
    assert x == (1, 1, 1)
    assert all(isinstance(v, Fraction) for v in x)


@pytest.mark.parametrize("a, b", [(to_float(A), [float(v) for v in B]),
                                  (A, [float(v) for v in B])],
                         ids=["float", "exact_matrix_float_rhs"])
def test_solve_float(a, b):
    x = linalg.solve(a, b, 1e-12)
    assert all(type(v) is float for v in x)
    assert max(abs(v - 1.0) for v in x) <= 1e-12


@pytest.mark.parametrize("ring", [lambda v: Fraction(v), float],
                         ids=["exact", "float"])
def test_inconsistent_system_has_no_solution(ring):
    a = linalg.mat([[ring(1), ring(1)], [ring(1), ring(1)]])
    assert linalg.solve(a, [ring(1), ring(2)], 1e-10) is None


RING_ENTRIES = {
    "exact": st.fractions(-5, 5, max_denominator=4),
    "int": st.integers(-5, 5),
    "float": st.floats(-5, 5),
    "polynomial": st.tuples(st.fractions(-3, 3, max_denominator=3),
                            st.integers(-2, 2)).map(
        lambda t: t[0] * Polynomial.variable("a") + t[1]),
}


def dense_product(a, b):
    return tuple(tuple(sum((a[i][k] * b[k][j] for k in range(len(b))),
                           Fraction(0)) for j in range(len(b[0])))
                 for i in range(len(a)))


# the zero of each ring, which mat_mul must skip like an exact 0
RING_ZEROS = {"exact": Fraction(0), "int": 0, "float": 0.0,
              "polynomial": Polynomial()}


def nonzero_product(a, b):
    """sum(a[i][k] b[k][j]) over the nonzero factors only, in increasing k,
    from 0.0 when a factor holds a float, from Fraction(0) when a factor
    holds a Fraction and from 0 otherwise (Python ints and polynomials)."""
    types = {type(x) for m in (a, b) for row in m for x in row}
    zero = 0.0 if float in types else Fraction(0) if Fraction in types else 0
    return tuple(tuple(sum((a[i][k] * b[k][j] for k in range(len(b))
                            if not is_zero(a[i][k]) and not is_zero(b[k][j])),
                           zero) for j in range(len(b[0])))
                 for i in range(len(a)))


@st.composite
def factor_pairs(draw):
    ring = draw(st.sampled_from(sorted(RING_ENTRIES)))
    # zeros are drawn often, exact and of the ring, since mat_mul skips them;
    # an int factor is all ints
    exact_zero = RING_ZEROS["int" if ring == "int" else "exact"]
    entry = st.one_of(st.just(exact_zero), st.just(RING_ZEROS[ring]),
                      RING_ENTRIES[ring])
    n, m, p = (draw(st.integers(1, 4)) for _ in range(3))
    def matrix(rows, cols):
        return tuple(tuple(draw(entry) for _ in range(cols))
                     for _ in range(rows))
    return matrix(n, m), matrix(m, p)


@settings(max_examples=150, deadline=None)
@given(factor_pairs())
def test_mat_mul_matches_dense_product(factors):
    a, b = factors
    product = linalg.mat_mul(a, b)
    assert product == dense_product(a, b)
    # entry types too: a float anywhere, a float 0.0 too, makes every entry
    # a float, and a zero Polynomial factor adds no Polynomial() term
    expected = nonzero_product(a, b)
    assert [[type(x) for x in row] for row in product] == \
        [[type(x) for x in row] for row in expected]
    assert product == expected
    if any(type(x) is float for m in factors for row in m for x in row):
        assert all(type(x) is float for row in product for x in row)


def test_mat_mul_of_zero_factors_keeps_the_ring():
    ones = linalg.mat([[1, 2], [3, 4]])
    assert linalg.mat_mul(((0.0, 0.0),), ones) == ((0.0, 0.0),)
    assert all(type(x) is float for x in linalg.mat_mul(((0.0, 0.0),), ones)[0])
    assert all(type(x) is float
               for x in linalg.mat_mul(ones, ((0.0,), (-0.0,)))[0])
    poly_zero = ((Polynomial(), Polynomial()),)
    assert all(type(x) is Fraction for x in linalg.mat_mul(poly_zero, ones)[0])
    # polynomials times Python ints, as in the symbolic Levi-Civita product:
    # a zero entry is an int 0, never a Fraction
    a = Polynomial.variable("a")
    product = linalg.mat_mul(((a, 0), (0, 0)), ((2, 0), (0, 3)))
    assert product == ((2 * a, 0), (0, 0))
    assert [[type(x) for x in row] for row in product] == \
        [[Polynomial, int], [int, int]]
    assert [type(x) for x in linalg.mat_mul(poly_zero, ((1,), (2,)))[0]] == \
        [int]


ZERO_TEST_VALUES = st.one_of(
    st.fractions(-5, 5, max_denominator=4), st.just(Fraction(0)),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, float("nan"), 5e-324]),
    st.just(Polynomial()),
    st.tuples(st.fractions(-3, 3, max_denominator=3), st.integers(-2, 2),
              st.sampled_from(["a", "b"])).map(
        lambda t: t[0] * Polynomial.variable(t[2]) + t[1]))


@settings(max_examples=300, deadline=None)
@given(ZERO_TEST_VALUES)
def test_truthiness_is_the_zero_test(x):
    # mat_mul and the compound cache test entries by truthiness
    assert bool(x) == (not is_zero(x)) == (not is_zero(x, 0.0))


def test_float_product_with_a_zero_row_holds_floats():
    a = linalg.mat([[0, 0], [1, 2]])
    b = ((0.5, 0.0), (1.5, -2.0))
    assert linalg.mat_mul(a, b) == ((0.0, 0.0), (3.5, -4.0))
    assert all(type(x) is float for x in linalg.mat_mul(a, b)[0])


def test_nullspace_exact():
    assert linalg.nullspace(SINGULAR) == [(-2, 1, 0), (-3, 0, 1)]


def test_nullspace_float():
    kernel = linalg.nullspace(to_float(SINGULAR), 1e-10)
    assert len(kernel) == 2
    assert all(type(x) is float for v in kernel for x in v)
    k = np.array(kernel)
    assert np.abs(np.array(to_float(SINGULAR)) @ k.T).max() <= 1e-12
    assert np.allclose(k @ k.T, np.eye(2))


@pytest.mark.parametrize("ring", ["exact", "float"])
def test_inverse_and_row_basis_in_both_rings(ring):
    a, singular = (A, SINGULAR) if ring == "exact" else \
        (to_float(A), to_float(SINGULAR))
    inv = linalg.inverse(a)
    assert {type(x) for row in inv for x in row} == \
        ({Fraction} if ring == "exact" else {float})
    product = np.array(to_float(linalg.mat_mul(a, inv)))
    assert np.abs(product - np.eye(3)).max() <= (0 if ring == "exact" else 1e-14)
    with pytest.raises(ZeroDivisionError):
        linalg.inverse(linalg.mat_mul(linalg.transpose(singular), singular))
    assert len(linalg.row_basis(singular, 1e-12)) == 1
    assert len(linalg.row_basis(a, 1e-12)) == 3


def test_rref_refuses_float_rows():
    with pytest.raises(TypeError):
        linalg.rref(to_float(SINGULAR))


@pytest.mark.parametrize("name", sorted(catalog.NILPOTENT6))
def test_derivation_space_dimension_agrees_across_rings(name):
    algebra = catalog.algebra(name)
    assert len(derivation_space(algebra)) == \
        len(derivation_space(to_float_algebra(algebra)))


@pytest.mark.parametrize("name", sorted(catalog.NILPOTENT6))
def test_metric_analyze_verdicts_agree_across_rings(capsys, name):
    results = {}
    for ring in ("exact", "float"):
        assert main(["--ring", ring, "metric", "analyze", name,
                     "--format", "json"]) == 0
        results[ring] = json.loads(capsys.readouterr().out)["results"]
    exact, approx = results["exact"], results["float"]
    assert (exact["einstein"] is None) == (approx["einstein"] is None)
    if exact["einstein"] is not None:
        assert abs(Fraction(exact["einstein"]) - approx["einstein"]) <= 1e-8
    assert (exact["nilsoliton"] is None) == (approx["nilsoliton"] is None)
    if exact["nilsoliton"] is not None:
        assert abs(Fraction(exact["nilsoliton"]["c"])
                   - approx["nilsoliton"]["c"]) <= 1e-8


@st.composite
def symmetric_matrices(draw):
    """(kind, m): m = A^T A + I is definite, A^T A with a zero row in A is
    semidefinite, -(A^T A + I) is negative definite, A + A^T is mostly
    indefinite."""
    n = draw(st.integers(1, 7))
    entry = st.fractions(-3, 3, max_denominator=3)
    a = linalg.mat([[draw(entry) for _ in range(n)] for _ in range(n)])
    gram = linalg.mat_mul(linalg.transpose(a), a)
    kind = draw(st.sampled_from(["definite", "semidefinite", "negative",
                                 "symmetric"]))
    if kind == "definite":
        m = linalg.mat([[x + (i == j) for j, x in enumerate(row)]
                        for i, row in enumerate(gram)])
    elif kind == "semidefinite":
        drop = draw(st.integers(0, n - 1))
        a = tuple(row if i != drop else (Fraction(0),) * n
                  for i, row in enumerate(a))
        m = linalg.mat_mul(linalg.transpose(a), a)
    elif kind == "negative":
        m = linalg.mat([[-x - (i == j) for j, x in enumerate(row)]
                        for i, row in enumerate(gram)])
    else:
        m = linalg.mat([[a[i][j] + a[j][i] for j in range(n)]
                        for i in range(n)])
    return kind, m


@settings(max_examples=100, deadline=None)
@given(symmetric_matrices())
def test_positive_definite_verdict_agrees_across_rings(case):
    kind, m = case
    exact = linalg.is_positive_definite(m)
    if kind in ("definite", "semidefinite", "negative"):
        assert exact == (kind == "definite")
    # away from the boundary: a singular m, or a smallest eigenvalue far
    # from 0, which a float tolerance of 1e-10 cannot move across it
    smallest = np.abs(np.linalg.eigvalsh(linalg.to_numpy(m))).min()
    assume(linalg.det(m) == 0 or smallest > 1e-6)
    assert linalg.is_positive_definite(to_float(m), 1e-10) == exact


def test_positive_definite_polynomial_matrix():
    a = Polynomial.variable("a")
    constant = linalg.mat([[Polynomial.constant(2), 1],
                           [1, Polynomial.constant(1)]])
    assert linalg.is_positive_definite(constant)
    assert not linalg.is_positive_definite(
        linalg.mat([[Polynomial.constant(1), 2], [2, 1]]))
    with pytest.raises(ValueError, match="symbolic"):
        linalg.is_positive_definite(linalg.mat([[a, 0], [0, 1]]))


def lcm_of(dens):
    return reduce(lambda a, b: a * b // gcd(a, b), dens, 1)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.fractions(max_denominator=60) | st.integers(-50, 50),
                max_size=12))
def test_clear_writes_exact_values_over_their_lcm(values):
    den, nums = linalg.clear(values)
    assert den == lcm_of(Fraction(x).denominator for x in values)
    assert all(type(x) is int for x in nums)
    assert [Fraction(x, den) for x in nums] == values
    assert [linalg.over(x, den) for x in nums] == values
    assert all(type(linalg.over(x, den)) is Fraction for x in nums)


def clear_by_properties(values):
    """Reference: ``clear`` reading ``denominator`` twice and ``numerator``
    once per exact value."""
    values = list(values)
    if not linalg.is_exact(values):
        return 1, values
    den = lcm_of(x.denominator for x in values)
    return den, [x.numerator * (den // x.denominator) for x in values]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.fractions(max_denominator=60)
                | st.integers(-10**30, 10**30)
                | st.sampled_from([0, Fraction(0), 0.5, Polynomial()]),
                max_size=12))
def test_clear_matches_the_property_reads(values):
    """Denominator, numerators and their types equal the reference's, also
    over den 1 and from a generator."""
    den, nums = linalg.clear(x for x in values)
    ref_den, ref_nums = clear_by_properties(values)
    assert type(den) is int and den == ref_den
    assert nums == ref_nums
    assert [type(x) for x in nums] == [type(x) for x in ref_nums]


NON_EXACT = (st.floats(allow_nan=True, allow_infinity=True)
             | st.sampled_from([0.0, -0.0, 5e-324])
             | st.sampled_from([Polynomial(), Polynomial.variable("a"),
                                Polynomial.constant(Fraction(1, 3))]))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.fractions(max_denominator=60), max_size=6),
       st.lists(NON_EXACT, min_size=1, max_size=4), st.randoms())
def test_clear_passes_floats_and_polynomials_through(exact, other, rnd):
    """One float or polynomial keeps every value as it is, -0.0 and
    Fractions too, over den 1; ``over`` then returns them unchanged."""
    values = exact + other
    rnd.shuffle(values)
    den, nums = linalg.clear(values)
    assert den == 1
    assert len(nums) == len(values)
    assert all(x is y for x, y in zip(nums, values))
    assert all(linalg.over(x, den) is x for x in other)


def fraction_rref(rows, ncols):
    """Reference: Gauss-Jordan over Fractions.  In each of the leading ncols
    columns the first nonzero entry at or below the next pivot row pivots;
    its row is divided by it and its column cleared from every other row."""
    rows = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        p = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        top = [x / rows[r][c] for x in rows[r]]
        rows = [top if i == r else [x - row[c] * y for x, y in zip(row, top)]
                for i, row in enumerate(rows)]
        pivots.append(c)
    return rows, pivots


EXACT_ENTRIES = st.fractions(-4, 4, max_denominator=6) | st.integers(-4, 4)


@st.composite
def rank_deficient_rows(draw):
    """(rows, ncols, width): rows that are integer combinations of at most
    four basis rows (zero rows when every coefficient is 0), ints mixed with
    Fractions, some with an entry added past ncols, so that rows past the
    rank can be nonzero there."""
    width = draw(st.integers(1, 6))
    ncols = draw(st.integers(0, width))
    vector = st.lists(EXACT_ENTRIES, min_size=width, max_size=width)
    basis = draw(st.lists(vector, max_size=4))
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        coeffs = draw(st.lists(st.integers(-2, 2), min_size=len(basis),
                               max_size=len(basis)))
        row = [sum((c * b[j] for c, b in zip(coeffs, basis)), 0)
               for j in range(width)]
        if ncols < width and draw(st.booleans()):
            j = draw(st.integers(ncols, width - 1))
            row[j] += draw(EXACT_ENTRIES)
        rows.append(row)
    return rows, (None if ncols == width else ncols), width


@settings(max_examples=300, deadline=None)
@given(rank_deficient_rows())
def test_exact_rref_is_fraction_gauss_jordan(case):
    """Bareiss over one denominator gives the Fraction elimination's
    pivots and rows, every entry a Fraction."""
    rows, ncols, width = case
    red, pivots = linalg.rref(rows, ncols)
    want, want_pivots = fraction_rref(rows, width if ncols is None else ncols)
    assert pivots == want_pivots
    assert [[(type(x), x) for x in row] for row in red] == \
        [[(type(x), x) for x in row] for row in want]


def solve_with_residual(a, b):
    """Reference: the exact ``linalg.solve``, with the residual a x - b
    re-summed after the elimination."""
    nr, nc = len(a), len(a[0]) if a else 0
    red, pivots = linalg.rref([list(a[i]) + [coerce(b[i])] for i in range(nr)],
                              ncols=nc)
    x = [Fraction(0)] * nc
    for r, c in enumerate(pivots):
        x[c] = red[r][nc]
    if any(not is_zero(red[r][nc]) for r in range(len(pivots), nr)):
        return None
    for i in range(nr):
        res = sum((a[i][j] * x[j] for j in range(nc)), Fraction(0)) - b[i]
        if not is_zero(res):
            return None
    return tuple(x)


@settings(max_examples=300, deadline=None)
@given(rank_deficient_rows())
def test_exact_solve_matches_the_residual_checked_solve(case):
    """On a rational right-hand side the solution, or None, and the types
    of its entries are those of the solve that re-summed a x - b."""
    rows, ncols, width = case
    split = width - 1 if ncols is None else ncols   # b is the column there
    assume(rows and split)
    a = [row[:split] for row in rows]
    b = [row[split] for row in rows]
    got, want = linalg.solve(a, b), solve_with_residual(a, b)
    assert (got is None) == (want is None)
    if got is not None:
        assert [(type(x), x) for x in got] == [(type(x), x) for x in want]
