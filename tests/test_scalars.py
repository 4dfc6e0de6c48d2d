from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from g2forge.exterior import KForm
from g2forge.reproduce import payload
from g2forge.scalars import (ExactnessError, MissingVariableError, Polynomial,
                             RingMismatchError, _var_key, nth_root_fraction,
                             poly_sqrt, render_scalar,
                             sqrt_fraction, ssqrt)

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)


def P(name):
    return Polynomial.variable(name)


def test_a_constant_polynomial_hashes_as_the_value_it_equals():
    two = Polynomial.constant(2)
    assert two == Fraction(2) and hash(two) == hash(Fraction(2))
    assert Polynomial.zero() == 0 and hash(Polynomial.zero()) == hash(0)
    assert hash(P("a")) != hash(Fraction(1))
    assert len({KForm(3, 1, {(1,): two}), KForm(3, 1, {(1,): Fraction(2)})}) == 1
    assert len({two, Fraction(2), 2}) == 1


def test_symbols_and_powers_keep_int_coefficients():
    p = 2 * P("x") ** 2 * P("y") - 3 * P("x") * P("y")
    assert {type(c) for c in p.terms.values()} == {int}
    assert {type(c) for c in (p / 2).terms.values()} == {Fraction}
    assert {type(c) for c in Polynomial({(): 2}).terms.values()} == {Fraction}


def test_an_int_coefficient_polynomial_is_its_fraction_twin():
    """Equal, hashed alike and rendered alike, constants included."""
    for p in (2 * P("x") ** 2 * P("y") - 3 * P("x") * P("y"), P("x") ** 0,
              -P("b15") ** 4 * 4, P("c")):
        twin = Polynomial({m: Fraction(c) for m, c in p.terms.items()})
        assert {type(c) for c in twin.terms.values()} == {Fraction}
        assert p == twin and hash(p) == hash(twin)
        assert str(p) == str(twin) and render_scalar(p) == render_scalar(twin)
        assert payload(p) == payload(twin)


def test_what_a_polynomial_hands_out_is_a_fraction():
    """leading_term, constant_value and evaluate give Fractions on int
    coefficients, so a payload renders "2", never the number 2."""
    p = 2 * P("x") ** 2 * P("y") + 3
    lead = p.leading_term()
    assert lead == ((("x", 2), ("y", 1)), 2) and type(lead[1]) is Fraction
    values = (p.evaluate({"x": 1, "y": 1}), (P("x") ** 0 * 2).constant_value(),
              Polynomial.zero().constant_value(), lead[1])
    assert all(type(v) is Fraction for v in values)
    assert [payload(v) for v in values] == ["5", "2", "0", "2"]


def test_rational_arithmetic_examples():
    assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)
    b15 = P("b15")
    assert b15 * b15 ** 3 == b15 ** 4
    p = P("c") ** 4 * b15 ** 4
    assert p.evaluate({"c": -1, "b15": -1}) == 1


def test_poly_eval_examples():
    c, b15 = P("c"), P("b15")
    p = -4 * c ** 4 * b15 ** 4
    assert p.evaluate({"c": -1, "b15": -1}) == -4
    assert Polynomial.zero().evaluate({}) == 0
    c4 = P("c") ** 4
    q = c4 * (P("b14") ** 2 - P("b15") ** 2) ** 2
    assert q.evaluate({"c": 1, "b14": 2, "b15": 1}) == 9


def test_missing_variable():
    with pytest.raises(MissingVariableError):
        (P("b1") + P("b2")).evaluate({"b1": 1})


def test_ring_mismatch():
    with pytest.raises(RingMismatchError):
        P("a") + 0.5
    with pytest.raises(RingMismatchError):
        P("a") * 0.5


def test_division():
    assert (4 * P("a")) / 2 == 2 * P("a")
    with pytest.raises(ZeroDivisionError):
        P("a") / Polynomial.zero()
    with pytest.raises(ZeroDivisionError):
        (P("a") + 1) / P("a")


@given(rationals, rationals, rationals)
def test_rational_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c


@given(st.dictionaries(st.sampled_from(["x", "y", "z"]), rationals,
                       min_size=3, max_size=3),
       rationals, rationals, rationals, rationals)
def test_poly_product_evaluation_homomorphism(assignment, a0, a1, b0, b1):
    x, y = P("x"), P("y")
    p = a0 + a1 * x * y ** 2
    q = b0 + b1 * y + x ** 2
    lhs = (p * q).evaluate(assignment)
    rhs = p.evaluate(assignment) * q.evaluate(assignment)
    assert lhs == rhs


def test_sqrt_helpers():
    assert sqrt_fraction(Fraction(9, 4)) == Fraction(3, 2)
    assert sqrt_fraction(Fraction(2)) is None
    assert nth_root_fraction(Fraction(-512), 9) == -2
    assert nth_root_fraction(Fraction(10), 9) is None
    assert ssqrt(Fraction(4)) == 2
    with pytest.raises(ExactnessError):
        ssqrt(Fraction(5))
    assert ssqrt(2.0) == pytest.approx(1.4142135623730951)


def test_poly_sqrt():
    b14, b15 = P("b14"), P("b15")
    q = (b14 ** 2 - b15 ** 2) ** 2
    assert poly_sqrt(q) in (b14 ** 2 - b15 ** 2, b15 ** 2 - b14 ** 2)
    assert poly_sqrt(b15 ** 4) == b15 ** 2
    assert poly_sqrt(b14 ** 2 * b15 ** 2 + 1) is None
    assert poly_sqrt(Polynomial.zero()) == Polynomial.zero()


def test_render():
    assert render_scalar(Fraction(-5, 3)) == "-5/3"
    assert render_scalar(Fraction(7)) == "7"
    assert str(-4 * P("c") ** 4 * P("b15") ** 4) == "-4*b15^4*c^4"


@pytest.mark.parametrize("x", [2.5e-05, 1e16, 1e-300, 0.1, 123.456, 3.0])
@pytest.mark.parametrize("ring", ["exact", "float"])
def test_rendered_forms_parse_back(ring, x):
    # floats render positionally: the form grammar reads "e" as a coframe
    # name, so 2.5e-05*e12 or 1e+16*e12 would not parse
    from g2forge.exterior import KForm, render_form
    from g2forge.liealg import parse_form
    c = x if ring == "float" else Fraction(x)
    form = KForm(6, 2, {(1, 2): c, (3, 4): -c})
    text = render_form(form)
    assert "e+" not in text and "e-" not in text
    back = parse_form(text, 6)
    assert back == form
    assert all(type(v) is type(c) for v in back.coeffs.values())


def test_render_float_positional():
    assert render_scalar(2.5e-05) == "0.000025"
    assert render_scalar(1e16) == "10000000000000000.0"
    assert render_scalar(-0.5) == "-0.5"
    assert float(render_scalar(1e-300)) == 1e-300


def rebuilt_fraction_render(x):
    # the rational branch of render_scalar before ints and Fractions were
    # printed by str: every leaf rebuilt as a Fraction
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return "%d/%d" % (x.numerator, x.denominator)


@given(st.one_of(st.integers(-10 ** 30, 10 ** 30), st.booleans(),
                 st.fractions(), rationals))
def test_rational_render_is_the_rebuilt_fraction_text(x):
    assert render_scalar(x) == rebuilt_fraction_render(x)


def test_bools_and_numpy_ints_render_as_rationals():
    import numpy as np
    assert render_scalar(True) == "1" and render_scalar(False) == "0"
    assert render_scalar(np.int64(-7)) == "-7"


# The sort-and-Fraction(0) product and sum that the scalar fast path and the
# memoized monomial product replaced, on the terms of constants promoted to
# polynomials as before.
def canonical(exps):
    return tuple(sorted(exps.items(), key=lambda ve: _var_key(ve[0])))


def reference_terms(x):
    return x.terms if isinstance(x, Polynomial) else Polynomial.constant(x).terms


def reference_sum(p, q):
    terms = dict(reference_terms(p))
    for m, c in reference_terms(q).items():
        s = terms.get(m, Fraction(0)) + c
        if s:
            terms[m] = s
        else:
            terms.pop(m, None)
    return terms


def reference_product(p, q):
    terms = {}
    for m1, c1 in reference_terms(p).items():
        for m2, c2 in reference_terms(q).items():
            exps = dict(m1)
            for v, e in m2:
                exps[v] = exps.get(v, 0) + e
            m = canonical(exps)
            s = terms.get(m, Fraction(0)) + c1 * c2
            if s:
                terms[m] = s
            else:
                terms.pop(m, None)
    return terms


# names whose string order differs from _var_key order: b10 < b2, b12 < b9
monomials = st.dictionaries(st.sampled_from(["b2", "b9", "b10", "b12", "c"]),
                            st.integers(1, 3), max_size=3).map(canonical)
polynomials = st.dictionaries(monomials, rationals, max_size=4).map(Polynomial)
constants = st.one_of(st.integers(-4, 4), rationals)


def assert_same_terms(result, reference):
    assert isinstance(result, Polynomial)
    assert result.terms == reference
    assert all(type(c) is Fraction and c for c in result.terms.values())
    assert all(m == canonical(dict(m)) and all(e > 0 for _, e in m)
               for m in result.terms)


@given(polynomials, polynomials, constants, constants.filter(bool))
def test_polynomial_arithmetic_matches_the_sorting_reference(p, q, k, j):
    """Sums, products and quotients with polynomial and constant operands,
    in both orders: equal terms, Fraction coefficients, no zero coefficient
    and every monomial in _var_key order."""
    for result, reference in [
            (p + q, reference_sum(p, q)), (p - q, reference_sum(p, -q)),
            (p + k, reference_sum(p, k)), (k + p, reference_sum(k, p)),
            (p - k, reference_sum(p, -k)), (k - p, reference_sum(k, -p)),
            (p * q, reference_product(p, q)),
            (p * k, reference_product(p, k)), (k * p, reference_product(k, p)),
            (p / j, reference_product(p, 1 / Fraction(j))),
            (k / Polynomial.constant(j), reference_product(k, 1 / Fraction(j)))]:
        assert_same_terms(result, reference)
