from fractions import Fraction

import pytest

from g2forge import catalog
from g2forge.reproduce import payload
from g2forge.sampling import generic_form
from g2forge.scalars import Polynomial
from g2forge.stable_forms import lambda_invariant
from g2forge.survey import (SIGN_INDEFINITE, SIGN_NONNEG, SIGN_NONPOS,
                            SIGN_ZERO, NoCertificateError, _strip_c4,
                            generic_lambda, sign_certificate,
                            sign_partition)


def P(name):
    return Polynomial.variable(name)


def table_polynomials():
    """The survey quartics as transcribed from the source classification.

    The n8 entry transcribes the original misprint (it duplicates n7);
    the regenerated value is the sum-of-squares variant asserted in
    test_survey_table_regeneration below, verified by an independent
    hand expansion.
    """
    c4 = P("c") ** 4
    b9, b12, b13 = P("b9"), P("b12"), P("b13")
    b14, b15 = P("b14"), P("b15")
    zero = Polynomial.zero()
    diff_sq = c4 * (b14 ** 2 - b15 ** 2) ** 2
    quart15 = c4 * b15 ** 4
    return {
        "n4": 4 * c4 * b15 ** 2 * (-1 * b15 * (b12 + b13) + b14 ** 2),
        "n6": quart15,
        "n7": diff_sq,
        "n8": diff_sq,   # transcribed misprint; regenerated value differs
        "n9": 4 * c4 * b15 ** 2 * (-1 * b15 * (b9 + b13) + b14 ** 2),
        "n10": quart15,
        "n11": quart15,
        "n12": zero,
        "n13": zero,
        "n14": c4 * P("b14") ** 4,
        "n15": diff_sq,
        "n16": c4 * (b14 ** 2 + b15 ** 2) ** 2,
        "n21": zero,
        "n22": quart15,
        "n24": zero,
        "n25": quart15,
        "n27": zero,
        "n28": -4 * c4 * b15 ** 4,
        "n29": zero,
        "n30": quart15,
        "n31": zero,
        "n32": zero,
        "n33": zero,
        "n34": zero,
    }


N8_REGENERATED = P("c") ** 4 * (P("b14") ** 2 + P("b15") ** 2) ** 2


def test_generic_two_form_ordering():
    omega = generic_form(2, "b")
    assert omega[(1, 2)] == P("b1")
    assert omega[(2, 3)] == P("b6")
    assert omega[(5, 6)] == P("b15")
    sigma = generic_form(3, "s")
    assert sigma[(1, 2, 3)] == P("s1")
    assert sigma[(1, 5, 6)] == P("s10")
    assert sigma[(4, 5, 6)] == P("s20")


def test_survey_table_regeneration(survey_rows):
    expected = table_polynomials()
    expected["n8"] = N8_REGENERATED
    assert len(survey_rows) == 24
    for row in survey_rows:
        assert row.lambda_poly == expected[row.algebra_name], row.algebra_name


def test_transcribed_rows_match_except_n8(survey_rows):
    expected = table_polynomials()
    mismatches = [r.algebra_name for r in survey_rows
                  if r.lambda_poly != expected[r.algebra_name]]
    assert mismatches == ["n8"]


def test_n8_regenerated_value_spot_checks():
    # independent numeric anchor: at b14 = b15 = 1, c = 1 the quartic is 4
    # (hand expansion of K for the restricted two-parameter slice), which
    # the transcribed n7-duplicate would send to 0 instead
    lam = generic_lambda(catalog.algebra("n8"))
    assignment = {v: Fraction(0) for v in lam.variables}
    assignment.update({"c": Fraction(1), "b14": Fraction(1),
                       "b15": Fraction(1)})
    assert lam.evaluate(assignment) == 4
    assignment["b14"] = Fraction(2)
    assert lam.evaluate(assignment) == 25


def test_lambda_homogeneity_structure(survey_rows):
    for row in survey_rows:
        p = row.lambda_poly
        if p.is_zero():
            continue
        for mono, _ in p.terms.items():
            exps = dict(mono)
            assert exps.get("c", 0) == 4
            b_total = sum(e for v, e in exps.items() if v != "c")
            assert b_total == 4


def test_sign_partition(survey_rows):
    counts = sign_partition(survey_rows)
    assert counts[SIGN_NONNEG] + counts[SIGN_ZERO] == 21
    assert counts[SIGN_NONPOS] == 1
    assert counts[SIGN_INDEFINITE] == 2
    classes = {r.algebra_name: r.sign_class for r in survey_rows}
    assert classes["n28"] == SIGN_NONPOS
    assert classes["n4"] == SIGN_INDEFINITE
    assert classes["n9"] == SIGN_INDEFINITE


def test_sign_certificates(survey_rows):
    for row in survey_rows:
        cert = row.certificate
        if row.sign_class == SIGN_ZERO:
            assert cert.kind == "zero"
        elif row.sign_class in (SIGN_NONNEG, SIGN_NONPOS):
            assert cert.kind == "scaled_square"
            rebuilt = cert.factor * P("c") ** 4 * cert.root ** 2
            assert rebuilt == row.lambda_poly
            assert (cert.factor > 0) == (row.sign_class == SIGN_NONNEG)
        else:
            assert cert.kind == "witness_pair"
            pos = row.lambda_poly.evaluate(cert.positive_witness)
            neg = row.lambda_poly.evaluate(cert.negative_witness)
            assert pos > 0 and neg < 0


def test_sign_certificate_examples():
    c4 = P("c") ** 4
    sq = c4 * (P("b14") ** 2 - P("b15") ** 2) ** 2
    cls, cert = sign_certificate(sq)
    assert cls == SIGN_NONNEG and cert.kind == "scaled_square"
    cls, cert = sign_certificate(-4 * c4 * P("b15") ** 4)
    assert cls == SIGN_NONPOS
    cls, cert = sign_certificate(Polynomial.zero())
    assert cls == SIGN_ZERO
    with pytest.raises(NoCertificateError):
        sign_certificate(P("b1"))


def test_a_certificate_factor_is_a_fraction(survey_rows):
    """On int coefficients too: the factor renders "-4", not the number."""
    _, cert = sign_certificate(-4 * P("c") ** 4 * P("b15") ** 4)
    assert (type(cert.factor), cert.factor) == (Fraction, -4)
    assert payload(cert.factor) == "-4"
    factors = [r.certificate.factor for r in survey_rows
               if r.certificate.kind == "scaled_square"]
    assert factors and all(type(f) is Fraction for f in factors)


def test_generic_lambda_is_c4_times_lambda_of_d_omega():
    """lambda(c s) = c^4 lambda(s): the survey quartic equals lambda of
    c d(omega) computed directly, on every algebra of the table."""
    c = P("c")
    for name in catalog.TABLE_ORDER:
        algebra = catalog.algebra(name)
        direct = lambda_invariant(c * algebra.d(generic_form(2, "b")))
        lam = generic_lambda(algebra)
        assert type(lam) is Polynomial and lam == direct


def test_strip_c4_keeps_monomials_in_variable_order():
    """b12 sorts before b9 as a string; the quotient's monomials must still
    be the canonical ones, which the scaled square below relies on."""
    c4, b9, b12 = P("c") ** 4, P("b9"), P("b12")
    assert _strip_c4(c4 * b9 * b12) == b9 * b12
    cls, cert = sign_certificate(c4 * (b9 + b12) ** 2)
    assert (cls, cert.kind, cert.factor) == (SIGN_NONNEG, "scaled_square", 1)
    assert cert.root == b9 + b12


def witness(b_values):
    return {**{v: Fraction(x) for v, x in b_values.items()}, "c": Fraction(1)}


# Every survey row as the Polynomial arithmetic before its scalar fast path
# and memoized monomial product computed it: str(lambda), sign class and
# the certificate (kind, factor, str(root), witnesses).
N4_POS = witness({"b12": -2, "b13": -2, "b14": -2, "b15": 1})
N4_NEG = witness({"b12": -2, "b13": -2, "b14": -2, "b15": -2})
N9_POS = witness({"b9": -2, "b13": -2, "b14": -2, "b15": 1})
N9_NEG = witness({"b9": -2, "b13": -2, "b14": -2, "b15": -2})
SQUARE15 = ("b15^4*c^4", SIGN_NONNEG, "scaled_square", 1, "b15^2")
ZERO_ROW = ("0", SIGN_ZERO, "zero", None, None)
DIFF = ("b14^4*c^4 - 2*b14^2*b15^2*c^4 + b15^4*c^4", SIGN_NONNEG,
        "scaled_square", 1, "b14^2 - b15^2")
SUM = ("b14^4*c^4 + 2*b14^2*b15^2*c^4 + b15^4*c^4", SIGN_NONNEG,
       "scaled_square", 1, "b14^2 + b15^2")
SURVEY_PINNED = {
    "n4": ("-4*b12*b15^3*c^4 - 4*b13*b15^3*c^4 + 4*b14^2*b15^2*c^4",
           SIGN_INDEFINITE, "witness_pair", None, None, N4_POS, N4_NEG),
    "n6": SQUARE15, "n7": DIFF, "n8": SUM,
    "n9": ("-4*b9*b15^3*c^4 - 4*b13*b15^3*c^4 + 4*b14^2*b15^2*c^4",
           SIGN_INDEFINITE, "witness_pair", None, None, N9_POS, N9_NEG),
    "n10": SQUARE15, "n11": SQUARE15, "n12": ZERO_ROW, "n13": ZERO_ROW,
    "n14": ("b14^4*c^4", SIGN_NONNEG, "scaled_square", 1, "b14^2"),
    "n15": DIFF, "n16": SUM, "n21": ZERO_ROW, "n22": SQUARE15,
    "n24": ZERO_ROW, "n25": SQUARE15, "n27": ZERO_ROW,
    "n28": ("-4*b15^4*c^4", SIGN_NONPOS, "scaled_square", -4, "b15^2"),
    "n29": ZERO_ROW, "n30": SQUARE15, "n31": ZERO_ROW, "n32": ZERO_ROW,
    "n33": ZERO_ROW, "n34": ZERO_ROW,
}


def test_survey_rows_are_pinned(survey_rows):
    assert [r.algebra_name for r in survey_rows] == list(SURVEY_PINNED)
    for row in survey_rows:
        cert = row.certificate
        want = SURVEY_PINNED[row.algebra_name]
        want = want + (None, None) if len(want) == 5 else want
        assert (str(row.lambda_poly), row.sign_class, cert.kind, cert.factor,
                None if cert.root is None else str(cert.root),
                cert.positive_witness, cert.negative_witness) == want
        assert cert.factor is None or type(cert.factor) is Fraction
        assert all(type(x) is Fraction for w in (cert.positive_witness,
                                                 cert.negative_witness)
                   if w for x in w.values())


def test_n28_specialization_matches_explicit_pair(survey_rows):
    lam_poly = next(r.lambda_poly for r in survey_rows
                    if r.algebra_name == "n28")
    assignment = {v: Fraction(0) for v in lam_poly.variables}
    assignment.update({"c": Fraction(-1), "b15": Fraction(-1)})
    specialized = lam_poly.evaluate(assignment)
    _, sigma = catalog.n28_coupled_pair()
    assert specialized == lambda_invariant(sigma) == -4
