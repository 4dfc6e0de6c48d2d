"""The closed forms of the G2 torsion analysis against the generic linear
algebra they replace, in the exact ring, and the conventions they read.

The type decompositions (``two_form_components``, ``three_form_components``)
read their projection coefficients from the Gram identities of the
contractions i_X phi and i_X *phi (Bryant, *Some remarks on G2-structures*,
2.6).  ``torsion_forms`` reads tau0..tau3 off the splits of *d phi and
*d *phi, through *(e^i ^ phi) = -i(e^i#) *phi, *(e^i ^ *phi) = i(e^i#) phi
and *(beta ^ phi) = -sigma beta on the 14-dimensional piece, which are
pinned here.  ``b_form`` pairs i_X phi with the seven 5-forms
i_Y phi ^ phi.  The references below are the formulas these replace: a
Gram matrix of ``form_inner`` values and a solve (on the families e^i ^ phi
and e^i ^ *phi for the torsion), the solve over a basis of the
14-dimensional piece for tau2, and the double wedge for B.  The inputs are
CASES on the identity, dense and shear coframes, and the generic-torsion
input on the identity and dense coframes, each with phi and -phi.
"""
import dataclasses
from fractions import Fraction
from functools import lru_cache

import pytest

from g2forge import linalg
from g2forge.exterior import (KForm, Orientation, Vector, basis_indices,
                              contract, contract_basis, form_inner,
                              hodge_star, scaled, wedge)
from g2forge.g2 import (TorsionInconsistencyError, b_form, metric_from_phi,
                        three_form_components, torsion_forms,
                        two_form_14_basis, two_form_components)

from test_coframe import CASES, GENERIC, P_DENSE, P_SHEAR, Coframe

COFRAMES = {"identity": None, "dense": P_DENSE, "shear": P_SHEAR}
INPUTS = [(name, coframe, sign)
          for name in sorted(CASES) for coframe in COFRAMES
          for sign in (1, -1)] + \
         [("generic", coframe, sign)
          for coframe in ("identity", "dense") for sign in (1, -1)]
IDS = ["%s-%s-%s" % (n, c, "plus" if s > 0 else "minus") for n, c, s in INPUTS]


@lru_cache(maxsize=None)
def structure(name, coframe, sign):
    """(algebra, phi, G2Structure) of one input."""
    algebra, phi = GENERIC if name == "generic" else CASES[name]
    if COFRAMES[coframe] is not None:
        c = Coframe(COFRAMES[coframe])
        algebra, phi = c.algebra(algebra), c.form(phi)
    phi = sign * phi
    return algebra, phi, metric_from_phi(phi)


def coframe_forms():
    return [KForm(7, 1, {(i,): Fraction(1)}) for i in range(1, 8)]


def gram(basis, g):
    return [[form_inner(a, b, g) for b in basis] for a in basis]


def gram_project(target, basis, g):
    """Reference: the g-orthogonal projection onto span(basis) from the
    Gram matrix of the basis and a solve."""
    coeffs = linalg.solve(linalg.mat(gram(basis, g)),
                          [form_inner(a, target, g) for a in basis])
    out = KForm.zero(target.dim, target.degree)
    for c, f in zip(coeffs, basis):
        out = out + c * f
    return out, coeffs


def reference_torsion(algebra, phi, s):
    """Reference: (tau0, tau1, tau2, tau3) with both tau1 from Gram solves
    and tau2 solved over a basis of the 14-dimensional piece."""
    g, orient, star_phi = s.metric, s.volume, s.star_phi
    dphi, dstar = algebra.d(phi), algebra.d(star_phi)
    tau0 = form_inner(dphi, star_phi, g) / form_inner(star_phi, star_phi, g)
    p47, coeffs47 = gram_project(dphi, [wedge(e, phi) for e in coframe_forms()],
                                 g)
    tau1 = KForm(7, 1, {(i + 1,): c / 3 for i, c in enumerate(coeffs47)})
    tau3 = hodge_star(dphi - tau0 * star_phi - p47, g, orient)
    p57, _ = gram_project(dstar, [wedge(e, star_phi) for e in coframe_forms()],
                          g)
    basis14 = two_form_14_basis(s)
    idx5 = basis_indices(7, 5)
    cols = [[wedge(b, phi)[j] for j in idx5] for b in basis14]
    sol = linalg.solve(linalg.mat(list(zip(*cols))),
                       [(dstar - p57)[j] for j in idx5])
    assert sol is not None
    tau2 = KForm.zero(7, 2)
    for c, f in zip(sol, basis14):
        tau2 = tau2 + c * f
    return tau0, tau1, tau2, tau3


def double_wedge_b(phi):
    """Reference: B_ij = (1/6) (i_i phi ^ i_j phi ^ phi)_{1..7}."""
    contractions = [contract_basis(i, phi) for i in range(1, 8)]
    return linalg.mat([[wedge(wedge(a, b), phi).coeffs.get(
        tuple(range(1, 8)), Fraction(0)) / 6 for b in contractions]
        for a in contractions])


def typed(a: KForm):
    return sorted((idx, type(c), c) for idx, c in a.coeffs.items())


@pytest.mark.parametrize("case", INPUTS, ids=IDS)
def test_gram_matrices_of_the_seven_dimensional_families(case):
    """<e^i^phi, e^j^phi> = 4 g^ij, <e^i^*phi, e^j^*phi> = 3 g^ij,
    <i_i phi, i_j phi> = 3 g_ij and <i_i *phi, i_j *phi> = 4 g_ij."""
    _, phi, s = structure(*case)
    g, star_phi = s.metric, s.star_phi

    def times(k, m):
        return [[k * x for x in row] for row in m]

    assert gram([wedge(e, phi) for e in coframe_forms()], g) == \
        times(4, g.inverse)
    assert gram([wedge(e, star_phi) for e in coframe_forms()], g) == \
        times(3, g.inverse)
    assert gram([contract_basis(i, phi) for i in range(1, 8)], g) == \
        times(3, g.matrix)
    assert gram([contract_basis(i, star_phi) for i in range(1, 8)], g) == \
        times(4, g.matrix)


@pytest.mark.parametrize("case", INPUTS, ids=IDS)
def test_torsion_matches_gram_and_basis_solves(case):
    algebra, phi, s = structure(*case)
    t = torsion_forms(algebra, phi, s)
    tau0, tau1, tau2, tau3 = reference_torsion(algebra, phi, s)
    assert type(t.tau0) is type(tau0) and t.tau0 == tau0
    assert typed(t.tau1) == typed(tau1)
    assert typed(t.tau2) == typed(tau2)
    assert typed(t.tau3) == typed(tau3)
    assert wedge(t.tau2, s.star_phi).is_zero()
    if case[0] == "generic":
        assert t.class_label == "generic"
        assert t.tau1 and t.tau2 and t.tau3


# a 2-form and a 3-form with every coefficient nonzero
A2 = KForm(7, 2, {idx: Fraction(i % 5 - 2, i % 3 + 1)
                  for i, idx in enumerate(basis_indices(7, 2))})
A3 = KForm(7, 3, {idx: Fraction(i % 7 - 3, i % 4 + 1)
                  for i, idx in enumerate(basis_indices(7, 3))})


@pytest.mark.parametrize("case", INPUTS, ids=IDS)
def test_type_projections_match_gram_solves(case):
    _, phi, s = structure(*case)
    g = s.metric
    p7, _ = gram_project(A2, [contract_basis(i, phi) for i in range(1, 8)], g)
    assert typed(two_form_components(A2, s)[0]["7"]) == typed(p7)
    p7, _ = gram_project(A3, [contract_basis(i, s.star_phi)
                              for i in range(1, 8)], g)
    assert typed(three_form_components(A3, s)[0]["7"]) == typed(p7)


FLOAT_INPUTS = [(case, i) for case, i in zip(INPUTS, IDS)
                if case[1] in ("identity", "dense")]


@pytest.mark.parametrize("case", [c for c, _ in FLOAT_INPUTS],
                         ids=[i for _, i in FLOAT_INPUTS])
def test_float_splits_accept_input_of_pure_type(case):
    """The exact 14-part of A2, the exact 27-part of A3 and A3 without its
    1-part, made float, pass the float splits and give the exact parts.
    Each type test is bounded by the input and the form it wedges with: a
    bound from the two sides of a relation whose true value is 0 collapses
    to rounding size on such input."""
    _, phi, s = structure(*case)
    s_float = metric_from_phi(phi.to_float())
    parts2, _ = two_form_components(A2, s)
    parts3, _, _ = three_form_components(A3, s)
    for a, split in ((parts2["14"], two_form_components),
                     (parts3["27"], three_form_components),
                     (A3 - parts3["1"], three_form_components)):
        exact, approx = split(a, s)[0], split(a.to_float(), s_float)[0]
        for key, part in exact.items():
            assert (approx[key] - part.to_float()).is_zero(
                scaled(1e-9, a.to_float()))


@pytest.mark.parametrize("case", INPUTS, ids=IDS)
def test_star_identities_of_the_type_decomposition(case):
    """In the standard orientation, *(e^i ^ phi) = -i(e^i#) *phi,
    *(e^i ^ *phi) = i(e^i#) phi and *(beta ^ phi) = -sigma beta on the
    14-dimensional piece, exactly, with e^i# = g^ij e_j and sigma the
    ``orientation_sign``.  The star of the reversed orientation flips the
    sign of each (negative control)."""
    _, phi, s = structure(*case)
    g, star_phi, sigma = s.metric, s.star_phi, s.orientation_sign
    reversed_volume = Orientation(-s.volume.volume)
    for orient, sign in ((s.volume, 1), (reversed_volume, -1)):
        for i, e in enumerate(coframe_forms()):
            x = Vector(7, g.inverse[i])
            assert hodge_star(wedge(e, phi), g, orient) == \
                -sign * contract(x, star_phi)
            assert hodge_star(wedge(e, star_phi), g, orient) == \
                sign * contract(x, phi)
        for beta in two_form_14_basis(s):
            assert hodge_star(wedge(beta, phi), g, orient) == \
                -sign * sigma * beta


@pytest.mark.parametrize("case", INPUTS, ids=IDS)
def test_b_form_matches_the_double_wedge(case):
    _, phi, _ = structure(*case)
    b, reference = b_form(phi), double_wedge_b(phi)
    assert b == reference
    assert [type(x) for row in b for x in row] == \
        [type(x) for row in reference for x in row]


@pytest.mark.parametrize("case", [c for c in INPUTS if c[0] == "generic"],
                         ids=[i for c, i in zip(INPUTS, IDS)
                              if c[0] == "generic"])
def test_tau2_sign_follows_the_orientation_of_phi(case):
    """With the orientation sign of the structure flipped, -sigma * (...)
    is -tau2, and the reconstruction of d *phi fails."""
    algebra, phi, s = structure(*case)
    flipped = dataclasses.replace(s, orientation_sign=-s.orientation_sign)
    with pytest.raises(TorsionInconsistencyError):
        torsion_forms(algebra, phi, flipped)
