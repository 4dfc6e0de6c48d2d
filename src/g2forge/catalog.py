"""Built-in algebras and example structures used across the test suites.

The six-dimensional nilpotent algebras are the 24 that carry a half-flat
reduction; they ship as structure-equation text.  Two rank-one solvable
extensions are built programmatically, and the nilsoliton metric of n9 is
kept as data, a rational diagonal metric on the catalog n9.
"""
from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Dict, List, Tuple

from .exterior import KForm
from .liealg import (LieAlgebra, MetricLieAlgebra, parse_structure_equations,
                     rank_one_extension)
from .scalars import Polynomial

# the 24 six-dimensional nilpotent algebras with a half-flat reduction,
# in their customary numbering
NILPOTENT6: Dict[str, str] = {
    "n4": "(0,0,e12,e13,e14+e23,e24+e15)",
    "n6": "(0,0,e12,e13,e23,e14)",
    "n7": "(0,0,e12,e13,e23,e14-e25)",
    "n8": "(0,0,e12,e13,e23,e14+e25)",
    "n9": "(0,0,0,e12,e14-e23,e15+e34)",
    "n10": "(0,0,0,e12,e14,e15+e23)",
    "n11": "(0,0,0,e12,e14,e15+e23+e24)",
    "n12": "(0,0,0,e12,e14,e15+e24)",
    "n13": "(0,0,0,e12,e14,e15)",
    "n14": "(0,0,0,e12,e13,e14+e35)",
    "n15": "(0,0,0,e12,e23,e14+e35)",
    "n16": "(0,0,0,e12,e23,e14-e35)",
    "n21": "(0,0,0,e12,e13,e14+e23)",
    "n22": "(0,0,0,e12,e13,e24)",
    "n24": "(0,0,0,e12,e13,e23)",
    "n25": "(0,0,0,0,e12,e15+e34)",
    "n27": "(0,0,0,0,e12,e14+e25)",
    "n28": "(0,0,0,0,e13-e24,e14+e23)",
    "n29": "(0,0,0,0,e12,e14+e23)",
    "n30": "(0,0,0,0,e12,e34)",
    "n31": "(0,0,0,0,e12,e13)",
    "n32": "(0,0,0,0,0,e12+e34)",
    "n33": "(0,0,0,0,0,e12)",
    "n34": "(0,0,0,0,0,0)",
}

TABLE_ORDER: Tuple[str, ...] = tuple(NILPOTENT6)

# the diagonal of g0, the nilsoliton metric of n9, unique up to automorphism
# and scale (Lauret, Math. Ann. 319, 2001): Ric = -5/2 g0 + D, D a derivation
N9_SOLITON_METRIC = tuple(Fraction(x) for x in "1 1 5/4 5/4 5/4 25/16".split())


@functools.lru_cache(maxsize=None)
def algebra(name: str) -> LieAlgebra:
    """The catalog algebra by name: one shared instance, built on first use."""
    if name in NILPOTENT6:
        return parse_structure_equations(NILPOTENT6[name], name=name)
    if name == "n28_ext":
        return n28_einstein_extension().algebra
    if name == "abelian_ext":
        return abelian_scaling_extension().algebra
    raise KeyError("unknown catalog algebra %r" % name)


def names() -> List[str]:
    return list(TABLE_ORDER) + ["n28_ext", "abelian_ext"]


def n9_nilsoliton_frame() -> LieAlgebra:
    """n9 in floats in the coframe diag(sqrt g0) e, orthonormal for g0 =
    ``N9_SOLITON_METRIC``: (0,0,0,(sqrt5/2)e12, e14-e23, (sqrt5/2)e15+e34).
    Kept for the benchmark only, which builds a sampler on it; ROADMAP.md
    item 1 deletes it."""
    s = math.sqrt(5.0) / 2.0
    z = KForm.zero(6, 2)
    d4 = KForm(6, 2, {(1, 2): s})
    d5 = KForm(6, 2, {(1, 4): 1.0, (2, 3): -1.0})
    d6 = KForm(6, 2, {(1, 5): s, (3, 4): 1.0})
    return LieAlgebra(6, [z, z, z, d4, d5, d6], name="n9_nilsoliton")


def n28_einstein_extension() -> MetricLieAlgebra:
    """Rank-one extension of n28 by diag(1/2,1/2,1/2,1/2,1,1), unit new axis.

    Structure equations
    (1/2*e17,1/2*e27,1/2*e37,1/2*e47,e13-e24+e57,e14+e23+e67,0).
    """
    base = MetricLieAlgebra.euclidean(algebra("n28"))
    h = Fraction(1, 2)
    d = [[h, 0, 0, 0, 0, 0],
         [0, h, 0, 0, 0, 0],
         [0, 0, h, 0, 0, 0],
         [0, 0, 0, h, 0, 0],
         [0, 0, 0, 0, 1, 0],
         [0, 0, 0, 0, 0, 1]]
    return rank_one_extension(base, d, name="n28_ext")


def abelian_scaling_extension() -> MetricLieAlgebra:
    """One-parameter extension (a*e17,...,a*e67,0) of the abelian algebra."""
    base = MetricLieAlgebra.euclidean(algebra("n34"))
    a = Polynomial.variable("a")
    d = [[a if i == j else 0 for j in range(6)] for i in range(6)]
    return rank_one_extension(base, d, name="abelian_ext")


# ---------------------------------------------------------------------------
# distinguished forms
# ---------------------------------------------------------------------------

def standard_g2_form() -> KForm:
    """The flat-model positive 3-form whose stabilizer is the exceptional group."""
    return KForm.from_terms(
        7, 3,
        (1, 1, 2, 3), (1, 1, 4, 5), (1, 1, 6, 7),
        (1, 2, 4, 6), (-1, 2, 5, 7), (-1, 3, 4, 7), (-1, 3, 5, 6))


def n28_coupled_pair() -> Tuple[KForm, KForm]:
    """The exact coupled pair on n28: d(omega) = -sigma, metric the identity."""
    omega = KForm.from_terms(6, 2, (1, 1, 2), (1, 3, 4), (-1, 5, 6))
    sigma = KForm.from_terms(6, 3, (1, 1, 3, 6), (-1, 1, 4, 5),
                             (-1, 2, 3, 5), (-1, 2, 4, 6))
    return omega, sigma


def n9_coupled_pair() -> Tuple[KForm, KForm]:
    """The float-ring coupled pair on n9 with lambda = -225/64."""
    omega = KForm(6, 2, {
        (1, 2): -1.5, (1, 4): -0.25, (1, 5): -1.0, (2, 4): -1.0,
        (2, 6): 0.5, (3, 5): -0.5, (3, 6): -1.0, (5, 6): 1.0})
    k = math.sqrt(15.0) * 2.0 ** 0.25
    sigma = KForm(6, 3, {
        (1, 2, 3): k / 4, (2, 3, 4): k / 8, (1, 2, 5): -k / 8,
        (1, 3, 4): k / 8, (1, 3, 5): k / 4, (1, 4, 6): -k / 4,
        (2, 3, 6): k / 4, (3, 4, 5): k / 4})
    return omega, sigma


def n28_ext_g2_form() -> KForm:
    """omega ^ e7 + sigma on the rank-one extension of n28."""
    return KForm.from_terms(
        7, 3,
        (1, 1, 2, 7), (1, 3, 4, 7), (-1, 5, 6, 7),
        (1, 1, 3, 6), (-1, 1, 4, 5), (-1, 2, 3, 5), (-1, 2, 4, 6))


def abelian_ext_g2_form() -> KForm:
    """The conformally parallel 3-form on the one-parameter extension."""
    return KForm.from_terms(
        7, 3,
        (-1, 1, 2, 5), (-1, 1, 3, 6), (-1, 1, 4, 7), (1, 2, 3, 7),
        (-1, 2, 4, 6), (1, 3, 4, 5), (-1, 5, 6, 7))

