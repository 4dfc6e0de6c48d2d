"""Checks of the program's outputs, computed apart from the program.

Every function here raises ``CheckFailed`` with a message when the output
is wrong and returns nothing otherwise.  None of them calls the program
except ``n4_metric``, which deliberately takes the float-ring
``stable_forms`` route so that the sampler's own ``sampling`` code is not
used to confirm itself.  Numbers arrive as the program's JSON payloads:
exact values as ``p/q`` strings, float values as floats, polynomials as
text.
"""
from __future__ import annotations

import math
import re
from fractions import Fraction
from itertools import combinations
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import twist


class CheckFailed(AssertionError):
    pass


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# numbers and payloads
# ---------------------------------------------------------------------------

def number(x: Any) -> Optional[Any]:
    """Fraction for exact values, float for float values, None otherwise."""
    if isinstance(x, bool) or x is None:
        return None
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        return x
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            return None
    return None


def _near(a, b, tol: float) -> bool:
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a == b
    a, b = float(a), float(b)
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def agree(a: Any, b: Any, tol: float, path: str = "") -> List[str]:
    """Paths where two payloads differ; numbers compare within tol (exactly
    when both are exact), a key missing on one side counts as zero."""
    if isinstance(a, dict) and isinstance(b, dict):
        out: List[str] = []
        for k in sorted(set(a) | set(b)):
            if k in a and k in b:
                out += agree(a[k], b[k], tol, "%s.%s" % (path, k))
            else:
                v = number(a.get(k, b.get(k)))
                if v is None or not _near(v, 0.0, tol):
                    out.append("%s.%s missing on one side" % (path, k))
        return out
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return ["%s length %d != %d" % (path, len(a), len(b))]
        out = []
        for i, (x, y) in enumerate(zip(a, b)):
            out += agree(x, y, tol, "%s[%d]" % (path, i))
        return out
    na, nb = number(a), number(b)
    if na is not None and nb is not None:
        return [] if _near(na, nb, tol) else ["%s: %r != %r" % (path, a, b)]
    return [] if a == b else ["%s: %r != %r" % (path, a, b)]


def check_rings_agree(exact: Any, floating: Any, what: str,
                      tol: float = 1e-8) -> None:
    diff = agree(exact, floating, tol)
    require(not diff, "%s: exact and float rings differ at %s"
            % (what, "; ".join(diff[:3])))


def matrix(payload) -> List[List[Fraction]]:
    return [[Fraction(x) for x in row] for row in payload]


# ---------------------------------------------------------------------------
# polynomials: {((var, exp), ...): Fraction}, variables sorted by name
# ---------------------------------------------------------------------------

Poly = Dict[Tuple[Tuple[str, int], ...], Fraction]

_POLY_TERM = re.compile(r"([+-]?)(\d+(?:/\d+)?)?((?:\*?[a-z]\d*(?:\^\d+)?)*)$")


def parse_poly(text: str) -> Poly:
    """Text such as ``-4*b12*b15^3*c^4 + 4*b14^2*b15^2*c^4``."""
    out: Poly = {}
    body = text.replace(" ", "")
    if body in ("", "0"):
        return out
    for piece in re.findall(r"[+-]?[^+-]+", body):
        m = _POLY_TERM.match(piece)
        require(m is not None, "cannot read polynomial term %r" % piece)
        sign, coeff, mono = m.groups()
        c = Fraction(coeff) if coeff else Fraction(1)
        if sign == "-":
            c = -c
        powers: Dict[str, int] = {}
        for var, exp in re.findall(r"([a-z]\d*)(?:\^(\d+))?", mono):
            powers[var] = powers.get(var, 0) + (int(exp) if exp else 1)
        key = tuple(sorted(powers.items()))
        out[key] = out.get(key, Fraction(0)) + c
    return {k: v for k, v in out.items() if v}


def poly_mul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            powers = dict(ma)
            for var, exp in mb:
                powers[var] = powers.get(var, 0) + exp
            key = tuple(sorted(powers.items()))
            out[key] = out.get(key, Fraction(0)) + ca * cb
    return {k: v for k, v in out.items() if v}


def poly_eval(p: Poly, point: Mapping[str, Fraction]) -> Fraction:
    total = Fraction(0)
    for mono, c in p.items():
        term = c
        for var, exp in mono:
            term *= Fraction(point.get(var, 0)) ** exp
        total += term
    return total


def check_square_certificate(lam: str, factor: Fraction, root: str) -> None:
    """lambda == factor * c^4 * root^2, multiplied out here."""
    r = parse_poly(root)
    product = poly_mul({(("c", 4),): Fraction(factor)}, poly_mul(r, r))
    require(product == parse_poly(lam),
            "square certificate %s*c^4*(%s)^2 does not give %s"
            % (factor, root, lam))


def check_witness_pair(lam: str, positive: Mapping[str, Any],
                       negative: Mapping[str, Any]) -> None:
    p = parse_poly(lam)
    vp = poly_eval(p, {k: Fraction(v) for k, v in positive.items()})
    vn = poly_eval(p, {k: Fraction(v) for k, v in negative.items()})
    require(vp > 0 > vn, "witnesses give %s and %s on %s" % (vp, vn, lam))


def check_partition(partition: Mapping[str, int]) -> None:
    """21 nonnegative-or-zero, 1 nonpositive, 2 indefinite."""
    got = (partition.get("nonneg", 0) + partition.get("zero", 0),
           partition.get("nonpos", 0), partition.get("indefinite", 0))
    require(got == (21, 1, 2), "table1 partition %s is not 21/1/2"
            % (dict(partition),))


# ---------------------------------------------------------------------------
# curvature
# ---------------------------------------------------------------------------

def nilpotent_identity_scal(structure: str) -> Fraction:
    """scal = -1/2 sum_{i<j,k} (c_ij^k)^2 for a nilpotent algebra with an
    orthonormal coframe, read off the structure equations."""
    return -sum((c * c for f in twist.parse_structure(structure)
                 for c in f.values()), Fraction(0)) / 2


def check_identity_scal(structure: str, scal: Any) -> None:
    want = nilpotent_identity_scal(structure)
    got = number(scal)
    require(got is not None and _near(got, want, 1e-9),
            "scal %r on %s, expected %s" % (scal, structure, want))


def check_extension_scal(name: str, payload: Mapping[str, Any]) -> None:
    """Scal from the torsion formula equals the Ricci trace."""
    require(not agree(payload["scal_from_torsion"], payload["scal"], 1e-8),
            "%s: scal from torsion %r != Ricci trace %r"
            % (name, payload["scal_from_torsion"], payload["scal"]))
    if "ricci" in payload:
        trace = sum(number(payload["ricci"][i][i])
                    for i in range(len(payload["ricci"])))
        require(_near(trace, number(payload["scal"]), 1e-8),
                "%s: trace of ricci %s != scal %r"
                % (name, trace, payload["scal"]))


# ---------------------------------------------------------------------------
# twisted inputs
# ---------------------------------------------------------------------------

def check_twisted_g2(result: Mapping[str, Any], reference: Mapping[str, Any],
                     t: twist.Twist) -> None:
    """g2 analyze on the twisted input against the catalog coframe.

    tau0 and the class must be equal; tau1..tau3 and the metric, rewritten
    on the catalog coframe, must equal the catalog values exactly.
    """
    require(result.get("positive") is True, "twisted phi reported not positive")
    require(result["class"] == reference["class"], "class %r != catalog %r"
            % (result["class"], reference["class"]))
    tors, ref = result["torsion"], reference["torsion"]
    require(number(tors["tau0"]) == number(ref["tau0"]),
            "tau0 %r != catalog %r" % (tors["tau0"], ref["tau0"]))
    for key in ("tau1", "tau2", "tau3"):
        back = t.untwist_form(twist.parse(tors[key]))
        require(back == twist.parse(ref[key]),
                "%s rewritten on the catalog coframe is %s, catalog %s"
                % (key, twist.render(back), ref[key]))
    back_g = t.untwist_metric(matrix(result["metric"]))
    require(back_g == matrix(reference["metric"]),
            "metric rewritten on the catalog coframe differs from catalog")
    for key in ("scal_ricci", "scal_torsion"):
        require(number(result.get(key)) == number(reference.get(key)),
                "%s %r != catalog %r" % (key, result.get(key),
                                         reference.get(key)))
    if result.get("star_ricci") is not None:
        check_star_ricci_trace(result["star_ricci"], result["metric"],
                               reference["star_ricci"])


def check_star_ricci_trace(star: Sequence, metric: Sequence,
                           reference: Sequence) -> None:
    """The catalog trace, read as a bilinear form (tr g^-1 rho) or as an
    endomorphism (tr rho), since the catalog coframe cannot tell them apart."""
    want = sum(number(reference[i][i]) for i in range(len(reference)))
    rho = matrix(star)
    ginv = twist.inverse(matrix(metric))
    n = len(rho)
    as_form = sum(ginv[i][j] * rho[j][i] for i in range(n) for j in range(n))
    as_map = sum(rho[i][i] for i in range(n))
    require(want in (as_form, as_map), "star-Ricci trace %s (%s as an "
            "endomorphism) != catalog %s" % (as_form, as_map, want))


def check_twisted_metric(result: Mapping[str, Any],
                         reference: Mapping[str, Any], structure: str) -> None:
    """metric analyze on twisted n28: the same scal (and the value of the
    structure-constant formula) and the same nilsoliton verdict."""
    check_identity_scal(structure, result["scal"])
    require(number(result["scal"]) == number(reference["scal"]),
            "scal %r != catalog %r" % (result["scal"], reference["scal"]))
    got, ref = result.get("nilsoliton"), reference.get("nilsoliton")
    require((got is None) == (ref is None),
            "nilsoliton verdict %r != catalog %r" % (got is not None,
                                                     ref is not None))
    if got is not None:
        require(number(got["c"]) == number(ref["c"]),
                "nilsoliton constant %r != catalog %r" % (got["c"], ref["c"]))


def check_twisted_su3(result: Mapping[str, Any],
                      reference: Mapping[str, Any]) -> None:
    diff = agree(result, reference, 0.0)
    require(not diff, "su3 verdict differs from catalog at %s" % "; ".join(diff))


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

PAIRS = list(combinations(range(1, 7), 2))


def null_vector(b: Sequence[float]) -> List[float]:
    """v = e4 - (b14/b15) e5 + (b13/b15) e6 on n4."""
    return [0.0, 0.0, 0.0, 1.0, -b[13] / b[14], b[12] / b[14]]


def n4_metric(b: Sequence[float], c: float, algebra) -> List[List[float]]:
    """h(x, y) = omega(Jx, y) for omega_b and sigma = c d(omega_b), with J
    from the program's float-ring ``stable_forms.almost_complex`` in the
    orientation ``stable_forms.orientation_sign`` picks.

    ``metric_from_pair`` would assemble the same h, but it refuses matrices
    whose asymmetry exceeds an absolute 1e-12, which large |h| reach.
    """
    from g2forge.exterior import KForm, Orientation
    from g2forge.stable_forms import almost_complex, orientation_sign

    omega = KForm(6, 2, {p: float(x) for p, x in zip(PAIRS, b) if x != 0.0})
    sigma = float(c) * algebra.d(omega)
    orient = Orientation.standard(6)
    if orientation_sign(omega) < 0:
        orient = Orientation(Fraction(-1) * orient.volume)
    j = almost_complex(sigma, orient)
    om = [[0.0] * 6 for _ in range(6)]
    for (p, q), x in zip(PAIRS, b):
        om[p - 1][q - 1], om[q - 1][p - 1] = float(x), -float(x)
    return [[sum(float(j[k][i]) * om[k][m] for k in range(6))
             for m in range(6)] for i in range(6)]


def quadratic(h: Sequence[Sequence[float]], v: Sequence[float]) -> float:
    return sum(v[i] * h[i][j] * v[j] for i in range(6) for j in range(6))


def check_null(h: Sequence[Sequence[float]], v: Sequence[float],
               tol: float = 1e-9) -> None:
    """h(v, v) vanishes relative to the size of h."""
    value = quadratic(h, v)
    scale = max(abs(x) for row in h for x in row)
    require(math.isfinite(value) and abs(value) <= tol * max(1.0, scale),
            "h(v, v) = %.3g is not zero (|h| up to %.3g)" % (value, scale))
