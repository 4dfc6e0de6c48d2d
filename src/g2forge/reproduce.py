"""The analyses behind ``su3 check``, ``metric analyze`` and ``g2 analyze``,
and the suites that recompute every archived value (the survey table, both
coupled pairs, the two rank-one extensions and the obstruction sampling
summaries), mostly as views of those analyses in the golden-file layout.

Payloads are plain JSON data, built by :func:`payload`, which also
serializes the command-line reports.  Exact runs render scalars as p/q
strings and float runs emit floats.  The golden diff requires two exact
values to be equal and a float within ``--tol`` relative of its golden, so
the two rings must produce identical verdicts.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Any, Dict, Optional, Tuple

from . import catalog, scalars
from .curvature import curvature_tensors, einstein_constant, nilsoliton_check
from .exterior import InnerProduct, KForm, render_form, wedge
from .g2 import NotPositiveError, metric_from_phi, \
    scalar_curvature_from_torsion, star_ricci, torsion_forms
from .liealg import LieAlgebra, MetricLieAlgebra, is_nilpotent, \
    render_structure_equations, to_float_algebra
from .scalars import ExactnessError, Polynomial, RingMismatchError
from .stable_forms import StablePair, su3_predicates
from .survey import N4_NULL_BOUND, build_table, n4_obstruction_sample, \
    n9_nilsoliton_obstruction_sample, sign_partition


def payload(x: Any) -> Any:
    """Canonical JSON data: rationals as p/q and polynomials as text, floats
    as they are, forms rendered, metrics and matrices as nested lists and
    dict keys as sorted strings."""
    if x is None or isinstance(x, (bool, int, float, str)):
        return x
    if isinstance(x, (Fraction, Polynomial)):
        return scalars.render_scalar(x)
    if isinstance(x, KForm):
        return render_form(x)
    if isinstance(x, InnerProduct):
        return payload(x.matrix)
    if isinstance(x, dict):
        return {str(k): payload(v)
                for k, v in sorted(x.items(), key=lambda kv: str(kv[0]))}
    if isinstance(x, (list, tuple)):
        return [payload(v) for v in x]
    return str(x)


def form_payload(form: KForm) -> Dict[str, Any]:
    """A form as {"e12": coefficient}, the layout of the golden files."""
    return {"e" + "".join(str(i) for i in idx): payload(c)
            for idx, c in form.items()}


def to_ring(x: Any, ring: str) -> Any:
    """An algebra, form or metric with float coefficients in the float ring;
    an algebra with symbolic coefficients keeps them."""
    if ring != "float":
        return x
    if isinstance(x, LieAlgebra):
        return x if x.is_polynomial_ring() else to_float_algebra(x)
    return x.to_float()


def analyze_su3(algebra: LieAlgebra, omega: KForm, sigma: KForm, tol: float
                ) -> Tuple[Dict[str, Any], Optional[StablePair]]:
    """The su3 check results, and beside them the StablePair (J and the
    metric) of a stable pair, else None."""
    results = dict(vars(su3_predicates(algebra, omega, sigma, tol=tol)))
    results["lambda"] = results.pop("lambda_value")
    pair = results.pop("pair")
    return results, pair


def analyze_metric(algebra: LieAlgebra, metric: InnerProduct,
                   tol: float) -> Dict[str, Any]:
    """Ricci, scal, the Einstein constant and, on a nilpotent algebra with
    numeric coefficients, the nilsoliton witness, from one curvature pass."""
    m = MetricLieAlgebra(algebra, metric)
    tensors = curvature_tensors(m)
    results = {"ricci": tensors.ricci, "scal": tensors.scal,
               "einstein": einstein_constant(m, tensors, tol=tol)}
    if not algebra.is_polynomial_ring():
        witness = (nilsoliton_check(m, tol=tol, tensors=tensors)
                   if is_nilpotent(algebra)[0] else None)
        results["nilsoliton"] = None if witness is None else {
            "c": witness.constant, "derivation": witness.derivation}
    return results


def analyze_g2(algebra: LieAlgebra, phi: KForm, tol: float) -> Dict[str, Any]:
    """Positivity, the induced metric, torsion and its class, and Ricci,
    scal, the Einstein constant and star-Ricci from one curvature pass.
    A float phi on a symbolic algebra is bad input at every scale."""
    if algebra.is_polynomial_ring() and any(
            isinstance(c, float) for c in phi.coeffs.values()):
        raise RingMismatchError("cannot mix polynomial and float scalars")
    try:
        s = metric_from_phi(phi)
    except NotPositiveError as exc:
        return {"positive": False, "error": str(exc)}
    except ExactnessError as exc:
        # metric_from_phi decides positivity before it takes the 9th root
        return {"positive": True, "needs_float_ring": str(exc)}
    t = torsion_forms(algebra, phi, s, tol=tol)
    results = {"positive": True, "metric": s.metric, "class": t.class_label,
               "torsion": {"tau0": t.tau0, "tau1": t.tau1, "tau2": t.tau2,
                           "tau3": t.tau3}}
    if t.class_label != "generic":
        results["scal_torsion"] = scalar_curvature_from_torsion(t, s, algebra)
    m = MetricLieAlgebra(algebra, s.metric)
    tensors = curvature_tensors(m)
    sr = star_ricci(m, phi, s, tol=tol, tensors=tensors)
    results.update(ricci=tensors.ricci, scal_ricci=tensors.scal,
                   einstein=einstein_constant(m, tensors, tol=tol),
                   star_ricci=sr.matrix, star_einstein=sr.star_einstein)
    return results


def suite_table1() -> Dict[str, Any]:
    rows = build_table()
    return {
        "rows": [{"algebra": r.algebra_name,
                  "structure": r.structure_equations,
                  "lambda": str(r.lambda_poly),
                  "sign": r.sign_class} for r in rows],
        "partition": sign_partition(rows),
    }


def suite_coupled_n28(ring: str = "exact", tol: float = 1e-10) -> Dict[str, Any]:
    algebra = to_ring(catalog.algebra("n28"), ring)
    omega, sigma = (to_ring(f, ring) for f in catalog.n28_coupled_pair())
    su3, pair = analyze_su3(algebra, omega, sigma, tol)
    metric = analyze_metric(algebra, pair.metric, tol)
    return {
        "omega": form_payload(omega),
        "sigma": form_payload(sigma),
        **{k: payload(su3[k]) for k in ("lambda", "coupled_c", "half_flat",
                                        "normalized", "positive")},
        "metric": payload(pair.metric),
        "ricci": payload(metric["ricci"]),
        "nilsoliton_c": payload(metric["nilsoliton"]["c"]),
        "nilsoliton_derivation": payload(metric["nilsoliton"]["derivation"]),
    }


def suite_coupled_n9(tol: float = 1e-10) -> Dict[str, Any]:
    omega, sigma = catalog.n9_coupled_pair()
    su3, pair = analyze_su3(catalog.algebra("n9"), omega, sigma, tol)
    frame = catalog.algebra("n9_nilsoliton")
    soliton = analyze_metric(frame, InnerProduct.euclidean(frame.dim),
                             max(tol, 1e-8))
    return {
        "lambda": float(su3["lambda"]),
        "lambda_expected": -225.0 / 64.0,
        "coupled_c": float(su3["coupled_c"]),
        **{k: su3[k] for k in ("normalized", "positive")},
        "j_matrix": payload(pair.J),
        "metric": payload(pair.metric),
        "soliton_frame_has_witness": soliton["nilsoliton"] is not None,
    }


def _extension(algebra: LieAlgebra, phi: KForm, ring: str,
               tol: float) -> Dict[str, Any]:
    """g2 analyze on a rank-one extension, in the golden layout."""
    g2 = analyze_g2(to_ring(algebra, ring), to_ring(phi, ring), tol)
    torsion = g2["torsion"]
    return {
        "structure": render_structure_equations(algebra),
        "ricci": payload(g2["ricci"]),
        "scal": payload(g2["scal_ricci"]),
        "einstein_constant": payload(g2["einstein"]),
        "tau0": payload(torsion["tau0"]),
        **{k: form_payload(torsion[k]) for k in ("tau1", "tau2", "tau3")},
        "class": g2["class"],
        "scal_from_torsion": payload(g2["scal_torsion"]),
        "star_ricci": payload(g2["star_ricci"]),
        "star_einstein": g2["star_einstein"],
    }


def suite_einstein_extension(ring: str = "exact",
                             tol: float = 1e-10) -> Dict[str, Any]:
    algebra, phi = catalog.algebra("n28_ext"), catalog.n28_ext_g2_form()
    out = _extension(algebra, phi, ring, tol)
    algebra, phi = to_ring(algebra, ring), to_ring(phi, ring)
    e7 = KForm(7, 1, {(7,): Fraction(1)})
    out["dphi_is_minus_e7_wedge_phi"] = (
        algebra.d(phi) + wedge(e7, phi)).is_zero(tol)
    return out


def suite_lcp_extension(tol: float = 1e-10) -> Dict[str, Any]:
    out = _extension(catalog.algebra("abelian_ext"),
                     catalog.abelian_ext_g2_form(), "exact", tol)
    del out["ricci"]
    return out


def suite_obstructions(seed: int = 1) -> Dict[str, Any]:
    n4 = n4_obstruction_sample(100, seed)
    n9 = n9_nilsoliton_obstruction_sample(200, seed)
    return {
        "n4_trials": n4.trials,
        "n4_all_confirmed": n4.all_confirmed,
        "n4_null_below_tolerance": n4.max_null_value <= N4_NULL_BOUND,
        "n9_starts": n9.starts,
        "n9_feasible_found": n9.feasible_found,
        "seed": seed,
    }


SUITES = ("table1", "coupled_n28", "coupled_n9", "einstein_extension",
          "lcp_extension", "obstructions")


def compute_suite(name: str, ring: str = "exact", tol: float = 1e-10,
                  seed: int = 1) -> Dict[str, Any]:
    """The payload of one of ``SUITES``; the obstructions suite lets a
    trial that contradicts a claim escape as ``ObstructionFailure``."""
    if name == "table1":
        return suite_table1()
    if name == "coupled_n28":
        return suite_coupled_n28(ring=ring, tol=tol)
    if name == "coupled_n9":
        return suite_coupled_n9(tol=max(tol, 1e-10))
    if name == "einstein_extension":
        return suite_einstein_extension(ring=ring, tol=tol)
    if name == "lcp_extension":
        return suite_lcp_extension(tol=tol)
    return suite_obstructions(seed=seed)
