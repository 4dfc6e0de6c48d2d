"""Recomputes every archived value: the survey table, both coupled pairs,
the two rank-one extensions and the obstruction sampling summaries.

Payloads are plain JSON data, built by :func:`payload`, which also
serializes the command-line reports.  Exact runs render scalars as p/q
strings; float runs emit floats, and the golden diff coerces both sides
numerically, so the two rings must produce identical verdicts.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Any, Dict

from . import catalog, scalars
from .curvature import curvature_tensors, einstein_constant, nilsoliton_check
from .exterior import InnerProduct, KForm, render_form, wedge
from .g2 import metric_from_phi, scalar_curvature_from_torsion, star_ricci, \
    torsion_forms
from .liealg import MetricLieAlgebra, render_structure_equations, \
    to_float_algebra
from .scalars import Polynomial
from .stable_forms import metric_from_pair, su3_predicates
from .survey import build_table, n4_obstruction_sample, \
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
    algebra = catalog.algebra("n28")
    omega, sigma = catalog.n28_coupled_pair()
    if ring == "float":
        algebra = to_float_algebra(algebra)
        omega, sigma = omega.to_float(), sigma.to_float()
    pair = metric_from_pair(omega, sigma, tol=tol)
    verdict = su3_predicates(algebra, omega, sigma, tol=tol)
    m = MetricLieAlgebra(algebra, pair.metric)
    tensors = curvature_tensors(m)
    witness = nilsoliton_check(m, tol=tol, tensors=tensors)
    return {
        "omega": form_payload(omega),
        "sigma": form_payload(sigma),
        "lambda": payload(pair.lambda_value),
        "coupled_c": payload(verdict.coupled_c),
        "half_flat": verdict.half_flat,
        "normalized": pair.normalized,
        "positive": pair.positive,
        "metric": payload(pair.metric),
        "ricci": payload(tensors.ricci),
        "nilsoliton_c": payload(witness.constant),
        "nilsoliton_derivation": payload(witness.derivation),
    }


def suite_coupled_n9(tol: float = 1e-10) -> Dict[str, Any]:
    algebra = catalog.algebra("n9")
    omega, sigma = catalog.n9_coupled_pair()
    pair = metric_from_pair(omega, sigma, tol=tol)
    verdict = su3_predicates(algebra, omega, sigma, tol=tol)
    soliton_frame = MetricLieAlgebra.euclidean(catalog.n9_nilsoliton_frame())
    witness = nilsoliton_check(soliton_frame, tol=max(tol, 1e-8))
    return {
        "lambda": float(pair.lambda_value),
        "lambda_expected": -225.0 / 64.0,
        "coupled_c": float(verdict.coupled_c),
        "normalized": pair.normalized,
        "positive": pair.positive,
        "j_matrix": payload(pair.J),
        "metric": payload(pair.metric),
        "soliton_frame_has_witness": witness is not None,
    }


def suite_einstein_extension(ring: str = "exact",
                             tol: float = 1e-10) -> Dict[str, Any]:
    ext = catalog.n28_einstein_extension()
    phi = catalog.n28_ext_g2_form()
    algebra, metric = ext.algebra, ext.metric
    if ring == "float":
        algebra = to_float_algebra(algebra)
        metric = metric.to_float()
        phi = phi.to_float()
        ext = MetricLieAlgebra(algebra, metric)
    s = metric_from_phi(phi)
    t = torsion_forms(algebra, phi, s, tol=tol)
    tensors = curvature_tensors(ext)
    e7 = KForm(7, 1, {(7,): Fraction(1)})
    dphi_relation = (algebra.d(phi) + wedge(e7, phi)).is_zero(tol)
    sr = star_ricci(ext, phi, s, tol=tol, tensors=tensors)
    return {
        "structure": render_structure_equations(catalog.algebra("n28_ext")),
        "ricci": payload(tensors.ricci),
        "scal": payload(tensors.scal),
        "einstein_constant": payload(einstein_constant(ext, tensors,
                                                               tol=tol)),
        "tau0": payload(t.tau0),
        "tau1": form_payload(t.tau1),
        "tau2": form_payload(t.tau2),
        "tau3": form_payload(t.tau3),
        "class": t.class_label,
        "scal_from_torsion": payload(
            scalar_curvature_from_torsion(t, s, algebra)),
        "dphi_is_minus_e7_wedge_phi": dphi_relation,
        "star_ricci": payload(sr.matrix),
        "star_einstein": sr.star_einstein,
    }


def suite_lcp_extension(tol: float = 1e-10) -> Dict[str, Any]:
    ext = catalog.abelian_scaling_extension()
    phi = catalog.abelian_ext_g2_form()
    algebra = ext.algebra
    s = metric_from_phi(phi)
    t = torsion_forms(algebra, phi, s, tol=tol)
    tensors = curvature_tensors(ext)
    sr = star_ricci(ext, phi, s, tol=tol, tensors=tensors)
    return {
        "structure": render_structure_equations(algebra),
        "einstein_constant": payload(einstein_constant(ext, tensors,
                                                               tol=tol)),
        "scal": payload(tensors.scal),
        "tau0": payload(t.tau0),
        "tau1": form_payload(t.tau1),
        "tau2": form_payload(t.tau2),
        "tau3": form_payload(t.tau3),
        "class": t.class_label,
        "scal_from_torsion": payload(
            scalar_curvature_from_torsion(t, s, algebra)),
        "star_ricci": payload(sr.matrix),
        "star_einstein": sr.star_einstein,
    }


def suite_obstructions(seed: int = 1, n4_trials: int = 100,
                       n9_starts: int = 200) -> Dict[str, Any]:
    n4 = n4_obstruction_sample(n4_trials, seed)
    n9 = n9_nilsoliton_obstruction_sample(n9_starts, seed)
    return {
        "n4_trials": n4.trials,
        "n4_all_confirmed": n4.all_confirmed,
        "n4_null_below_tolerance": n4.max_null_value <= 1e-9,
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
