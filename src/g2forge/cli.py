"""Command-line front end: catalog browsing, structure checks, the survey
table, obstruction sampling and the full golden-file reproduction run.

Reports serialize deterministically (stable key order, rationals as p/q)
so JSON output round-trips and golden diffs are meaningful.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources
from typing import Any, Dict, List, Optional, Sequence

from . import catalog
from .curvature import (curvature_tensors, einstein_constant, nilsoliton_check)
from .exterior import InnerProduct, KForm
from .g2 import metric_from_phi, scalar_curvature_from_torsion, star_ricci, \
    torsion_forms
from .liealg import (LieAlgebra, MetricLieAlgebra, StructureParseError,
                     is_nilpotent, parse_form, parse_structure_equations,
                     render_structure_equations, to_float_algebra)
from .reproduce import compute_suites, payload
from .stable_forms import su3_predicates
from .survey import (build_table, n4_obstruction_sample,
                     n9_nilsoliton_obstruction_sample, sign_partition)

GOLDEN_PACKAGE = "g2forge.golden"


@dataclass
class Check:
    name: str
    passed: bool
    expected: Any = None
    computed: Any = None


@dataclass
class Report:
    command: str
    inputs: Dict[str, Any] = field(default_factory=dict)
    results: Dict[str, Any] = field(default_factory=dict)
    provenance: Dict[str, Any] = field(default_factory=dict)
    checks: List[Check] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "command": self.command,
            "inputs": payload(self.inputs),
            "results": payload(self.results),
            "provenance": payload(self.provenance),
            "checks": [
                {"name": c.name, "passed": c.passed,
                 "expected": payload(c.expected),
                 "computed": payload(c.computed)}
                for c in self.checks],
            "passed": self.passed,
        }


def render_report(report: Report, fmt: str, color: bool = False) -> str:
    if fmt == "json":
        return json.dumps(report.to_dict(), indent=2, sort_keys=True)
    lines: List[str] = []
    if fmt == "md":
        lines.append("## %s" % report.command)
        if report.results:
            for k, v in sorted(report.results.items()):
                lines.append("- **%s**: %s" % (k, _flat(v)))
        for c in report.checks:
            lines.append("- %s %s" % ("PASS" if c.passed else "FAIL", c.name))
        return "\n".join(lines)
    # text
    lines.append("# %s" % report.command)
    for k, v in sorted(report.inputs.items()):
        lines.append("input %s = %s" % (k, _flat(v)))
    for k, v in sorted(report.results.items()):
        lines.append("%s = %s" % (k, _flat(v)))
    for c in report.checks:
        word = "PASS" if c.passed else "FAIL"
        if color:
            word = "\x1b[32mPASS\x1b[0m" if c.passed else "\x1b[31mFAIL\x1b[0m"
        line = "[%s] %s" % (word, c.name)
        if not c.passed and c.expected is not None:
            line += "  expected=%s computed=%s" % (_flat(c.expected),
                                                   _flat(c.computed))
        lines.append(line)
    return "\n".join(lines)


def _flat(v: Any) -> str:
    v = payload(v)
    if isinstance(v, (dict, list)):
        return json.dumps(v, sort_keys=True)
    return str(v)


def _use_color(args) -> bool:
    env = os.environ.get("G2FORGE_COLOR", "")
    if env.lower() in ("0", "false", "off", "never", "no"):
        return False
    return sys.stdout.isatty()


def _load_algebra(name_or_eqns: str, ring: str) -> LieAlgebra:
    try:
        algebra = catalog.algebra(name_or_eqns)
    except KeyError:
        algebra = parse_structure_equations(name_or_eqns)
    if ring == "float" and not algebra.is_polynomial_ring():
        algebra = to_float_algebra(algebra)
    return algebra


def _parse_metric(text: Optional[str], dim: int) -> InnerProduct:
    if text is None or text.strip() == "identity":
        return InnerProduct.euclidean(dim)
    rows = []
    for row_text in text.split(";"):
        row = []
        for cell in row_text.split(","):
            cell = cell.strip()
            if "/" in cell:
                num, den = cell.split("/")
                row.append(Fraction(int(num), int(den)))
            elif "." in cell or "e" in cell.lower():
                row.append(float(cell))
            else:
                row.append(Fraction(int(cell)))
        rows.append(row)
    return InnerProduct(rows)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_algebra(args) -> Report:
    if args.action == "list":
        rep = Report(command="algebra list")
        rep.results["algebras"] = {
            name: render_structure_equations(catalog.algebra(name))
            for name in catalog.names()}
        return rep
    if args.name is None:
        raise ValueError("algebra show needs a catalog name or structure "
                         "equations")
    algebra = _load_algebra(args.name, args.ring)
    rep = Report(command="algebra show")
    rep.inputs["name"] = args.name
    rep.results["structure_equations"] = render_structure_equations(algebra)
    rep.results["dim"] = algebra.dim
    if algebra.is_polynomial_ring():
        rep.results["ring"] = "polynomial"
    else:
        rep.results["ring"] = ("float" if algebra.is_float_ring()
                               else "rational")
        nilp, step = is_nilpotent(algebra)
        rep.results["nilpotent"] = nilp
        if nilp:
            rep.results["nilpotency_step"] = step
    return rep


def cmd_su3(args) -> Report:
    algebra = _load_algebra(args.algebra, args.ring)
    omega = parse_form(args.omega, algebra.dim, degree=2)
    sigma = parse_form(args.sigma, algebra.dim, degree=3)
    if args.ring == "float":
        omega, sigma = omega.to_float(), sigma.to_float()
    verdict = su3_predicates(algebra, omega, sigma, tol=args.tol)
    rep = Report(command="su3 check")
    rep.inputs = {"algebra": render_structure_equations(algebra),
                  "omega": omega, "sigma": sigma}
    rep.provenance = {"ring": args.ring, "tol": args.tol}
    rep.results = {
        "stable": verdict.stable,
        "compatible": verdict.compatible,
        "normalized": verdict.normalized,
        "positive": verdict.positive,
        "lambda": verdict.lambda_value,
        "coupled_c": verdict.coupled_c,
        "half_flat": verdict.half_flat,
    }
    return rep


def cmd_metric(args) -> Report:
    algebra = _load_algebra(args.algebra, args.ring)
    metric = _parse_metric(args.metric, algebra.dim)
    if args.ring == "float":
        metric = metric.to_float()
    m = MetricLieAlgebra(algebra, metric)
    tensors = curvature_tensors(m)
    rep = Report(command="metric analyze")
    rep.inputs = {"algebra": render_structure_equations(algebra),
                  "metric": metric}
    rep.provenance = {"ring": args.ring, "tol": args.tol}
    rep.results["ricci"] = tensors.ricci
    rep.results["scal"] = tensors.scal
    rep.results["einstein"] = einstein_constant(m, tensors, tol=args.tol)
    if not algebra.is_polynomial_ring():
        nilp, _ = is_nilpotent(algebra)
        if nilp:
            witness = nilsoliton_check(m, tol=args.tol, tensors=tensors)
            rep.results["nilsoliton"] = None if witness is None else {
                "c": witness.constant, "derivation": witness.derivation}
        else:
            rep.results["nilsoliton"] = None
    return rep


def cmd_g2(args) -> Report:
    algebra = _load_algebra(args.algebra, args.ring)
    phi = parse_form(args.phi, algebra.dim, degree=3)
    if args.ring == "float":
        phi = phi.to_float()
    rep = Report(command="g2 analyze")
    rep.inputs = {"algebra": render_structure_equations(algebra), "phi": phi}
    rep.provenance = {"ring": args.ring, "tol": args.tol}
    try:
        s = metric_from_phi(phi)
    except Exception as exc:
        rep.results["positive"] = False
        rep.results["error"] = str(exc)
        return rep
    rep.results["positive"] = True
    rep.results["metric"] = s.metric
    t = torsion_forms(algebra, phi, s, tol=args.tol)
    rep.results["torsion"] = {
        "tau0": t.tau0, "tau1": t.tau1, "tau2": t.tau2, "tau3": t.tau3}
    rep.results["class"] = t.class_label
    if t.class_label != "generic":
        rep.results["scal_torsion"] = scalar_curvature_from_torsion(
            t, s, algebra)
    m = MetricLieAlgebra(algebra, s.metric)
    tensors = curvature_tensors(m)
    rep.results["scal_ricci"] = tensors.scal
    sr = star_ricci(m, phi, s, tol=args.tol, tensors=tensors)
    rep.results["star_ricci"] = sr.matrix
    rep.results["star_einstein"] = sr.star_einstein
    return rep


def cmd_table1(args) -> Report:
    rows = build_table()
    rep = Report(command="table1")
    rep.results["rows"] = [
        {"algebra": r.algebra_name,
         "structure": r.structure_equations,
         "lambda": r.lambda_poly,
         "sign": r.sign_class} for r in rows]
    rep.results["partition"] = sign_partition(rows)
    return rep


def _render_table1_md(rep: Report) -> str:
    lines = ["| algebra | structure equations | lambda | sign |",
             "|---|---|---|---|"]
    for row in rep.results["rows"]:
        lines.append("| %s | `%s` | `%s` | %s |" % (
            row["algebra"], row["structure"], _flat(row["lambda"]),
            row["sign"]))
    return "\n".join(lines)


def cmd_obstruction(args) -> Report:
    rep = Report(command="obstruction %s" % args.which)
    rep.provenance = {"seed": args.seed, "trials": args.trials}
    if args.which == "n4":
        report = n4_obstruction_sample(args.trials, args.seed)
        rep.results = {
            "trials": report.trials,
            "confirmed": report.confirmed,
            "resampled": report.resampled,
            "max_null_value": report.max_null_value,
            "max_one_one_residual": report.max_one_one_residual,
        }
        rep.checks.append(Check(
            name="every trial admits the predicted null vector",
            passed=report.all_confirmed,
            expected=report.trials, computed=report.confirmed))
    else:
        report = n9_nilsoliton_obstruction_sample(
            args.trials, args.seed, frame=args.frame)
        rep.results = {
            "starts": report.starts,
            "frame": args.frame,
            "feasible_found": report.feasible_found,
            "best_residual": report.best_residual,
            "best_lambda": report.best_lambda,
        }
        if report.claimed:
            rep.checks.append(Check(
                name="no isotropic-metric coupled point below the lambda cut",
                passed=not report.feasible_found,
                expected=False, computed=report.feasible_found))
    return rep


# ---------------------------------------------------------------------------
# golden-file reproduction
# ---------------------------------------------------------------------------

def _golden_path(name: str):
    return resources.files(GOLDEN_PACKAGE).joinpath(name)


def load_golden(name: str) -> Dict[str, Any]:
    with _golden_path(name).open("r") as fh:
        return json.load(fh)


def save_golden(name: str, payload: Dict[str, Any]) -> None:
    path = _golden_path(name)
    with path.open("w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _numeric(x: Any) -> Optional[float]:
    if isinstance(x, bool):
        return None
    if isinstance(x, (int, float)):
        return float(x)
    if isinstance(x, str):
        try:
            return float(Fraction(x))
        except (ValueError, ZeroDivisionError):
            try:
                return float(x)
            except ValueError:
                return None
    return None


def _close(a: Any, b: Any, tol: float) -> bool:
    """Structural equality; numeric leaves compare within tol so exact
    p/q strings match their float-ring shadows.  Keys missing on one side
    of a dict count as numeric zero (float noise drops exact-zero terms)."""
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_close(x, y, tol) for x, y in zip(a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        for k in set(a) | set(b):
            if k in a and k in b:
                if not _close(a[k], b[k], tol):
                    return False
            else:
                present = a.get(k, b.get(k))
                val = _numeric(present)
                if val is None or abs(val) > tol:
                    return False
        return True
    na, nb = _numeric(a), _numeric(b)
    if na is not None and nb is not None:
        return abs(na - nb) <= tol
    return a == b


def cmd_reproduce(args) -> Report:
    rep = Report(command="reproduce-paper")
    rep.provenance = {"ring": args.ring, "tol": args.tol, "seed": args.seed}
    suites = compute_suites(ring=args.ring, tol=args.tol, seed=args.seed,
                            only=args.only)
    for suite_name, payload in suites.items():
        fname = "%s.json" % suite_name
        if args.update_golden:
            save_golden(fname, payload)
            rep.checks.append(Check(name="%s (golden updated)" % suite_name,
                                    passed=True))
            continue
        golden = load_golden(fname)
        for key in sorted(set(golden) | set(payload)):
            ok = key in golden and key in payload and \
                _close(payload.get(key), golden.get(key), args.tol)
            rep.checks.append(Check(
                name="%s.%s" % (suite_name, key), passed=ok,
                expected=golden.get(key), computed=payload.get(key)))
    return rep


# ---------------------------------------------------------------------------
# scenario files
# ---------------------------------------------------------------------------

@dataclass
class Scenario:
    algebra: LieAlgebra
    metric_text: Optional[str]
    forms: Dict[str, str]
    analyses: List[str]


def parse_scenario(text: str) -> Scenario:
    """Line-oriented scenario: [algebra], [metric], [forms], [analyses]."""
    section = None
    algebra_text: Optional[str] = None
    metric_lines: List[str] = []
    forms: Dict[str, str] = {}
    analyses: List[str] = []
    known = {"algebra", "metric", "forms", "analyses"}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in known:
                raise ValueError("line %d: unknown section [%s]"
                                 % (lineno, section))
            continue
        if section is None:
            raise ValueError("line %d: content before any section" % lineno)
        if section == "algebra":
            if algebra_text is not None:
                raise ValueError("line %d: second algebra entry" % lineno)
            algebra_text = line
        elif section == "metric":
            metric_lines.append(line)
        elif section == "forms":
            if "=" not in line:
                raise ValueError("line %d: form entries look like "
                                 "'omega = e12+e34'" % lineno)
            key, _, value = line.partition("=")
            forms[key.strip()] = value.strip()
        else:
            analyses.append(line)
    if algebra_text is None:
        raise ValueError("scenario is missing the [algebra] section")
    try:
        algebra = catalog.algebra(algebra_text)
    except KeyError:
        try:
            algebra = parse_structure_equations(algebra_text)
        except StructureParseError as exc:
            raise ValueError("algebra: %s" % exc) from None
    metric_text = ";".join(metric_lines) if metric_lines else None
    return Scenario(algebra=algebra, metric_text=metric_text, forms=forms,
                    analyses=analyses)


def run_scenario(scenario: Scenario, ring: str = "exact",
                 tol: float = 1e-10) -> Report:
    algebra = scenario.algebra
    if ring == "float" and not algebra.is_polynomial_ring():
        algebra = to_float_algebra(algebra)
    rep = Report(command="check")
    rep.inputs["algebra"] = render_structure_equations(algebra)
    rep.inputs["analyses"] = list(scenario.analyses)
    rep.provenance = {"ring": ring, "tol": tol}
    metric = _parse_metric(scenario.metric_text, algebra.dim)
    parsed_forms: Dict[str, KForm] = {}
    degree_by_name = {"omega": 2, "sigma": 3, "phi": 3}
    for key, value in scenario.forms.items():
        deg = degree_by_name.get(key)
        form = parse_form(value, algebra.dim, degree=deg)
        if ring == "float":
            form = form.to_float()
        parsed_forms[key] = form
        rep.inputs[key] = form
    unknown = [a for a in scenario.analyses
               if a not in ("su3", "nilsoliton", "einstein", "ricci", "g2")]
    if unknown:
        raise ValueError("unknown analyses: %s" % ", ".join(unknown))
    m = MetricLieAlgebra(algebra, metric)
    tensors = None
    for analysis in scenario.analyses:
        if tensors is None and analysis in ("ricci", "einstein", "nilsoliton"):
            tensors = curvature_tensors(m)
        if analysis == "su3":
            verdict = su3_predicates(algebra, parsed_forms["omega"],
                                     parsed_forms["sigma"], tol=tol)
            rep.results["su3"] = {
                "stable": verdict.stable, "compatible": verdict.compatible,
                "normalized": verdict.normalized, "positive": verdict.positive,
                "lambda": verdict.lambda_value,
                "coupled_c": verdict.coupled_c,
                "half_flat": verdict.half_flat}
        elif analysis == "ricci":
            rep.results["ricci"] = {"matrix": tensors.ricci,
                                    "scal": tensors.scal}
        elif analysis == "einstein":
            rep.results["einstein"] = einstein_constant(m, tensors, tol=tol)
        elif analysis == "nilsoliton":
            witness = nilsoliton_check(m, tol=tol, tensors=tensors)
            rep.results["nilsoliton"] = None if witness is None else {
                "c": witness.constant, "derivation": witness.derivation}
        elif analysis == "g2":
            phi = parsed_forms["phi"]
            s = metric_from_phi(phi)
            t = torsion_forms(algebra, phi, s, tol=tol)
            rep.results["g2"] = {
                "metric": s.metric,
                "class": t.class_label,
                "tau0": t.tau0, "tau1": t.tau1, "tau2": t.tau2, "tau3": t.tau3}
    return rep


def cmd_check(args) -> Report:
    with open(args.file, "r") as fh:
        text = fh.read()
    scenario = parse_scenario(text)
    return run_scenario(scenario, ring=args.ring, tol=args.tol)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _common_flags(parser: argparse.ArgumentParser, suppress: bool) -> None:
    default = argparse.SUPPRESS if suppress else None
    parser.add_argument("--ring", choices=("exact", "float"),
                        **({"default": default} if suppress
                           else {"default": "exact"}))
    parser.add_argument("--tol", type=float,
                        **({"default": default} if suppress
                           else {"default": 1e-10}))
    parser.add_argument("--seed", type=int,
                        **({"default": default} if suppress
                           else {"default": 1}))
    parser.add_argument("--format", choices=("json", "md", "text"), dest="fmt",
                        **({"default": default} if suppress
                           else {"default": "text"}))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="g2forge",
        description="Exact exterior algebra, stable forms and torsion "
                    "analysis on low-dimensional Lie algebras")
    _common_flags(parser, suppress=False)
    common = argparse.ArgumentParser(add_help=False)
    _common_flags(common, suppress=True)
    sub = parser.add_subparsers(dest="command", required=True)

    p_algebra = sub.add_parser("algebra", help="catalog browsing",
                               parents=[common])
    p_algebra.add_argument("action", choices=("list", "show"))
    p_algebra.add_argument("name", nargs="?")
    p_algebra.set_defaults(func=cmd_algebra)

    p_su3 = sub.add_parser("su3", help="pair analysis on a 6-dim algebra", parents=[common])
    p_su3.add_argument("action", choices=("check",))
    p_su3.add_argument("algebra")
    p_su3.add_argument("--omega", required=True)
    p_su3.add_argument("--sigma", required=True)
    p_su3.set_defaults(func=cmd_su3)

    p_metric = sub.add_parser("metric", help="curvature analysis", parents=[common])
    p_metric.add_argument("action", choices=("analyze",))
    p_metric.add_argument("algebra")
    p_metric.add_argument("--metric", default=None,
                          help="rows separated by ';', entries by ','")
    p_metric.set_defaults(func=cmd_metric)

    p_g2 = sub.add_parser("g2", help="7-dim 3-form analysis", parents=[common])
    p_g2.add_argument("action", choices=("analyze",))
    p_g2.add_argument("algebra")
    p_g2.add_argument("--phi", required=True)
    p_g2.set_defaults(func=cmd_g2)

    p_table = sub.add_parser("table1", help="regenerate the lambda survey", parents=[common])
    p_table.set_defaults(func=cmd_table1)

    p_obs = sub.add_parser("obstruction", help="sampled no-go experiments", parents=[common])
    p_obs.add_argument("which", choices=("n4", "n9"))
    p_obs.add_argument("--trials", type=int, default=100)
    p_obs.add_argument("--frame", choices=("nilsoliton", "standard"),
                       default="nilsoliton")
    p_obs.set_defaults(func=cmd_obstruction)

    p_rep = sub.add_parser("reproduce-paper",
                           help="recompute every archived value and diff", parents=[common])
    p_rep.add_argument("--only", default=None,
                       choices=("table1", "coupled_n28", "coupled_n9",
                                "einstein_extension", "lcp_extension",
                                "obstructions"))
    p_rep.add_argument("--update-golden", action="store_true")
    p_rep.set_defaults(func=cmd_reproduce)

    p_check = sub.add_parser("check", help="run a scenario file", parents=[common])
    p_check.add_argument("file")
    p_check.set_defaults(func=cmd_check)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = args.func(args)
    except (StructureParseError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    if args.command == "table1" and args.fmt == "md":
        print(_render_table1_md(report))
    else:
        print(render_report(report, args.fmt, color=_use_color(args)))
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
