"""Command-line front end: catalog browsing, structure checks, the survey
table, obstruction sampling and the full golden-file reproduction run.

Reports serialize deterministically (stable key order, rationals as p/q)
so JSON output round-trips and golden diffs are meaningful.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources
from typing import Any, Dict, List, Optional, Sequence

from . import __version__, catalog
from .exterior import InnerProduct, KForm
from .liealg import (LieAlgebra, is_nilpotent, parse_form,
                     parse_structure_equations, render_structure_equations)
from .reproduce import SUITES, analyze_g2, analyze_metric, analyze_su3, \
    compute_suite, payload, suite_table1, to_ring
from .scalars import ExactnessError, RingMismatchError
from .survey import (ObstructionFailure, n4_obstruction_sample,
                     n9_nilsoliton_obstruction_sample)

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
            "provenance": payload({**self.provenance,
                                   "version": __version__}),
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


# One parsed object per distinct input text (128 kept); errors are not kept.
_parse_algebra = functools.lru_cache()(parse_structure_equations)
_parse_form = functools.lru_cache()(parse_form)


def _load_algebra(name_or_eqns: str, ring: str) -> LieAlgebra:
    try:
        algebra = catalog.algebra(name_or_eqns)
    except KeyError:
        algebra = _parse_algebra(name_or_eqns)
    return to_ring(algebra, ring)


def _load_form(args, name: str, algebra: LieAlgebra, degree: int) -> KForm:
    """Parse the form ``args.<name>`` on ``algebra`` into the ring of args."""
    text = getattr(args, name)
    if text is None:
        raise ValueError("%s is missing" % name)
    form = _parse_form(text, algebra.dim, degree)
    return to_ring(form, args.ring)


@functools.lru_cache()
def _parse_metric(text: Optional[str], dim: int) -> InnerProduct:
    """Rows split at ';' and entries at ','; a malformed entry is bad input
    named with its row and column."""
    if text is None or text.strip() == "identity":
        return InnerProduct.euclidean(dim)
    rows = []
    for i, row_text in enumerate(text.split(";"), start=1):
        row = []
        for j, cell in enumerate(row_text.split(","), start=1):
            cell = cell.strip()
            try:
                if "/" in cell:
                    num, _, den = cell.partition("/")
                    row.append(Fraction(int(num), int(den)))
                elif "." in cell or "e" in cell.lower():
                    row.append(float(cell))
                else:
                    row.append(Fraction(int(cell)))
                if "_" in cell or abs(row[-1]) == math.inf:
                    raise ValueError(cell)
            except (ValueError, ZeroDivisionError) as exc:
                zero = isinstance(exc, ZeroDivisionError)
                raise ValueError("metric entry %r at row %d, column %d %s" % (
                    cell, i, j, "divides by zero" if zero
                    else "is not an integer, p/q or decimal")) from None
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


def _analysis(command: str, args, algebra: LieAlgebra,
              results: Dict[str, Any], **inputs: Any) -> Report:
    return Report(command=command, results=results,
                  inputs={"algebra": render_structure_equations(algebra),
                          **inputs},
                  provenance={"ring": args.ring, "tol": args.tol})


def cmd_su3(args) -> Report:
    algebra = _load_algebra(args.algebra, args.ring)
    omega = _load_form(args, "omega", algebra, 2)
    sigma = _load_form(args, "sigma", algebra, 3)
    return _analysis("su3 check", args, algebra,
                     analyze_su3(algebra, omega, sigma, args.tol)[0],
                     omega=omega, sigma=sigma)


def cmd_metric(args) -> Report:
    algebra = _load_algebra(args.algebra, args.ring)
    metric = to_ring(_parse_metric(args.metric, algebra.dim), args.ring)
    return _analysis("metric analyze", args, algebra,
                     analyze_metric(algebra, metric, args.tol), metric=metric)


def cmd_g2(args) -> Report:
    algebra = _load_algebra(args.algebra, args.ring)
    phi = _load_form(args, "phi", algebra, 3)
    return _analysis("g2 analyze", args, algebra,
                     analyze_g2(algebra, phi, args.tol), phi=phi)


def cmd_table1(args) -> Report:
    return Report(command="table1", results=suite_table1())


def _render_table1_md(rep: Report) -> str:
    lines = ["| algebra | structure equations | lambda | sign |",
             "|---|---|---|---|"]
    for row in rep.results["rows"]:
        lines.append("| %s | `%s` | `%s` | %s |" % (
            row["algebra"], row["structure"], _flat(row["lambda"]),
            row["sign"]))
    return "\n".join(lines)


def _finite(x: float) -> Optional[float]:
    """JSON has no inf or nan: a minimum over no point is null."""
    return x if math.isfinite(x) else None


def _contradiction(exc: ObstructionFailure) -> Check:
    """The failed check that reports a trial contradicting a no-go claim."""
    return Check(name="no sampled trial contradicts the no-go claim",
                 passed=False, expected="no contradicting trial",
                 computed=str(exc))


def cmd_obstruction(args) -> Report:
    """A trial that contradicts the no-go claim (``ObstructionFailure``)
    is a failed check of the report, not an error."""
    if args.trials < 1:
        raise ValueError("--trials must be at least 1")
    rep = Report(command="obstruction %s" % args.which)
    rep.provenance = {"seed": args.seed, "trials": args.trials}
    try:
        if args.which == "n4":
            report = n4_obstruction_sample(args.trials, args.seed)
        else:
            report = n9_nilsoliton_obstruction_sample(
                args.trials, args.seed, frame=args.frame)
    except ObstructionFailure as exc:
        rep.checks.append(_contradiction(exc))
        return rep
    if args.which == "n4":
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
        return rep
    rep.results = {
        "starts": report.starts,
        "frame": args.frame,
        "feasible_found": report.feasible_found,
        "best_residual": _finite(report.best_residual),
        "best_lambda": _finite(report.best_lambda),
        "best_objective": _finite(report.best_objective),
        "best_objective_lambda": _finite(report.best_objective_lambda),
        "starts_detail": [
            {"nit": d.nit, "nfev": d.nfev, "lambda": d.lambda_value,
             "residual": _finite(d.residual)}
            for d in report.starts_detail],
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


def _numeric(x: Any) -> Any:
    """A leaf as a number: a Fraction for an exact leaf (an int or a p/q
    string), a float for a float leaf, None for anything else."""
    if isinstance(x, bool):
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


def _close(a: Any, b: Any, tol: float) -> bool:
    """Structural equality.  Two exact leaves must be equal; a float leaf
    agrees with a number within tol * max(1, |a|, |b|).  A key missing on
    one side of a dict counts as zero (float noise drops exact-zero
    terms)."""
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_close(x, y, tol) for x, y in zip(a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return all(_close(a.get(k, 0), b.get(k, 0), tol)
                   for k in set(a) | set(b))
    if a == b:      # equal leaves agree unparsed, equal infinities too
        return True
    na, nb = _numeric(a), _numeric(b)
    if na is None or nb is None:
        return a == b
    if isinstance(na, float) or isinstance(nb, float):
        return abs(na - nb) <= tol * max(1.0, abs(na), abs(nb))
    return na == nb


def cmd_reproduce(args) -> Report:
    if args.update_golden and args.ring != "exact":
        raise ValueError("--update-golden writes the goldens only from the "
                         "exact ring")
    rep = Report(command="reproduce-paper")
    rep.provenance = {"ring": args.ring, "tol": args.tol, "seed": args.seed}
    for suite_name in [args.only] if args.only else SUITES:
        try:
            payload = compute_suite(suite_name, ring=args.ring, tol=args.tol,
                                    seed=args.seed)
        except ObstructionFailure as exc:
            rep.checks.append(_contradiction(exc))
            continue
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
    algebra: str
    metric: Optional[str]
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
    known_analyses = ("su3", "g2", "ricci", "einstein", "nilsoliton")
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
        elif line in known_analyses:
            analyses.append(line)
        else:
            raise ValueError("line %d: unknown analysis %r (known: %s)"
                             % (lineno, line, ", ".join(known_analyses)))
    if algebra_text is None:
        raise ValueError("scenario is missing the [algebra] section")
    metric_text = ";".join(metric_lines) if metric_lines else None
    return Scenario(algebra=algebra_text, metric=metric_text, forms=forms,
                    analyses=analyses)


def run_scenario(scenario: Scenario, ring: str = "exact",
                 tol: float = 1e-10) -> Report:
    """Run each analysis through its subcommand on the scenario's inputs."""
    algebra = _load_algebra(scenario.algebra, ring)
    rep = Report(command="check")
    rep.inputs["algebra"] = render_structure_equations(algebra)
    rep.inputs["analyses"] = list(scenario.analyses)
    rep.provenance = {"ring": ring, "tol": tol}
    args = argparse.Namespace(
        algebra=scenario.algebra, metric=scenario.metric, ring=ring, tol=tol,
        omega=scenario.forms.get("omega"), sigma=scenario.forms.get("sigma"),
        phi=scenario.forms.get("phi"))
    metric: Optional[Report] = None   # one metric analyze for all three
    for analysis in scenario.analyses:
        if analysis in ("su3", "g2"):
            sub = (cmd_su3 if analysis == "su3" else cmd_g2)(args)
            rep.results[analysis] = sub.results
        else:
            sub = metric = metric or cmd_metric(args)
            rep.results[analysis] = (
                {"matrix": sub.results["ricci"], "scal": sub.results["scal"]}
                if analysis == "ricci" else sub.results.get(analysis))
        rep.inputs.update(sub.inputs)
    return rep


def cmd_check(args) -> Report:
    with open(args.file, "r") as fh:
        scenario = parse_scenario(fh.read())
    return run_scenario(scenario, ring=args.ring, tol=args.tol)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def tolerance(text: str) -> float:
    """The value of --tol: a finite number >= 0."""
    value = float(text)
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(
            "must be a finite number >= 0, not %s" % text)
    return value


def _common_flags(parser: argparse.ArgumentParser, suppress: bool) -> None:
    """The global flags; each subcommand repeats them with no default, so
    that a flag given before the subcommand is not overwritten."""
    for flag, default, kwargs in (
            ("--ring", "exact", {"choices": ("exact", "float")}),
            ("--tol", 1e-10, {"type": tolerance}),
            ("--seed", 1, {"type": int}),
            ("--format", "text", {"choices": ("json", "md", "text"),
                                  "dest": "fmt"})):
        parser.add_argument(
            flag, default=argparse.SUPPRESS if suppress else default, **kwargs)


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
    p_rep.add_argument("--only", default=None, choices=SUITES)
    p_rep.add_argument("--update-golden", action="store_true")
    p_rep.set_defaults(func=cmd_reproduce)

    p_check = sub.add_parser("check", help="run a scenario file", parents=[common])
    p_check.add_argument("file")
    p_check.set_defaults(func=cmd_check)
    return parser


# main builds its parser once per process; parsing leaves no state on it
_parser = functools.lru_cache(maxsize=None)(build_parser)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one subcommand and print its report.  Exit status:

    0 every check passed; 1 a check failed; 2 bad input (``ValueError``,
    ``RingMismatchError``, an unreadable file, or argparse's own usage
    error); 3 undecidable in this ring (``ExactnessError``: rerun with
    ``--ring float``; ``OverflowError``: past the float range) or
    inconsistent (``RuntimeError``, as ``TorsionInconsistencyError``).
    2 and 3 print ``error: ...`` only.
    """
    args = _parser().parse_args(argv)
    try:
        report = args.func(args)
    except (ValueError, RingMismatchError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (ExactnessError, OverflowError, RuntimeError) as exc:
        hint = ("; rerun with --ring float"
                if isinstance(exc, ExactnessError) else "")
        print("error: %s%s" % (exc, hint), file=sys.stderr)
        return 3
    if args.command == "table1" and args.fmt == "md":
        text = _render_table1_md(report)
    else:
        text = render_report(report, args.fmt, color=_use_color(args))
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader stopped early (``| head``); silence the final flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
