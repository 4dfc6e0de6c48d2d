import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import g2forge
from g2forge import catalog, cli, linalg
from g2forge.cli import Report, _close, main, parse_scenario, render_report
from g2forge.exterior import render_form
from g2forge.liealg import (parse_structure_equations,
                            render_structure_equations)
from test_coframe import CASES, GENERIC, P6_DENSE, P_DENSE, Coframe


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_algebra_list(capsys):
    code, out = run_cli(capsys, "algebra", "list", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert "n28" in payload["results"]["algebras"]
    assert payload["results"]["algebras"]["n28"] == "(0,0,0,0,e13-e24,e14+e23)"


def test_algebra_show(capsys):
    code, out = run_cli(capsys, "algebra", "show", "n28", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["nilpotent"] is True
    assert payload["results"]["nilpotency_step"] == 2


def test_algebra_show_parses_raw_equations(capsys):
    code, out = run_cli(capsys, "algebra", "show", "(0,0,e12,e13,e23,e14)",
                        "--format", "json")
    assert code == 0
    assert json.loads(out)["results"]["nilpotent"] is True


def test_algebra_show_float_ring(capsys):
    code, out = run_cli(capsys, "--ring", "float", "algebra", "show", "n28",
                        "--format", "json")
    assert code == 0
    results = json.loads(out)["results"]
    assert results["ring"] == "float"
    assert results["nilpotent"] is True
    assert results["nilpotency_step"] == 2


def test_algebra_show_without_name_is_bad_input(capsys):
    assert main(["algebra", "show"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_su3_check_json_roundtrip(capsys):
    code, out = run_cli(capsys, "su3", "check", "n28",
                        "--omega", "e12+e34-e56",
                        "--sigma", "e136-e145-e235-e246",
                        "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["coupled_c"] == "-1"
    assert payload["results"]["lambda"] == "-4"
    assert payload["results"]["half_flat"] is True
    # round trip
    assert json.loads(json.dumps(payload)) == payload


def test_float_su3_inputs_feed_back_to_su3_check(capsys):
    # the n9 pair at scale 1/100 has coefficients near 1e-6, which repr
    # writes with an exponent; the report's inputs must parse back
    omega, sigma = catalog.n9_coupled_pair()
    argv = ["--ring", "float", "--format", "json", "su3", "check", "n9"]
    code, out = run_cli(capsys, *argv,
                        "--omega=" + render_form(1e-4 * omega),
                        "--sigma=" + render_form(1e-6 * sigma))
    assert code == 0
    first = json.loads(out)
    code, out = run_cli(capsys, *argv,
                        "--omega=" + first["inputs"]["omega"],
                        "--sigma=" + first["inputs"]["sigma"])
    assert code == 0
    second = json.loads(out)
    assert second["inputs"] == first["inputs"]
    assert second["results"] == first["results"]
    assert first["results"]["stable"] and first["results"]["normalized"]


def test_su3_check_float_ring(capsys):
    code, out = run_cli(capsys, "--ring", "float", "su3", "check", "n28",
                        "--omega", "e12+e34-e56",
                        "--sigma", "e136-e145-e235-e246",
                        "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["results"]["coupled_c"] + 1.0) < 1e-10


def test_metric_analyze(capsys):
    code, out = run_cli(capsys, "metric", "analyze", "n28",
                        "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["einstein"] is None
    assert payload["results"]["nilsoliton"]["c"] == "-3"
    assert payload["results"]["scal"] == "-2"


def test_g2_analyze(capsys):
    code, out = run_cli(capsys, "g2", "analyze", "n28_ext",
                        "--phi", "e127+e347-e567+e136-e145-e235-e246",
                        "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["class"] == "locally_conformal_calibrated"
    assert payload["results"]["torsion"]["tau1"] == "-1/3*e7"
    assert payload["results"]["scal_torsion"] == "-21"
    assert payload["results"]["scal_ricci"] == "-21"
    assert payload["results"]["star_einstein"] is False


@pytest.mark.parametrize("k", [0, 15, 19])
def test_g2_analyze_rejects_a_symbolic_algebra_in_the_float_ring(capsys, k):
    """abelian_ext keeps its symbolic coefficient in the float ring, so a
    float phi on it is bad input at every scale, also where det B of
    10^k phi is past the float range (k >= 15)."""
    phi = render_form(catalog.abelian_ext_g2_form() * Fraction(10) ** k)
    assert main(["--ring", "float", "g2", "analyze", "abelian_ext",
                 "--phi=" + phi]) == 2
    assert "cannot mix polynomial and float" in capsys.readouterr().err


def test_algebra_show_keeps_a_symbolic_algebra_symbolic_in_the_float_ring(
        capsys):
    code, out = run_cli(capsys, "--ring", "float", "algebra", "show",
                        "abelian_ext", "--format", "json")
    assert code == 0
    assert json.loads(out)["results"]["ring"] == "polynomial"


def test_float_algebra_show_accepts_large_structure_constants(capsys):
    equations = "(0,0,0,e12,e14-3*e23,123456789.1*e15+370370367.3*e34)"
    code, out = run_cli(capsys, "--ring", "float", "algebra", "show",
                        equations, "--format", "json")
    assert code == 0
    results = json.loads(out)["results"]
    assert (results["nilpotent"], results["nilpotency_step"]) == (True, 4)
    # the e34 coefficient 40% off violates Jacobi: bad input, exit 2
    assert main(["--ring", "float", "algebra", "show",
                 equations.replace("370370367.3", "518518514.22")]) == 2
    assert "Jacobi" in capsys.readouterr().err


def test_table1_md(capsys):
    code, out = run_cli(capsys, "table1", "--format", "md")
    assert code == 0
    assert out.count("|") > 24
    assert "n28" in out


def test_obstruction_n4(capsys):
    code, out = run_cli(capsys, "obstruction", "n4", "--trials", "5",
                        "--seed", "7", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["confirmed"] == 5
    assert payload["passed"] is True


def test_obstruction_n9_json_reports_each_start(capsys):
    code, out = run_cli(capsys, "obstruction", "n9", "--trials", "6",
                        "--seed", "1", "--format", "json")
    assert code == 0
    results = json.loads(out)["results"]
    assert results["feasible_found"] is False
    detail = results["starts_detail"]
    assert len(detail) == results["starts"] == 6
    assert all(set(d) == {"nit", "nfev", "lambda", "residual"}
               for d in detail)
    below = [d["residual"] for d in detail if d["lambda"] <= -1e-6]
    assert results["best_residual"] == (min(below) if below else None)
    assert results["best_objective"] is not None


def _planted_infeasibility(sampler, target=None):
    # every point is feasible: lambda = -1 and a zero residual
    return lambda b: (0.0, np.zeros(15), -1.0, 0.0)


def _drawn_lambda_positive(self, b, c=1.0):
    return 1.0


CONTRADICTED = {"n9": ["obstruction", "n9", "--trials", "2"],
                "n4": ["obstruction", "n4", "--trials", "2"],
                "reproduce-paper": ["reproduce-paper", "--only",
                                    "obstructions"]}


@pytest.mark.parametrize("which, target, stub", [
    ("n9", "g2forge.survey._isotropy_terms", _planted_infeasibility),
    ("n4", "g2forge.sampling.StableFormSampler.lambda_of",
     _drawn_lambda_positive),
    ("reproduce-paper", "g2forge.survey._isotropy_terms",
     _planted_infeasibility)])
def test_obstruction_failure_is_a_failed_check(capsys, monkeypatch, which,
                                               target, stub):
    monkeypatch.setattr(target, stub)
    for fmt in ("text", "json"):
        code = main(CONTRADICTED[which] + ["--format", fmt])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == ""
        assert "Traceback" not in captured.out
        assert "escalate, do not suppress" in captured.out
    report = json.loads(captured.out)
    assert report["passed"] is False
    assert [c["passed"] for c in report["checks"]] == [False]


def test_parse_error_exit_code(capsys):
    code = main(["algebra", "show", "(0,0,e12,"])
    assert code == 2


def test_bad_scenario_reports_line():
    with pytest.raises(ValueError) as err:
        parse_scenario("[forms]\nomega e12\n")
    assert "line 2" in str(err.value)


SCENARIO = """
# coupled pair with curvature analyses
[algebra]
(0,0,0,0,e13-e24,e14+e23)

[metric]
identity

[forms]
omega = e12+e34-e56
sigma = e136-e145-e235-e246

[analyses]
su3
nilsoliton
einstein
"""


def test_scenario_run(tmp_path, capsys):
    path = tmp_path / "scenario.txt"
    path.write_text(SCENARIO)
    code, out = run_cli(capsys, "check", str(path), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["su3"]["coupled_c"] == "-1"
    assert payload["results"]["nilsoliton"]["c"] == "-3"
    assert payload["results"]["einstein"] is None


def test_scenario_g2(tmp_path, capsys):
    text = """
[algebra]
(a*e17,a*e27,a*e37,a*e47,a*e57,a*e67,0)

[forms]
phi = -e125-e136-e147+e237-e246+e345-e567

[analyses]
g2
"""
    path = tmp_path / "scenario_g2.txt"
    path.write_text(text)
    code, out = run_cli(capsys, "check", str(path), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["g2"]["class"] == "locally_conformal_parallel"
    assert payload["results"]["g2"]["torsion"]["tau1"] == "-a*e7"


def test_scenario_empty_analyses(tmp_path, capsys):
    text = "[algebra]\n(0,0,0,0,0,0)\n\n[analyses]\n"
    path = tmp_path / "empty.txt"
    path.write_text(text)
    code, out = run_cli(capsys, "check", str(path), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["results"] == {}
    assert payload["inputs"]["algebra"] == "(0,0,0,0,0,0)"


def test_close_numeric_coercion():
    assert _close("-1/3", -0.3333333333333333, 1e-10)
    assert _close({"e12": "-5/3"}, {"e12": -1.6666666666666665,
                                    "e15": 1e-17}, 1e-10)
    assert not _close("-1/3", "locally_conformal_calibrated", 1e-10)
    assert not _close({"e12": "-5/3"}, {"e12": "-5/3", "e15": 2.0}, 1e-10)


def test_close_exact_leaves_are_equal_or_differ():
    assert _close("-3", -3, 0.1) and _close(["1/2"], ["2/4"], 0.1)
    assert not _close("-3", "-300000000001/100000000000", 1e-10)
    assert not _close({"e1": "1/2"},
                      {"e1": "1/2", "e2": "1/1000000000000"}, 1e-10)
    # a float leaf agrees within tol relative to the larger side
    assert _close(-3.00000000001, "-3", 1e-10)
    assert _close(3e6 + 1e-5, 3e6, 1e-11)
    assert not _close(3.0 + 1e-9, 3.0, 1e-10)


def close_leaves_by_parsing(a, b, tol):
    """Reference: _close on two leaves as it was before equal leaves
    short-circuited, every leaf read by _numeric first."""
    na, nb = cli._numeric(a), cli._numeric(b)
    if na is None or nb is None:
        return a == b
    if isinstance(na, float) or isinstance(nb, float):
        return abs(na - nb) <= tol * max(1.0, abs(na), abs(nb))
    return na == nb


LEAVES = ["1/2", "2/4", "-5/3", 1, 1.0, 0.5, True, False, 0, 0.0, -0.0,
          float("nan"), -1.6666666666666665, "x", None, "1/0", float("inf")]


def test_close_on_equal_leaves_keeps_the_parsed_verdicts():
    """Equal p/q, "1/2" and "2/4", int and float, bool and int, NaN, and a
    float against a p/q string: every verdict is the parsed one, but for
    two equal infinities, which now agree (inf - inf is NaN to the parse)."""
    nan = float("nan")
    for a in LEAVES:
        for b in LEAVES:
            want = close_leaves_by_parsing(a, b, 1e-10)
            assert _close(a, b, 1e-10) == (want or a == b == float("inf"))
    assert _close("1/2", "2/4", 0.0) and _close(True, 1, 0.0)
    assert not _close(nan, nan, 1e-10) and not _close([nan], [nan], 1e-10)
    assert _close("-5/3", -1.6666666666666665, 1e-10)


@pytest.mark.parametrize("ring, code", [("exact", 1), ("float", 0)])
def test_reproduce_sees_an_exact_drift_below_tol(capsys, monkeypatch, ring,
                                                 code):
    """-3 against -3 - 10**-11 in the golden: unequal exact values in the
    exact ring; within 1e-10 relative of the float value in the float
    ring."""
    real = cli.load_golden

    def tampered(name):
        payload = real(name)
        payload["einstein_constant"] = "-300000000001/100000000000"
        return payload

    monkeypatch.setattr(cli, "load_golden", tampered)
    got, out = run_cli(capsys, "--ring", ring, "reproduce-paper", "--only",
                       "einstein_extension")
    assert got == code
    assert ("[FAIL] einstein_extension.einstein_constant" in out) == \
        (ring == "exact")


def test_float_update_golden_is_refused_and_writes_nothing(capsys):
    names = ["%s.json" % suite for suite in cli.SUITES]
    before = {n: cli._golden_path(n).read_bytes() for n in names}
    code = main(["--ring", "float", "reproduce-paper", "--update-golden"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and "exact ring" in captured.err
    assert {n: cli._golden_path(n).read_bytes() for n in names} == before


def test_reproduce_only_table1(capsys):
    code, out = run_cli(capsys, "reproduce-paper", "--only", "table1")
    assert code == 0
    assert "PASS" in out and "FAIL" not in out


def test_render_report_text_and_md():
    from g2forge.cli import Check
    rep = Report(command="demo", results={"value": 3})
    rep.checks.append(Check(name="demo-check", passed=True))
    txt = render_report(rep, "text")
    assert "[PASS] demo-check" in txt
    md = render_report(rep, "md")
    assert md.startswith("## demo")


def test_reproduce_detects_drift(capsys, monkeypatch):
    import g2forge.cli as cli
    real = cli.load_golden

    def tampered(name):
        payload = real(name)
        if name == "coupled_n28.json":
            payload["lambda"] = "-5"
        return payload

    monkeypatch.setattr(cli, "load_golden", tampered)
    code, out = run_cli(capsys, "reproduce-paper", "--only", "coupled_n28")
    assert code == 1
    assert "FAIL" in out and "coupled_n28.lambda" in out


def test_color_env_override(monkeypatch):
    import sys
    from g2forge.cli import _use_color

    class Args:
        pass

    monkeypatch.setattr(sys.stdout, "isatty", lambda: True, raising=False)
    monkeypatch.delenv("G2FORGE_COLOR", raising=False)
    assert _use_color(Args()) is True
    monkeypatch.setenv("G2FORGE_COLOR", "0")
    assert _use_color(Args()) is False
    monkeypatch.setenv("G2FORGE_COLOR", "never")
    assert _use_color(Args()) is False


def test_scenario_ricci(tmp_path, capsys):
    text = """
[algebra]
(0,0,0,0,e13-e24,e14+e23)

[analyses]
ricci
"""
    path = tmp_path / "ricci.txt"
    path.write_text(text)
    code, out = run_cli(capsys, "check", str(path), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["ricci"]["scal"] == "-2"



@pytest.fixture
def curvature_calls(monkeypatch):
    """Every curvature_tensors call made through the modules that use it."""
    from g2forge import curvature, g2, reproduce
    calls = []
    original = curvature.curvature_tensors

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in (curvature, g2, reproduce):
        monkeypatch.setattr(module, "curvature_tensors", counted)
    return calls


@pytest.mark.parametrize("argv", [
    ["metric", "analyze", "n28"],
    ["g2", "analyze", "n28_ext", "--phi",
     "e127+e347-e567+e136-e145-e235-e246"],
    ["reproduce-paper", "--only", "einstein_extension"],
])
def test_commands_compute_curvature_once(capsys, curvature_calls, argv):
    code, _ = run_cli(capsys, *argv)
    assert code == 0
    assert len(curvature_calls) == 1


def test_metric_analyze_decides_nilpotency_once(capsys, monkeypatch):
    # the lower central series takes one rank reduction per step; n28 has
    # step 2, and the command and the nilsoliton check share one verdict,
    # which the shared catalog instance keeps for a second run
    from g2forge import liealg
    fresh = liealg.parse_structure_equations(catalog.NILPOTENT6["n28"])
    assert liealg.is_nilpotent(fresh) == (True, 2)
    catalog.algebra.cache_clear()
    spans = []
    original = linalg.row_basis

    def counted(vectors, floor):
        spans.append(len(vectors))
        return original(vectors, floor)

    monkeypatch.setattr(linalg, "row_basis", counted)
    for runs in (1, 2):
        code, out = run_cli(capsys, "metric", "analyze", "n28", "--format",
                            "json")
        assert code == 0
        assert json.loads(out)["results"]["nilsoliton"]["c"] == "-3"
        assert len(spans) == 2, runs


def test_catalog_algebras_are_shared():
    from g2forge.reproduce import to_ring
    for name in catalog.names():
        algebra = catalog.algebra(name)
        assert algebra is catalog.algebra(name), name
        assert to_ring(algebra, "float") is to_ring(algebra, "float"), name


def test_float_metric_analyze_decides_nilpotency_once_per_process(
        capsys, monkeypatch):
    # both runs read the float twin kept on the shared n9, so the SVD spans
    # of its lower central series are taken by the first run alone
    from g2forge import liealg
    fresh = liealg.parse_structure_equations(catalog.NILPOTENT6["n9"])
    nilp, step = liealg.is_nilpotent(fresh)
    assert nilp and step > 1
    catalog.algebra.cache_clear()
    spans = []
    original = linalg.row_basis

    def counted(vectors, floor):
        spans.append(all(isinstance(x, float) for v in vectors for x in v))
        return original(vectors, floor)

    monkeypatch.setattr(linalg, "row_basis", counted)
    for _ in range(2):
        code, _ = run_cli(capsys, "--ring", "float", "metric", "analyze",
                          "n9", "--format", "json")
        assert code == 0
    assert spans == [True] * step


@pytest.mark.parametrize("ring", ["exact", "float"])
def test_structure_text_is_parsed_on_every_load(ring):
    # negative control for the sharing: only catalog names are kept
    text = catalog.NILPOTENT6["n28"]
    first, second = (cli._load_algebra(text, ring) for _ in range(2))
    assert first is not second and first == second
    assert first is not cli._load_algebra("n28", ring)


def fresh_catalog_algebra(name):
    """The catalog algebra of that name built anew, not the shared one."""
    if name in catalog.NILPOTENT6:
        return parse_structure_equations(catalog.NILPOTENT6[name], name=name)
    return {"n9_nilsoliton": catalog.n9_nilsoliton_frame,
            "n28_ext": lambda: catalog.n28_einstein_extension().algebra,
            "abelian_ext": lambda: catalog.abelian_scaling_extension().algebra,
            }[name]()


def shared_catalog_faults():
    """(name, what) for each shared catalog algebra that differs from a
    fresh build: in its rendering or typed coefficients, in its float twin,
    or in a nilpotency verdict it keeps."""
    from g2forge.liealg import is_nilpotent, to_float_algebra
    from g2forge.reproduce import to_ring

    def coeffs(algebra):
        return [[(i, type(c), c) for i, c in f.items()]
                for f in algebra.d_coframe]

    faults = []
    for name in catalog.names():
        shared, fresh = catalog.algebra(name), fresh_catalog_algebra(name)
        if (render_structure_equations(shared)
                != render_structure_equations(fresh)
                or coeffs(shared) != coeffs(fresh)):
            faults.append((name, "structure"))
        if shared.is_polynomial_ring():
            continue
        twin, fresh_twin = to_ring(shared, "float"), to_float_algebra(fresh)
        if coeffs(twin) != coeffs(fresh_twin):
            faults.append((name, "float twin"))
        if (is_nilpotent(shared), is_nilpotent(twin)) != (
                is_nilpotent(fresh), is_nilpotent(fresh_twin)):
            faults.append((name, "nilpotency"))
    return faults


def test_catalog_commands_leave_the_shared_algebras_as_built(capsys):
    """The catalog workload's commands, in process and in both rings, do
    not change a shared algebra, its float twin or its kept verdicts; a
    changed coefficient is seen (negative control)."""
    for ring in ("exact", "float"):
        runs = [["reproduce-paper", "--only", suite] for suite in cli.SUITES
                if suite != "obstructions"]
        runs += [["metric", "analyze", name] for name in catalog.NILPOTENT6]
        for argv in runs:
            code, _ = run_cli(capsys, "--ring", ring, "--format", "json",
                              *argv)
            assert code == 0, argv
    assert shared_catalog_faults() == []
    form = catalog.algebra("n28").d_coframe[4]
    try:
        form.coeffs[(1, 3)] = Fraction(2)
        faults = shared_catalog_faults()
        assert ("n28", "structure") in faults
        # n28_ext differs too: a fresh one is built on the changed n28
        assert {name for name, _ in faults} == {"n28", "n28_ext"}
    finally:
        form.coeffs[(1, 3)] = Fraction(1)
        catalog.algebra.cache_clear()
    assert shared_catalog_faults() == []


def test_scenario_computes_curvature_once(tmp_path, capsys, curvature_calls):
    path = tmp_path / "all.txt"
    path.write_text("[algebra]\nn28\n[analyses]\nricci\neinstein\nnilsoliton\n")
    code, out = run_cli(capsys, "check", str(path), "--format", "json")
    assert code == 0
    assert json.loads(out)["results"]["nilsoliton"]["c"] == "-3"
    assert len(curvature_calls) == 1


PHI = "e127+e347-e567+e136-e145-e235-e246"
TWICE_PHI = "2*e127+2*e347-2*e567+2*e136-2*e145-2*e235-2*e246"
LAMBDA_MINUS_8 = ["su3", "check", "n28", "--omega", "e12+e34-e56",
                  "--sigma", "e136+e145+e235-2*e246"]


@pytest.mark.parametrize("argv, code", [
    (["g2", "analyze", "n28", "--phi", "e123"], 2),
    (["--ring", "float", "g2", "analyze",
      "(a*e17,a*e27,a*e37,a*e47,a*e57,a*e67,0)",
      "--phi=-e125-e136-e147+e237-e246+e345-e567"], 2),
    (["metric", "analyze", "n28", "--metric", "1/0"], 2),
    (["check", "/nonexistent"], 2),
    (["obstruction", "n4", "--trials", "-1"], 2),
    (LAMBDA_MINUS_8, 3),
])
def test_failures_map_to_exit_codes(capsys, argv, code):
    assert main(argv) == code
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")
    assert ("rerun with --ring float" in err) == (code == 3)


@pytest.mark.parametrize("metric, message", [
    ("1/2/3", "'1/2/3' at row 1, column 1"),
    (" ; ", "'' at row 1, column 1"),
    ("x", "'x' at row 1, column 1"),
    ("1;2,x", "'x' at row 2, column 2"),
    ("1_0", "'1_0' at row 1, column 1"),
    ("1,1/2_0", "'1/2_0' at row 1, column 2"),
    ("1e999", "'1e999' at row 1, column 1"),
    ("1;2,-1e999", "'-1e999' at row 2, column 2"),
])
def test_malformed_metric_entry_is_named(capsys, metric, message):
    assert main(["metric", "analyze", "n28", "--metric", metric]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == ("error: metric entry %s is not an integer, "
                                 "p/q or decimal\n" % message)


@pytest.mark.parametrize("before", [True, False], ids=["global", "subcommand"])
@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_tolerance_outside_its_domain_is_bad_input(capsys, tol, before):
    argv = ["--ring", "float", "metric", "analyze", "n28"]
    argv = ["--tol", tol] + argv if before else argv + ["--tol", tol]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 2
    assert out == "" and "--tol" in err


def test_scenario_missing_form_is_bad_input(tmp_path, capsys):
    path = tmp_path / "no_forms.txt"
    path.write_text("[algebra]\nn28\n[analyses]\nsu3\n")
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr().err == "error: omega is missing\n"


def test_scenario_unknown_analysis_reports_line():
    with pytest.raises(ValueError) as err:
        parse_scenario("[algebra]\nn28\n[analyses]\nricci\nbogus\n")
    assert "line 5" in str(err.value) and "bogus" in str(err.value)


def test_closed_pipe_leaves_stderr_empty():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, "-m", "g2forge.cli", "table1", "--format", "md"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()             # the reader leaves before any output
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == 0
    assert err == b""


def test_twice_phi_is_positive_in_both_rings(capsys):
    argv = ["--format", "json", "g2", "analyze", "n28_ext", "--phi", TWICE_PHI]
    code, out = run_cli(capsys, *argv)
    assert code == 0
    exact = json.loads(out)["results"]
    assert exact["positive"] is True
    assert "9-th root" in exact["needs_float_ring"]
    code, out = run_cli(capsys, "--ring", "float", *argv)
    assert code == 0
    floating = json.loads(out)["results"]
    assert floating["positive"] is True
    assert floating["class"] == "locally_conformal_calibrated"


def test_irrational_lambda_is_decided_in_the_float_ring(capsys):
    code, out = run_cli(capsys, "--ring", "float", "--format", "json",
                        *LAMBDA_MINUS_8)
    assert code == 0
    results = json.loads(out)["results"]
    assert results["stable"] is True
    assert abs(results["lambda"] + 8) < 1e-9


@pytest.mark.parametrize("ring, kind", [("float", float), ("exact", str)])
def test_metric_analyze_ricci_is_in_one_ring(capsys, ring, kind):
    # float Ricci entries that no curvature term reaches are 0.0, not the
    # exact "0"; exact entries stay rationals rendered as text
    from g2forge import catalog
    for name in catalog.NILPOTENT6:
        code, out = run_cli(capsys, "--ring", ring, "metric", "analyze", name,
                            "--format", "json")
        assert code == 0
        results = json.loads(out)["results"]
        assert all(type(x) is kind for row in results["ricci"] for x in row)
        assert type(results["scal"]) is kind


def test_float_scenario_ricci_holds_floats(tmp_path, capsys):
    path = tmp_path / "ricci.txt"
    path.write_text("[algebra]\nn28\n[metric]\nidentity\n[analyses]\nricci\n")
    code, out = run_cli(capsys, "--ring", "float", "check", str(path),
                        "--format", "json")
    assert code == 0
    payload = json.loads(out)
    ricci = payload["results"]["ricci"]
    assert isinstance(ricci["scal"], float) and abs(ricci["scal"] + 2) < 1e-9
    assert all(isinstance(x, float) for row in ricci["matrix"] for x in row)
    assert all(isinstance(x, float) for row in payload["inputs"]["metric"]
               for x in row)


def test_scenario_g2_is_g2_analyze(tmp_path, capsys):
    path = tmp_path / "g2.txt"
    path.write_text("[algebra]\nn28_ext\n[forms]\nphi = %s\n"
                    "[analyses]\ng2\n" % PHI)
    code, out = run_cli(capsys, "check", str(path), "--format", "json")
    assert code == 0
    scenario = json.loads(out)
    code, out = run_cli(capsys, "g2", "analyze", "n28_ext", "--phi", PHI,
                        "--format", "json")
    assert code == 0
    analyze = json.loads(out)
    assert scenario["results"]["g2"] == analyze["results"]
    assert scenario["inputs"]["phi"] == analyze["inputs"]["phi"]


def su3_case(name, twist):
    """(algebra argument, omega, sigma) of a catalog pair, or of its
    rewriting on the coframe P6_DENSE e."""
    omega, sigma = (catalog.n28_coupled_pair() if name == "n28"
                    else catalog.n9_coupled_pair())
    if not twist:
        return name, omega, sigma
    c = Coframe(P6_DENSE)
    # the n9 sigma is an irrational multiple of an integral form: rewrite
    # that form exactly, so the twisted text holds no rounding residues
    unit = min(abs(x) for x in sigma.coeffs.values())
    integral = sigma.map_coeffs(lambda x: Fraction(round(x / unit)))
    return (render_structure_equations(c.algebra(catalog.algebra(name))),
            c.form(omega.map_coeffs(Fraction)), unit * c.form(integral))


def g2_case(name, variant):
    """(algebra argument, phi) of n28_ext, abelian_ext at a = 2/3 or the
    generic-torsion input; of its rewriting on the coframe P_DENSE e
    ("dense"); or with 10^9 phi, that is c^3 phi for c = 1000 ("scaled")."""
    algebra, phi = {**CASES, "generic": GENERIC}[name]
    if variant == "scaled":
        phi = 10 ** 9 * phi
    if variant != "dense":
        return render_structure_equations(algebra), phi
    c = Coframe(P_DENSE)
    return render_structure_equations(c.algebra(algebra)), c.form(phi)


def results_in_both_rings(capsys, argv):
    out = {}
    for ring in ("exact", "float"):
        code, text = run_cli(capsys, "--ring", ring, "--format", "json", *argv)
        assert code == 0
        out[ring] = json.loads(text)["results"]
    return out["exact"], out["float"]


def assert_close(exact, approx, tol=1e-10):
    """An exact constant (p/q text, or a float when the input held floats)
    and its float-ring value agree within tol, relative above 1."""
    exact = Fraction(exact) if isinstance(exact, str) else exact
    assert abs(exact - approx) <= tol * max(1, abs(approx))


@pytest.mark.parametrize("twist", [False, True], ids=["catalog", "dense"])
@pytest.mark.parametrize("name", ["n28", "n9"])
def test_su3_check_verdicts_agree_across_rings(capsys, name, twist):
    algebra, omega, sigma = su3_case(name, twist)
    exact, approx = results_in_both_rings(capsys, [
        "su3", "check", algebra, "--omega=" + render_form(omega),
        "--sigma=" + render_form(sigma)])
    for key in ("stable", "compatible", "normalized", "positive",
                "half_flat"):
        assert exact[key] is approx[key] is True
    for key in ("lambda", "coupled_c"):
        assert_close(exact[key], approx[key])


@pytest.mark.parametrize("variant", ["catalog", "dense", "scaled"])
@pytest.mark.parametrize("name", ["n28_ext", "abelian_ext", "generic"])
def test_g2_analyze_verdicts_agree_across_rings(capsys, name, variant):
    algebra, phi = g2_case(name, variant)
    exact, approx = results_in_both_rings(capsys, [
        "g2", "analyze", algebra, "--phi=" + render_form(phi)])
    assert exact["positive"] is approx["positive"] is True
    for key in ("class", "star_einstein"):
        assert exact[key] == approx[key]
    for key in ("scal_ricci", "scal_torsion"):
        assert (key in exact) == (key in approx)
        if key in exact:
            assert_close(exact[key], approx[key])
    assert_close(exact["torsion"]["tau0"], approx["torsion"]["tau0"])
    # both extensions are Einstein; the generic-torsion metric is not
    assert (exact["einstein"] is None) is (approx["einstein"] is None) \
        is (name == "generic")
    if name != "generic":
        assert_close(exact["einstein"], approx["einstein"])
    # float star-Ricci entries no curvature term reaches are 0.0, not "0"
    assert not any(isinstance(x, str)
                   for row in approx["star_ricci"] for x in row)


def test_main_parses_with_one_parser_and_no_state_between_calls(
        capsys, monkeypatch):
    """Alternating subcommands, flags before and after them, and a usage
    error give the same exit codes and output from the one parser that
    main keeps as from a fresh parser per call."""
    argvs = [
        ["metric", "analyze", "n28", "--ring", "float", "--format", "json"],
        ["metric", "analyze", "n28"],
        ["--format", "json", "algebra", "show", "n28"],
        ["algebra", "show", "n28", "--tol", "1e-3"],
        ["metric", "analyze"],
        ["--ring", "float", "algebra", "list"],
        ["su3", "check", "n28", "--omega", "e12+e34+e56",
         "--sigma", "e135-e146-e236-e245", "--format", "json"],
    ]

    def run_all():
        out = []
        for argv in argvs + argvs[::-1]:
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = ("exit", exc.code)
            out.append((code, capsys.readouterr()))
        return out

    cli._parser.cache_clear()
    kept = run_all()
    assert cli._parser.cache_info().misses == 1
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    assert kept == run_all()
    assert ("exit", 2) in [code for code, _ in kept]


@pytest.mark.parametrize("argv", [
    ["algebra", "list"],
    ["algebra", "show", "n28"],
    ["su3", "check", "n28", "--omega", "e12+e34-e56",
     "--sigma", "e136-e145-e235-e246"],
    ["metric", "analyze", "n28"],
    ["g2", "analyze", "n28_ext",
     "--phi", "e127+e347-e567+e136-e145-e235-e246"],
    ["table1"],
    ["obstruction", "n4", "--trials", "2"],
    ["obstruction", "n9", "--trials", "2"],
    ["reproduce-paper", "--only", "table1"],
    ["check", "SCENARIO"],
], ids=lambda argv: " ".join(argv[:2]))
def test_json_provenance_records_the_package_version(tmp_path, capsys, argv):
    if argv[0] == "check":
        argv = ["check", str(tmp_path / "scenario.txt")]
        Path(argv[1]).write_text(SCENARIO)
    code, out = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    assert json.loads(out)["provenance"]["version"] == g2forge.__version__


@pytest.mark.parametrize("ring", ["exact", "float"])
@pytest.mark.parametrize("suite, algebra, phi", [
    ("einstein_extension", "n28_ext", catalog.n28_ext_g2_form()),
    ("lcp_extension", "abelian_ext", catalog.abelian_ext_g2_form()),
])
def test_extension_suites_read_g2_analyze(capsys, suite, algebra, phi, ring):
    """Every key of an extension golden that g2 analyze also reports holds
    the command's value.  The lcp suite runs in the exact ring in both
    rings, since its extension has the symbolic parameter a."""
    from g2forge.liealg import parse_form
    from g2forge.reproduce import compute_suite, form_payload
    golden = compute_suite(suite, ring=ring)
    cli_ring = "exact" if suite == "lcp_extension" else ring
    code, out = run_cli(capsys, "--ring", cli_ring, "--format", "json",
                        "g2", "analyze", algebra, "--phi=" + render_form(phi))
    assert code == 0
    results = json.loads(out)["results"]
    results.update(results.pop("torsion"))
    for tau in ("tau1", "tau2", "tau3"):
        results[tau] = form_payload(parse_form(results[tau], 7, int(tau[-1])))
    renamed = {"scal": "scal_ricci", "scal_from_torsion": "scal_torsion",
               "einstein_constant": "einstein"}
    shared = [key for key in golden if renamed.get(key, key) in results]
    assert set(golden) - set(shared) == {"structure"} | (
        {"dphi_is_minus_e7_wedge_phi"} if suite == "einstein_extension"
        else set())
    for key in shared:
        assert golden[key] == results[renamed.get(key, key)], key
