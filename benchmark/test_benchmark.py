"""Tests of the benchmark's own code: the coframe twist, each independent
check together with a negative control, the tracer and the run contract.

    python3 -m pytest benchmark -q
"""
import json
import shutil
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import checks
import run
import speed
import twist
import workloads
from tracer import Tracer

from g2forge import catalog, cli, linalg, survey
from g2forge.exterior import render_form
from g2forge.g2 import b_form
from g2forge.liealg import (parse_form, parse_structure_equations,
                            render_structure_equations, to_float_algebra)

ROOT = Path(__file__).resolve().parent.parent
T7, T6 = twist.Twist(twist.P7), twist.Twist(twist.P6)
IDENTITY7 = [[int(i == j) for j in range(7)] for i in range(7)]


def catalog_text(name):
    return render_structure_equations(catalog.algebra(name))


def report(argv):
    rc, out = workloads.cli_json(["--format", "json"] + argv)
    assert rc == 0
    return out["results"]


# ---------------------------------------------------------------------------
# coframe twist
# ---------------------------------------------------------------------------

def test_twist_matrices_are_dense_and_unimodular():
    for t in (T7, T6):
        assert twist.det(t.p) == 1
        assert all(x != 0 for row in t.q for x in row)
        assert twist.matmul(t.p, t.q) == [[int(i == j) for j in range(t.dim)]
                                          for i in range(t.dim)]


def test_twisted_algebras_pass_the_program_jacobi_check():
    for t, name in ((T7, "n28_ext"), (T6, "n28")):
        text = twist.render_structure(
            t.structure(twist.parse_structure(catalog_text(name))))
        algebra = parse_structure_equations(text)     # raises on Jacobi
        assert algebra.jacobi_defect() is None
        assert not algebra.is_float_ring()


def test_twisted_phi_keeps_det_b():
    phi = catalog.n28_ext_g2_form()
    twisted = parse_form(twist.render(T7.form(twist.parse(render_form(phi)))),
                         7, degree=3)
    assert linalg.det(b_form(twisted)) == linalg.det(b_form(phi)) == -1


def test_twist_round_trip_and_rejects_non_unimodular():
    form = twist.parse("e123-2*e145+1/2*e367")
    assert T7.untwist_form(T7.form(form)) == form
    g = T7.metric(IDENTITY7)
    assert T7.untwist_metric(g) == IDENTITY7
    with pytest.raises(ValueError):
        twist.Twist([[2, 0], [0, 1]])
    with pytest.raises(ValueError):
        twist.Twist([[0, 1], [1, 0]])


def test_render_parse_agree_with_the_program_grammar():
    form = twist.parse("-e12+7/2*e13-3*e56")
    assert twist.parse(render_form(parse_form(twist.render(form), 6))) == form


# ---------------------------------------------------------------------------
# independent checks, each with a negative control
# ---------------------------------------------------------------------------

def test_identity_scal_formula():
    for name, text in catalog.NILPOTENT6.items():
        checks.check_identity_scal(text, report(["metric", "analyze", name])["scal"])
    assert checks.nilpotent_identity_scal(catalog.NILPOTENT6["n28"]) == -2
    with pytest.raises(checks.CheckFailed):
        checks.check_identity_scal(catalog.NILPOTENT6["n28"], "-3")


def test_certificates_and_partition():
    rows = survey.build_table()
    square = next(r for r in rows if r.certificate.kind == "scaled_square")
    lam, cert = str(square.lambda_poly), square.certificate
    checks.check_square_certificate(lam, cert.factor, str(cert.root))
    with pytest.raises(checks.CheckFailed):
        checks.check_square_certificate(lam, -cert.factor, str(cert.root))
    pair = next(r for r in rows if r.certificate.kind == "witness_pair")
    lam, cert = str(pair.lambda_poly), pair.certificate
    checks.check_witness_pair(lam, cert.positive_witness, cert.negative_witness)
    with pytest.raises(checks.CheckFailed):
        checks.check_witness_pair(lam, cert.negative_witness,
                                  cert.positive_witness)
    checks.check_partition({"nonneg": 11, "zero": 10, "nonpos": 1,
                            "indefinite": 2})
    with pytest.raises(checks.CheckFailed):
        checks.check_partition({"nonneg": 11, "zero": 10, "nonpos": 0,
                                "indefinite": 3})


def test_table1_check_rejects_a_wrong_partition():
    payload = cli.load_golden("table1.json")
    workloads.Catalog.check_table1(payload)
    payload["partition"] = dict(payload["partition"], nonneg=12, zero=9)
    with pytest.raises(checks.CheckFailed):
        workloads.Catalog.check_table1(payload)


def test_polynomial_reader():
    p = checks.parse_poly("-4*b12*b15^3*c^4 + 4*b14^2*b15^2*c^4 - 1/2")
    assert p[(("b14", 2), ("b15", 2), ("c", 4))] == 4
    assert p[()] == Fraction(-1, 2)
    assert checks.poly_eval(p, {"b12": 1, "b15": 1, "c": 1}) == Fraction(-9, 2)


def test_rings_agree():
    exact = {"lambda": "-4", "omega": {"e12": "1", "e34": "0"}, "m": [["1/3"]]}
    floating = {"lambda": -4.0, "omega": {"e12": 1.0}, "m": [[1 / 3]]}
    checks.check_rings_agree(exact, floating, "pair")
    with pytest.raises(checks.CheckFailed):
        checks.check_rings_agree(exact, dict(floating, **{"lambda": 4.0}),
                                 "pair")
    with pytest.raises(checks.CheckFailed):
        checks.check_rings_agree({"omega": {"e56": "-1"}}, {"omega": {}}, "pair")
    with pytest.raises(checks.CheckFailed):
        checks.check_rings_agree({"nilsoliton": None}, {"nilsoliton": {"c": 1.0}},
                                 "metric")


def test_extension_scal():
    golden = cli.load_golden("einstein_extension.json")
    checks.check_extension_scal("einstein_extension", golden)
    checks.check_extension_scal("lcp_extension",
                                cli.load_golden("lcp_extension.json"))
    with pytest.raises(checks.CheckFailed):
        checks.check_extension_scal("einstein_extension",
                                    dict(golden, scal_from_torsion="-20"))
    wrong = dict(golden, ricci=[row[:] for row in golden["ricci"]])
    wrong["ricci"][0][0] = "3"
    with pytest.raises(checks.CheckFailed):
        checks.check_extension_scal("einstein_extension", wrong)


def expected_twisted_g2(reference):
    """What g2 analyze must report on the twisted input, built by the twist
    alone from the catalog answer."""
    tors = {k: twist.render(T7.form(twist.parse(reference["torsion"][k])))
            for k in ("tau1", "tau2", "tau3")}
    tors["tau0"] = reference["torsion"]["tau0"]
    metric = [[str(x) for x in row]
              for row in T7.metric(checks.matrix(reference["metric"]))]
    return dict(reference, torsion=tors, metric=metric, star_ricci=None)


def test_twisted_g2_check():
    phi = render_form(catalog.n28_ext_g2_form())
    reference = report(["g2", "analyze", "n28_ext", "--phi=" + phi])
    good = expected_twisted_g2(reference)
    checks.check_twisted_g2(good, reference, T7)
    flipped = dict(good, torsion=dict(good["torsion"]))
    flipped["torsion"]["tau2"] = twist.render(
        {k: -v for k, v in twist.parse(good["torsion"]["tau2"]).items()})
    with pytest.raises(checks.CheckFailed):
        checks.check_twisted_g2(flipped, reference, T7)
    with pytest.raises(checks.CheckFailed):    # untwisted metric
        checks.check_twisted_g2(dict(good, metric=reference["metric"]),
                                reference, T7)
    with pytest.raises(checks.CheckFailed):
        checks.check_twisted_g2(dict(good, **{"class": "generic"}),
                                reference, T7)


def test_star_ricci_trace_check():
    reference = report(["g2", "analyze", "n28_ext",
                        "--phi=" + render_form(catalog.n28_ext_g2_form())])
    rho = checks.matrix(reference["star_ricci"])
    metric = T7.metric(IDENTITY7)
    as_form = T7.metric(rho)                          # Q^T rho Q
    checks.check_star_ricci_trace(as_form, metric, reference["star_ricci"])
    checks.check_star_ricci_trace(rho, IDENTITY7, reference["star_ricci"])
    wrong = [row[:] for row in rho]
    wrong[6][6] += 1
    with pytest.raises(checks.CheckFailed):
        checks.check_star_ricci_trace(wrong, IDENTITY7, reference["star_ricci"])


def test_twisted_metric_and_su3_checks():
    wl = workloads.Twisted(1)
    wl.build()
    _, out = wl.ops[1].run()
    got = out[1]["results"]
    reference = report(["metric", "analyze", "n28"])
    checks.check_twisted_metric(got, reference, wl.n28)
    with pytest.raises(checks.CheckFailed):
        checks.check_twisted_metric(dict(got, scal="-1"), reference, wl.n28)
    with pytest.raises(checks.CheckFailed):
        checks.check_twisted_metric(dict(got, nilsoliton=None), reference,
                                    wl.n28)
    failed, out = wl.ops[2].run()
    assert not failed
    su3_ref = report(wl.references[2][2:])
    checks.check_twisted_su3(out[1]["results"], su3_ref)
    with pytest.raises(checks.CheckFailed):
        checks.check_twisted_su3(dict(out[1]["results"], coupled_c="1"), su3_ref)


def test_fault_classifiers():
    wl = workloads.Twisted(1)
    wl.build()
    failed, out = wl.ops[3].run()     # twice a catalog phi, exact ring
    assert failed is workloads.not_positive(out[1]["results"])
    assert workloads.star_ricci_missing({"star_ricci": None})
    assert not workloads.star_ricci_missing({"star_ricci": [["1"]]})
    assert not workloads.not_positive({"positive": True})


def test_n4_null_vector_check():
    rep = survey.n4_obstruction_sample(4, 5)
    assert any(trial.seed_b[12] or trial.seed_b[13]
               for trial in rep.trials_detail)
    algebra = to_float_algebra(catalog.algebra("n4"))
    for trial in rep.trials_detail:
        h = checks.n4_metric(trial.seed_b, trial.coupling, algebra)
        checks.check_null(h, checks.null_vector(trial.seed_b))
        v = checks.null_vector(trial.seed_b)
        if v[4] or v[5]:            # v = e4 + r flipped to e4 - r
            with pytest.raises(checks.CheckFailed):
                checks.check_null(h, v[:4] + [-v[4], -v[5]])
        with pytest.raises(checks.CheckFailed):   # a wrong matrix
            checks.check_null([[float(i == j) for j in range(6)]
                               for i in range(6)],
                              checks.null_vector(trial.seed_b))


# ---------------------------------------------------------------------------
# tracer and run contract
# ---------------------------------------------------------------------------

def test_tracer_rebinds_every_binding_and_restores():
    from g2forge import exterior, g2, scalars
    original = exterior.form_inner
    mul = scalars.Polynomial.__mul__
    tracer = Tracer()
    tracer.install()
    try:
        assert g2.form_inner is exterior.form_inner is not original
        assert scalars.Polynomial.__rmul__ is scalars.Polynomial.__mul__ is not mul
        with tracer.span("op"):
            algebra = catalog.algebra("n28")
            algebra.d(parse_form("e56", 6))
    finally:
        tracer.uninstall()
    assert g2.form_inner is exterior.form_inner is original
    assert scalars.Polynomial.__rmul__ is mul
    spans = tracer.summarize(0, len(tracer))
    assert spans["liealg.LieAlgebra.d"]["calls"] >= 1
    assert spans["liealg.parse_structure_equations"]["calls"] == 1
    op = spans["op"]
    total = (tracer.ends[0] - tracer.starts[0]) / 1e9
    assert 0 <= op["self_s"] <= total
    assert abs(sum(s["self_s"] for s in spans.values()) - total) < 1e-6


def test_speed_probe_samples_during_a_pass_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedProbe() as probe:
        end = time.perf_counter() + 3 * speed.INTERVAL_S
        while time.perf_counter() < end:
            pass
        ticks, spent = len(probe.samples), probe.spent_wall
    assert ticks >= 3          # one before the pass, then the timer's
    assert len(probe.samples) == ticks + 1
    assert 0 < spent < 3 * speed.INTERVAL_S
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert speed.scaled(2.0, speed.NOMINAL_S) == 2.0
    assert speed.scaled(2.0, 2 * speed.NOMINAL_S) == 1.0


def test_speed_kernel_checks_its_result(monkeypatch):
    monkeypatch.setattr(speed, "KERNEL_DET", speed.KERNEL_DET + 1)
    with pytest.raises(RuntimeError):
        speed.burst(1)


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(ROOT / "benchmark", tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "catalog",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
