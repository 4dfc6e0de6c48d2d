"""g2forge benchmark: one workload per run, or every workload with ``all``.

    python3 benchmark/run.py --workload catalog --seed 1 --seconds 30 --trace 0
    python3 benchmark/run.py --workload all --seconds 30

Run from anywhere inside a source checkout; the program is imported from
``src/`` next to this directory, never from an installed copy.  A run:

1. starts ``SETUP_PROBES`` fresh interpreters one after another; each does
   the workload's set-up (imports, catalog inputs, sampler tensors) and
   reports when it is ready.  ``setup_s`` is their median.
2. does the same set-up in this process, then runs whole passes over the
   workload's fixed list of operations while the next one is expected to
   end within ``--seconds``.  ``pass_s`` and ``cpu_s`` are medians over
   passes; ``peak_rss_mb`` is this process's high-water mark after the
   passes.
3. checks the outputs (workloads.py, checks.py) and prints one JSON object
   as the last line of standard output.

Every time (``pass_s``, ``cpu_s``, ``setup_s``) is put on the scale of a
reference machine by the speed kernel timed alongside it (speed.py).
OpenBLAS runs one thread (``OPENBLAS_NUM_THREADS=1``); see README.md.

With ``--trace 1`` the first third of the time runs untraced passes and the
rest traced ones (tracer.py), and the per-layer metrics are printed.  On a
workload that uses BLAS, a child process also runs a few passes with the
environment's default threads.  Results and spans are written under
``benchmark/results/``.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_PROBES = 7
# passes of the child that runs with the environment's default BLAS threads
DEFAULT_THREAD_PASSES = 5

END_TO_END = (("pass_s", "s"), ("cpu_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))

# per-layer metrics: "<span>.calls|self_s|failed" come from the spans of
# tracer.TARGETS; the rest are computed in layer_metrics and setup probes
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("linalg.submatrix_det.calls", "count"),
    ("linalg.submatrix_det.self_s", "s"),
    ("linalg.det.calls", "count"),
    ("linalg.det.self_s", "s"),
    ("exterior.form_inner.calls", "count"),
    ("exterior.form_inner.self_s", "s"),
    ("exterior.hodge_star.calls", "count"),
    ("exterior.hodge_star.self_s", "s"),
    ("exterior.wedge.calls", "count"),
    ("exterior.wedge.self_s", "s"),
    ("liealg.LieAlgebra.d.calls", "count"),
    ("liealg.LieAlgebra.d.self_s", "s"),
    ("g2.metric_from_phi.self_s", "s"),
    ("g2.torsion_forms.self_s", "s"),
    ("g2.two_form_14_basis.self_s", "s"),
    ("g2.star_ricci.calls", "count"),
    ("g2.star_ricci.failed", "count"),
    ("curvature.curvature_tensors.calls", "count"),
    ("curvature.curvature_tensors.self_s", "s"),
    ("curvature.nilsoliton_check.self_s", "s"),
    ("liealg.derivation_space.self_s", "s"),
    ("linalg.solve.self_s", "s"),
    ("linalg.nullspace.self_s", "s"),
    ("scalars.Polynomial.__mul__.calls", "count"),
    ("scalars.Polynomial.__mul__.self_s", "s"),
    ("scalars.poly_sqrt.self_s", "s"),
    ("stable_forms.lambda_invariant.self_s", "s"),
    ("stable_forms.metric_from_pair.self_s", "s"),
    ("survey.generic_lambda.self_s", "s"),
    ("survey.sign_certificate.self_s", "s"),
    ("survey.n9_nilsoliton_obstruction_sample.self_s", "s"),
    ("sampling.StableFormSampler.k_matrix.calls", "count"),
    ("scipy.optimize.minimize.calls", "count"),
    ("scipy.optimize.minimize.nfev", "count"),
    ("scipy.optimize.minimize.nit", "count"),
    ("survey.n9.starts", "count"),
    ("survey.n9.admissible_start_ratio", "ratio"),
    ("survey.n4_obstruction_sample.self_s", "s"),
    ("survey.n4.draws", "count"),
    ("survey.n4.accepted_draw_ratio", "ratio"),
    ("reproduce.suite.self_s", "s"),
    ("cli.cmd_reproduce.self_s", "s"),
    ("cli.render_report.self_s", "s"),
    ("setup.import_g2forge_s", "s"),
    ("setup.import_scipy_s", "s"),
    ("sampling.StableFormSampler.__init__.self_s", "s"),
    ("liealg.parse_structure_equations.self_s", "s"),
    ("trace.untraced_pass_s", "s"),
    ("trace.traced_pass_s", "s"),
    ("trace.overhead_s", "s"),
    ("speed.reference_ms", "ms"),
    ("blas.default_threads.pass_s", "s"),
    ("blas.default_threads.cpu_s", "s"),
)

# measured in the set-up probes rather than in the passes
SETUP_LAYERS = ("setup.import_g2forge_s", "setup.import_scipy_s",
                "sampling.StableFormSampler.__init__.self_s",
                "liealg.parse_structure_equations.self_s")

# the environment this run was started in, before BLAS threads were capped
INHERITED_ENV = dict(os.environ)

LAMBDA_CUT = -1e-6   # survey.n9_nilsoliton_obstruction_sample's default


def load_program() -> None:
    """Put this checkout's ``src`` first on the path; refuse another copy."""
    sys.path.insert(0, str(SRC))
    import g2forge
    if Path(g2forge.__file__).resolve().parent != SRC / "g2forge":
        sys.exit("error: imported g2forge from %s, not %s"
                 % (g2forge.__file__, SRC))


# ---------------------------------------------------------------------------
# set-up probes
# ---------------------------------------------------------------------------

def probe(name: str, seed: int, trace: bool) -> int:
    """Child side: set up in this fresh interpreter and report the moment."""
    load_program()
    from tracer import Tracer
    from workloads import WORKLOADS

    tracer = Tracer() if trace else None
    layers = WORKLOADS[name](seed).setup(tracer)
    ready = time.monotonic()
    if tracer is not None:
        tracer.uninstall()
        spans = tracer.summarize(0, len(tracer))
        for key in SETUP_LAYERS:
            span, _, kind = key.rpartition(".")
            if not key.startswith("setup."):
                layers[key] = spans.get(span, {}).get(kind, 0.0)
    print(json.dumps({"ready": ready, "layers": layers}))
    return 0


def run_probes(name: str, seed: int, trace: bool
               ) -> Tuple[List[float], List[float], List[Dict]]:
    """Parent side: time each probe from its spawn (CLOCK_MONOTONIC is
    shared by all processes) to the moment it reports ready, and the speed
    kernel just before it."""
    times, references, layers = [], [], []
    for _ in range(SETUP_PROBES):
        references.append(speed.burst())
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", name, "--seed", str(seed), "--trace", str(int(trace))],
            cwd=str(ROOT), capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            sys.exit("error: set-up probe failed:\n%s" % proc.stderr)
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        times.append(report["ready"] - start)
        layers.append(report["layers"])
    return times, references, layers


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

class Pass:
    """Times and verdicts of one pass.  Only the first pass of a run keeps its
    outputs: holding every pass's reports would grow the heap, and with it
    the collector's work inside later passes and the peak RSS.

    ``wall`` and ``cpu`` are as measured, less the speed probe's own time;
    ``reference_s`` is the probe's median kernel time (None when traced)."""

    def __init__(self, wall: float, cpu: float, reference_s: Optional[float],
                 failed: List[bool], outputs: Dict[str, Any],
                 spans: Tuple[int, int]):
        self.wall = wall
        self.cpu = cpu
        self.reference_s = reference_s
        self.failed = failed
        self.outputs = outputs
        self.spans = spans
        self.same = True
        self.n4_draws = (0, 0)
        n4 = outputs.get("obstruction n4")
        if hasattr(n4, "resampled"):
            self.n4_draws = (n4.trials, n4.trials + n4.resampled)


def run_ops(workload, tracer=None) -> Tuple[List[bool], Dict[str, Any]]:
    failed, outputs = [], {}
    for op in workload.ops:
        try:
            if tracer is None:
                bad, out = op.run()
            else:
                with tracer.span("op"):
                    bad, out = op.run()
        except Exception as exc:   # a failed operation; the run goes on
            bad, out = True, "%s: %s" % (type(exc).__name__, exc)
        failed.append(bad)
        outputs[op.label] = out
    return failed, outputs


def run_passes(workload, seconds: float, tracer=None,
               first: Optional[Pass] = None) -> List[Pass]:
    """Whole passes while the next one, taking as long as the last, would
    end within ``seconds`` (at least one).  Untraced passes run under a
    speed probe.  Every pass after ``first`` (or after the first one here)
    is compared with it."""
    passes: List[Pass] = []
    start = time.perf_counter()
    last = 0.0
    while not passes or time.perf_counter() - start + last <= seconds:
        begun = time.perf_counter()
        gc.collect()
        begin = len(tracer) if tracer else 0
        if tracer is None:
            with speed.SpeedProbe() as probe:
                t0, c0 = time.perf_counter(), time.process_time()
                failed, outputs = run_ops(workload)
                wall = time.perf_counter() - t0 - probe.spent_wall
                cpu = time.process_time() - c0 - probe.spent_cpu
            reference_s: Optional[float] = probe.reference_s
        else:
            t0, c0 = time.perf_counter(), time.process_time()
            failed, outputs = run_ops(workload, tracer)
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
            reference_s = None
        p = Pass(wall, cpu, reference_s, failed, outputs,
                 (begin, len(tracer) if tracer else 0))
        if first is None:
            first = p
        else:
            p.same = failed == first.failed and workload.same(first.outputs,
                                                               outputs)
            p.outputs = {}
        passes.append(p)
        last = time.perf_counter() - begun
    return passes


def default_threads(name: str, seed: int) -> int:
    """Child side: a few plain passes with the inherited BLAS threads."""
    load_program()
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed)
    workload.setup()
    walls, cpus = [], []
    for _ in range(DEFAULT_THREAD_PASSES):
        gc.collect()
        t0, c0 = time.perf_counter(), time.process_time()
        run_ops(workload)
        walls.append(time.perf_counter() - t0)
        cpus.append(time.process_time() - c0)
    print(json.dumps({"pass_s": statistics.median(walls),
                      "cpu_s": statistics.median(cpus)}))
    return 0


def run_default_threads(name: str, seed: int) -> Dict[str, float]:
    """Parent side: run ``default_threads`` in the environment this run was
    started with, before OPENBLAS_NUM_THREADS was set."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--default-threads",
         "--workload", name, "--seed", str(seed)],
        cwd=str(ROOT), env=INHERITED_ENV, capture_output=True, text=True,
        timeout=120)
    if proc.returncode != 0:
        sys.exit("error: default-threads child failed:\n%s" % proc.stderr)
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"blas.default_threads.pass_s": report["pass_s"],
            "blas.default_threads.cpu_s": report["cpu_s"]}


def check_passes(workload, passes: List[Pass]) -> List[str]:
    """Full checks on the first pass; later passes must give the same."""
    first = passes[0]
    problems = ["%s raised %s" % (label, out)
                for label, out in first.outputs.items() if isinstance(out, str)]
    if not problems:
        from checks import CheckFailed
        try:
            workload.check(first.outputs)
        except CheckFailed as exc:
            problems.append(str(exc))
        except Exception as exc:   # a malformed output is a wrong output
            problems.append("check raised %s: %s" % (type(exc).__name__, exc))
    problems += ["pass %d differs from pass 1" % i
                 for i, p in enumerate(passes[1:], start=2) if not p.same]
    return problems


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def minimize_hook(extra: Dict[int, Dict[str, float]]):
    """Counts and the end-point lambda of each scipy minimize call.

    lambda is evaluated with the original (unwrapped) sampler methods, after
    the span has closed, so it adds neither calls nor time to any span."""
    from g2forge import catalog
    from g2forge.sampling import StableFormSampler

    sampler = StableFormSampler(catalog.n9_nilsoliton_frame())
    k_matrix = StableFormSampler.__dict__["k_matrix"].__wrapped__

    def hook(index: int, result) -> None:
        k = k_matrix(sampler, sampler.sigma_coeffs(result.x, 1.0))
        lam = float((k @ k).trace()) / 6.0
        extra[index] = {"nfev": result.nfev, "nit": result.nit,
                        "admissible": 1 if lam <= LAMBDA_CUT else 0}
    return hook


def layer_metrics(tracer, extra, p: Pass) -> Dict[str, float]:
    spans = tracer.summarize(*p.spans)
    out: Dict[str, float] = {}
    for key, _ in PER_LAYER:
        span, _, kind = key.rpartition(".")
        if kind in ("calls", "self_s", "failed") and key not in SETUP_LAYERS:
            out[key] = spans.get(span, {}).get(kind, 0)
    mins = [extra[i] for i in range(*p.spans) if i in extra]
    out["scipy.optimize.minimize.nfev"] = sum(m["nfev"] for m in mins)
    out["scipy.optimize.minimize.nit"] = sum(m["nit"] for m in mins)
    out["survey.n9.starts"] = len(mins)
    out["survey.n9.admissible_start_ratio"] = (
        sum(m["admissible"] for m in mins) / len(mins) if mins else 0.0)
    trials, draws = p.n4_draws
    out["survey.n4.draws"] = draws
    out["survey.n4.accepted_draw_ratio"] = trials / draws if draws else 0.0
    return out


def median_of(rows: List[Dict[str, float]], key: str) -> float:
    return statistics.median(r.get(key, 0.0) for r in rows) if rows else 0.0


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

def provenance() -> Dict[str, Any]:
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "machine": platform.machine()}


def run(name: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    setup_times, setup_refs, probe_layers = run_probes(name, seed, trace)
    load_program()
    from tracer import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed)
    workload.setup()
    if not trace:
        passes = run_passes(workload, seconds)
        traced: List[Pass] = []
    else:
        passes = run_passes(workload, seconds / 3.0)
        tracer, extra = Tracer(), {}
        tracer.install()
        tracer.after["scipy.optimize.minimize"] = minimize_hook(extra)
        try:
            traced = run_passes(workload, seconds - seconds / 3.0, tracer,
                                first=passes[0])
        finally:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    everything = passes + traced
    problems = check_passes(workload, everything)
    attempted = sum(len(p.failed) for p in everything)
    failed = sum(sum(p.failed) for p in everything)
    untraced_s = statistics.median(p.wall for p in passes)
    if not trace:
        metrics = {"pass_s": statistics.median(
                       speed.scaled(p.wall, p.reference_s) for p in passes),
                   "cpu_s": statistics.median(
                       speed.scaled(p.cpu, p.reference_s) for p in passes),
                   "setup_s": statistics.median(
                       speed.scaled(t, r) for t, r in zip(setup_times,
                                                          setup_refs)),
                   "peak_rss_mb": peak_rss_mb}
        units = dict(END_TO_END)
    else:
        rows = [layer_metrics(tracer, extra, p) for p in traced]
        traced_s = statistics.median(p.wall for p in traced)
        metrics = {}
        for key, _ in PER_LAYER:
            metrics[key] = median_of(probe_layers if key in SETUP_LAYERS
                                     else rows, key)
        metrics["trace.untraced_pass_s"] = untraced_s
        metrics["trace.traced_pass_s"] = traced_s
        metrics["trace.overhead_s"] = traced_s - untraced_s
        metrics["speed.reference_ms"] = 1e3 * statistics.median(
            p.reference_s for p in passes)
        if workload.uses_blas:
            metrics.update(run_default_threads(name, seed))
        units = dict(PER_LAYER)
        RESULTS.mkdir(exist_ok=True)
        with open(RESULTS / ("spans-%s-seed%d.json" % (name, seed)), "w") as fh:
            json.dump(tracer.dump(), fh)
    result = {"correct": not problems, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in metrics.items()}}
    details = dict(result, workload=name, seed=seed, seconds=seconds,
                   trace=trace, problems=problems,
                   failed_ops=[op.label for op, bad in
                               zip(workload.ops, passes[0].failed) if bad],
                   pass_wall_s=[p.wall for p in passes],
                   pass_cpu_s=[p.cpu for p in passes],
                   pass_reference_s=[p.reference_s for p in passes],
                   traced_pass_wall_s=[p.wall for p in traced],
                   setup_probe_s=setup_times, setup_reference_s=setup_refs,
                   provenance=provenance())
    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / ("%s-seed%d-trace%d.json" % (name, seed, trace)),
              "w") as fh:
        json.dump(details, fh, indent=1)
    for problem in problems:
        print("CHECK FAILED: %s" % problem)
    return result


def run_all(seed: int, seconds: float) -> Dict[str, Any]:
    """Every workload, untraced and traced, each run in its own process."""
    from workloads import WORKLOADS

    combined: Dict[str, Any] = {"correct": True, "attempted": 0, "failed": 0,
                                "metrics": {}}
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload",
                 name, "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(trace)],
                cwd=str(ROOT), env=INHERITED_ENV, capture_output=True,
                text=True, timeout=900)
            if proc.returncode != 0:
                sys.exit("error: %s run failed:\n%s" % (name, proc.stderr))
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            combined["correct"] = combined["correct"] and result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for key, m in result["metrics"].items():
                combined["metrics"]["%s/%s" % (name, key)] = m
                print("%-9s %-48s %14.6g %s" % (name, key, m["value"],
                                                  m["unit"]))
            print("%-9s attempted %d failed %d correct %s"
                  % (name, result["attempted"], result["failed"],
                     result["correct"]))
    return combined


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("catalog", "twisted", "samplers", "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--default-threads", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "g2forge" / "__init__.py").is_file():
        print("error: %s/g2forge not found; run from a g2forge source "
              "checkout" % SRC, file=sys.stderr)
        return 2
    if args.default_threads:
        return default_threads(args.workload, args.seed)
    # Capped before anything imports numpy or scipy; set-up probes inherit
    # it, the default-threads child does not.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    if args.setup_probe:
        return probe(args.workload, args.seed, bool(args.trace))
    if args.workload == "all":
        result = run_all(args.seed, args.seconds)
    else:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
        for key, m in result["metrics"].items():
            print("%-48s %14.6g %s" % (key, m["value"], m["unit"]))
        print("attempted %d failed %d correct %s"
              % (result["attempted"], result["failed"], result["correct"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
