"""The three workloads: their set-up, one pass of operations, and the checks.

A pass is a fixed list of operations.  Each operation calls the program's
public entry points (``cli.main`` in-process with JSON output, or the
``survey`` functions ``cli.cmd_obstruction`` calls) and returns
``(failed, output)``.  ``failed`` marks the faults the program has today
(see README.md); every other exception or non-zero exit also counts as a
failed operation and makes the checks fail.
"""
from __future__ import annotations

import contextlib
import io
import json
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

import checks
import twist

SUITES = ("table1", "coupled_n28", "coupled_n9", "einstein_extension",
          "lcp_extension")
RINGS = ("exact", "float")

# samplers: trials of the n4 null-vector sampler per pass, drawn from --seed
N4_TRIALS = 100
# The n9 search runs a fixed set of starts.  Its cost per start varies with a
# coefficient of variation near 2 (some L-BFGS-B starts run to the iteration
# cap), so a seed-dependent set of starts would move pass_s by tens of
# percent from one seed to the next; --seed drives the n4 sampler instead.
N9_STARTS = 10
N9_SEED = 1


class Op:
    def __init__(self, label: str, run: Callable[[], Tuple[bool, Any]]):
        self.label = label
        self.run = run


def cli_json(argv: List[str]) -> Tuple[int, Optional[dict]]:
    """Run ``g2forge <argv>`` in this process; exit code and parsed report."""
    from g2forge import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    text = buf.getvalue()
    return rc, json.loads(text) if text.strip() else None


def cli_op(label: str, argv: List[str],
           fault: Optional[Callable[[dict], bool]] = None) -> Op:
    def run():
        rc, report = cli_json(argv)
        failed = rc != 0 or report is None or (
            fault is not None and fault(report["results"]))
        return failed, (rc, report)
    return Op(label, run)


class Workload:
    name = ""
    needs_scipy = False
    uses_blas = False   # float numpy/scipy work that OpenBLAS may thread

    def __init__(self, seed: int):
        self.seed = seed
        self.ops: List[Op] = []

    def setup(self, tracer=None) -> Dict[str, float]:
        """Imports and inputs; returns the import times of the set-up layers.

        With a tracer, its wrappers go in after the imports, so that the
        construction of the inputs is traced."""
        import numpy  # noqa: F401
        t0 = time.perf_counter()
        import g2forge.cli  # noqa: F401  (imports every layer)
        t1 = time.perf_counter()
        if self.needs_scipy:
            import scipy.linalg  # noqa: F401
            import scipy.optimize  # noqa: F401
        t2 = time.perf_counter()
        if tracer is not None:
            tracer.install()
        self.build()
        return {"setup.import_g2forge_s": t1 - t0,
                "setup.import_scipy_s": t2 - t1}

    def build(self) -> None:
        raise NotImplementedError

    def check(self, outputs: Dict[str, Any]) -> None:
        """Raise checks.CheckFailed on the first wrong output of a pass."""
        raise NotImplementedError

    def same(self, first: Any, later: Any) -> bool:
        return first == later


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

class Catalog(Workload):
    """Every reproduce-paper suite but obstructions, and metric analyze on
    the 24 nilpotent algebras, each in both rings."""

    name = "catalog"

    def build(self) -> None:
        from g2forge import catalog

        self.names = list(catalog.NILPOTENT6)
        # built here so that setup_s covers the catalog inputs; each command
        # builds its own again
        self.inputs = [catalog.algebra(n) for n in catalog.names()]
        self.inputs += [catalog.n28_coupled_pair(), catalog.n9_coupled_pair(),
                        catalog.n28_ext_g2_form(), catalog.abelian_ext_g2_form()]
        self.structures = dict(catalog.NILPOTENT6)
        seed = ["--seed", str(self.seed), "--format", "json"]
        self.ops = []
        for ring in RINGS:
            for suite in SUITES:
                self.ops.append(cli_op(
                    "reproduce %s %s" % (suite, ring),
                    ["--ring", ring] + seed + ["reproduce-paper", "--only", suite]))
            for name in self.names:
                self.ops.append(cli_op(
                    "metric %s %s" % (name, ring),
                    ["--ring", ring] + seed + ["metric", "analyze", name]))

    def check(self, outputs: Dict[str, Any]) -> None:
        payloads: Dict[Tuple[str, str], Dict[str, Any]] = {}
        for ring in RINGS:
            for suite in SUITES:
                rc, report = outputs["reproduce %s %s" % (suite, ring)]
                checks.require(rc == 0, "reproduce-paper --only %s --ring %s "
                               "exited %d" % (suite, ring, rc))
                payloads[suite, ring] = {
                    c["name"].split(".", 1)[1]: c["computed"]
                    for c in report["checks"]}
        for suite in SUITES:
            checks.check_rings_agree(payloads[suite, "exact"],
                                     payloads[suite, "float"], suite)
        for name in self.names:
            results = {ring: outputs["metric %s %s" % (name, ring)][1]["results"]
                       for ring in RINGS}
            checks.check_rings_agree(results["exact"], results["float"],
                                     "metric analyze %s" % name)
            for ring in RINGS:
                checks.check_identity_scal(self.structures[name],
                                           results[ring]["scal"])
        self.check_table1(payloads["table1", "exact"])
        for ring in RINGS:
            checks.check_extension_scal("einstein_extension",
                                        payloads["einstein_extension", ring])
        checks.check_extension_scal("lcp_extension",
                                    payloads["lcp_extension", "exact"])

    @staticmethod
    def check_table1(payload: Dict[str, Any]) -> None:
        """Partition 21/1/2; each certificate from survey.build_table, which
        the payload does not carry, re-verified here."""
        from g2forge import survey

        checks.check_partition(payload["partition"])
        counts: Dict[str, int] = {}
        for row in payload["rows"]:
            counts[row["sign"]] = counts.get(row["sign"], 0) + 1
        checks.require(all(counts.get(k, 0) == v
                           for k, v in payload["partition"].items()),
                       "table1 rows %s disagree with the partition" % counts)
        rows = survey.build_table()
        checks.require([str(r.lambda_poly) for r in rows]
                       == [r["lambda"] for r in payload["rows"]],
                       "survey.build_table disagrees with the table1 payload")
        for row in rows:
            cert, lam = row.certificate, str(row.lambda_poly)
            if cert.kind == "scaled_square":
                checks.check_square_certificate(lam, cert.factor,
                                                str(cert.root))
                want = "nonneg" if cert.factor > 0 else "nonpos"
                checks.require(row.sign_class == want, "%s: sign %s with "
                               "factor %s" % (row.algebra_name, row.sign_class,
                                              cert.factor))
            elif cert.kind == "witness_pair":
                checks.check_witness_pair(lam, cert.positive_witness,
                                          cert.negative_witness)
                checks.require(row.sign_class == "indefinite",
                               "%s: witnesses but sign %s"
                               % (row.algebra_name, row.sign_class))
            else:
                checks.require(lam == "0" and row.sign_class == "zero",
                               "%s: zero certificate on %s"
                               % (row.algebra_name, lam))


# ---------------------------------------------------------------------------
# twisted
# ---------------------------------------------------------------------------

def star_ricci_missing(results: dict) -> bool:
    """Fault (a): star-Ricci refused on a non-identity metric."""
    return results.get("star_ricci") is None


def not_positive(results: dict) -> bool:
    """Fault (b): the exact ring reports twice a positive form as not positive."""
    return results.get("positive") is not True


class Twisted(Workload):
    """The commands of ``catalog`` on catalog structures pulled back by a
    fixed dense unimodular change of coframe, in the exact ring."""

    name = "twisted"

    def build(self) -> None:
        from g2forge import catalog
        from g2forge.exterior import render_form
        from g2forge.liealg import (parse_structure_equations,
                                    render_structure_equations)

        self.t7, self.t6 = twist.Twist(twist.P7), twist.Twist(twist.P6)
        ext = twist.parse_structure(
            render_structure_equations(catalog.algebra("n28_ext")))
        self.phi = render_form(catalog.n28_ext_g2_form())
        omega, sigma = (render_form(f) for f in catalog.n28_coupled_pair())
        self.n28 = catalog.NILPOTENT6["n28"]
        s7 = twist.render_structure(self.t7.structure(ext))
        p7 = twist.render(self.t7.form(twist.parse(self.phi)))
        s6 = twist.render_structure(
            self.t6.structure(twist.parse_structure(self.n28)))
        g6 = twist.render_metric(self.t6.metric(
            [[int(i == j) for j in range(6)] for i in range(6)]))
        om6 = twist.render(self.t6.form(twist.parse(omega)))
        sg6 = twist.render(self.t6.form(twist.parse(sigma)))
        phi2 = twist.render({k: 2 * v for k, v in twist.parse(self.phi).items()})
        # the program's own reading of the twisted inputs (Jacobi-checked)
        self.inputs = [parse_structure_equations(s7),
                       parse_structure_equations(s6)]
        common = ["--seed", str(self.seed), "--format", "json"]
        self.ops = [
            cli_op("g2 analyze twisted n28_ext",
                   common + ["g2", "analyze", s7, "--phi=" + p7],
                   fault=star_ricci_missing),
            cli_op("metric analyze twisted n28",
                   common + ["metric", "analyze", s6, "--metric=" + g6]),
            cli_op("su3 check twisted n28",
                   common + ["su3", "check", s6, "--omega=" + om6,
                             "--sigma=" + sg6]),
            cli_op("g2 analyze 2phi n28_ext",
                   common + ["g2", "analyze", "n28_ext", "--phi=" + phi2],
                   fault=not_positive),
        ]
        self.references = [
            ["--format", "json", "g2", "analyze", "n28_ext", "--phi=" + self.phi],
            ["--format", "json", "metric", "analyze", "n28"],
            ["--format", "json", "su3", "check", "n28", "--omega=" + omega,
             "--sigma=" + sigma],
        ]

    def check(self, outputs: Dict[str, Any]) -> None:
        refs = []
        for argv in self.references:
            rc, report = cli_json(argv)
            checks.require(rc == 0, "catalog reference %s exited %d"
                           % (argv[2:4], rc))
            refs.append(report["results"])
        g2_ref, metric_ref, su3_ref = refs
        # the catalog phi is the standard form: its metric is the identity
        checks.require(checks.matrix(g2_ref["metric"])
                       == [[int(i == j) for j in range(7)] for i in range(7)],
                       "catalog n28_ext phi does not induce the identity")
        rc, report = outputs["g2 analyze twisted n28_ext"]
        checks.require(rc == 0, "g2 analyze on the twisted input exited %d" % rc)
        checks.check_twisted_g2(report["results"], g2_ref, self.t7)
        rc, report = outputs["metric analyze twisted n28"]
        checks.require(rc == 0, "metric analyze on twisted n28 exited %d" % rc)
        checks.check_twisted_metric(report["results"], metric_ref, self.n28)
        rc, report = outputs["su3 check twisted n28"]
        checks.require(rc == 0, "su3 check on twisted n28 exited %d" % rc)
        checks.check_twisted_su3(report["results"], su3_ref)


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

class Samplers(Workload):
    """The n4 null-vector sampler and the n9 isotropy search (soliton frame)."""

    name = "samplers"
    needs_scipy = True
    uses_blas = True

    def build(self) -> None:
        from g2forge import catalog, survey
        from g2forge.liealg import to_float_algebra
        from g2forge.sampling import StableFormSampler

        # built here so that setup_s covers the sampler tensors; each
        # sampler call builds its own again
        self.samplers = [StableFormSampler(catalog.algebra("n4")),
                         StableFormSampler(catalog.n9_nilsoliton_frame())]
        self.n4_float = to_float_algebra(catalog.algebra("n4"))
        seed = self.seed

        def n4():
            return False, survey.n4_obstruction_sample(N4_TRIALS, seed)

        def n9():
            return False, survey.n9_nilsoliton_obstruction_sample(
                N9_STARTS, N9_SEED)

        self.ops = [Op("obstruction n4", n4), Op("obstruction n9", n9)]

    def check(self, outputs: Dict[str, Any]) -> None:
        self.check_summary(outputs)
        for trial in outputs["obstruction n4"].trials_detail:
            h = checks.n4_metric(trial.seed_b, trial.coupling, self.n4_float)
            checks.check_null(h, checks.null_vector(trial.seed_b))

    @staticmethod
    def check_summary(outputs: Dict[str, Any]) -> None:
        n4, n9 = outputs["obstruction n4"], outputs["obstruction n9"]
        checks.require(n4.trials == N4_TRIALS and n4.confirmed == N4_TRIALS,
                       "n4: %d of %d trials confirmed" % (n4.confirmed,
                                                          n4.trials))
        checks.require(len(n4.trials_detail) == N4_TRIALS,
                       "n4: trial details missing")
        checks.require(n9.starts == N9_STARTS and n9.claimed,
                       "n9: %d starts run" % n9.starts)
        checks.require(not n9.feasible_found,
                       "n9: a feasible point was reported")

    def same(self, first: Any, later: Any) -> bool:
        # float results may differ in the last bits from pass to pass; the
        # verdicts may not
        try:
            self.check_summary(later)
        except checks.CheckFailed:
            return False
        return True


WORKLOADS = {w.name: w for w in (Catalog, Twisted, Samplers)}
