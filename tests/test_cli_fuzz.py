"""Generated command lines and scenario files: `main` always returns one of
the documented exit codes (0-3), and no exception escapes it but argparse's
own usage error."""
import contextlib
import io

from fractions import Fraction

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from g2forge import catalog
from g2forge.cli import main
from g2forge.exterior import render_form

ALGEBRAS = st.sampled_from([
    "n28", "n4", "n9", "n28_ext", "abelian_ext", "no_such_name",
    "(0,0,0,0,e13-e24,e14+e23)", "(0,0,e12,e13,e23,e14)", "(0,0,0,0,0,0,0)",
    "(a*e17,a*e27,a*e37,a*e47,a*e57,a*e67,0)", "(0.5*e23,0,0)", "(e12,0)",
    "(0,0,e12", ""])

TERM = st.tuples(
    st.sampled_from(["+", "-"]),
    st.sampled_from(["", "2*", "1/2*", "0.5*", "a*", "b1*", "1/0*", "1e400*"]),
    st.lists(st.integers(1, 8), min_size=1, max_size=4).map(
        lambda idx: "e" + "".join(map(str, idx)))).map("".join)
FORMS = st.one_of(st.lists(TERM, min_size=1, max_size=5).map("".join),
                  st.text(alphabet="e0123456789+-*/(). a", max_size=12))

CELLS = st.sampled_from(["0", "0", "0", "1", "1/2", "-1", "0.5", "1/0", "x",
                         "1e400", "nan", "", "3/"])
DIAGONAL = st.sampled_from(["1", "1", "2", "1/3", "0.5", "-1", "0"])
# the catalog's 3-forms on their algebras, and the standard phi on the
# generic-torsion algebra
G2_INPUTS = st.sampled_from([
    ("n28_ext", catalog.n28_ext_g2_form()),
    ("abelian_ext", catalog.abelian_ext_g2_form()),
    ("(0,0,0,0,e12,e13,e14+e23)", catalog.standard_g2_form())])


@st.composite
def metrics(draw):
    n = draw(st.sampled_from([2, 6, 7]))
    rows = [[draw(DIAGONAL) if i == j else draw(CELLS) for j in range(n)]
            for i in range(n)]
    return ";".join(",".join(row) for row in rows)


METRICS = st.one_of(st.just("identity"), metrics())
GLOBAL = st.tuples(st.sampled_from(["exact", "float"]),
                   st.sampled_from(["json", "text", "md"]),
                   st.sampled_from(["1e-10", "0", "1e-3"])).map(
    lambda t: ["--ring", t[0], "--format", t[1], "--tol", t[2]])
COMMANDS = st.one_of(
    st.tuples(st.just("algebra"), st.sampled_from(["list", "show"]),
              ALGEBRAS).map(list),
    st.tuples(ALGEBRAS, FORMS, FORMS).map(
        lambda t: ["su3", "check", t[0], "--omega=" + t[1],
                   "--sigma=" + t[2]]),
    st.tuples(ALGEBRAS, METRICS).map(
        lambda t: ["metric", "analyze", t[0], "--metric=" + t[1]]),
    st.tuples(ALGEBRAS, FORMS).map(
        lambda t: ["g2", "analyze", t[0], "--phi=" + t[1]]),
    st.integers(-2, 3).map(
        lambda n: ["obstruction", "n4", "--trials", str(n)]),
    st.sampled_from([["check", "/nonexistent/scenario.txt"], ["frobnicate"],
                     ["su3", "check", "n28"], []]))


@st.composite
def scenarios(draw):
    sections = ["[algebra]\n" + draw(ALGEBRAS)]
    if draw(st.booleans()):
        sections.append("[metric]\n" + draw(METRICS).replace(";", "\n"))
    forms = ["%s = %s" % (name, draw(FORMS))
             for name in ("omega", "sigma", "phi") if draw(st.booleans())]
    sections.append("[forms]\n" + "\n".join(forms))
    analyses = draw(st.lists(st.sampled_from(
        ["su3", "g2", "ricci", "einstein", "nilsoliton", "bogus"]),
        max_size=3))
    sections.append("[analyses]\n" + "\n".join(analyses))
    sections = draw(st.permutations(sections))
    junk = draw(st.sampled_from(["", "", "", "junk", "[weird]", "omega e12"]))
    return "\n".join(sections) + "\n" + junk


def exit_code(argv):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:       # argparse's usage error
            assert exc.code == 2
            return 2


FUZZ = settings(max_examples=60, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


@FUZZ
@given(flags=GLOBAL, command=COMMANDS)
def test_cli_argv_exits_with_a_documented_code(flags, command):
    assert exit_code(flags + command) in (0, 1, 2, 3)


@FUZZ
@given(flags=GLOBAL, text=scenarios())
def test_scenario_text_exits_with_a_documented_code(tmp_path_factory, flags,
                                                    text):
    path = tmp_path_factory.mktemp("scenario") / "scenario.txt"
    path.write_text(text)
    assert exit_code(flags + ["check", str(path)]) in (0, 1, 2, 3)


@FUZZ
@given(ring=st.sampled_from(["exact", "float"]), case=G2_INPUTS,
       k=st.integers(-5, 30))
@example(ring="exact", case=("n28_ext", catalog.n28_ext_g2_form()), k=15)
@example(ring="exact", case=("n28_ext", catalog.n28_ext_g2_form()), k=19)
@example(ring="float", case=("n28_ext", catalog.n28_ext_g2_form()), k=19)
def test_g2_analyze_on_scaled_catalog_phi_exits_with_a_documented_code(
        ring, case, k):
    """10^k phi, written as exact rationals: the exact 9th root of a large
    det B, a det B past the float range and its tolerance end in a
    documented code."""
    algebra, phi = case
    phi = render_form(phi * Fraction(10) ** k)
    assert exit_code(["--ring", ring, "g2", "analyze", algebra,
                      "--phi=" + phi]) in (0, 1, 2, 3)
