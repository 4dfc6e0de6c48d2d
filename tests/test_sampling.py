import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from g2forge import catalog
from g2forge.exterior import KForm, wedge
from g2forge.sampling import PAIRS, TRIPLES, StableFormSampler, _tables
from g2forge.stable_forms import (NotStableError, k_endomorphism,
                                  lambda_invariant, metric_from_pair,
                                  omega_cubed, orientation_sign)
from g2forge.survey import (N9_LAMBDA_CUT, N9_RESIDUAL_TOL,
                            _isotropy_search, _isotropy_terms,
                            draw_admissible_coefficients, generic_form,
                            n4_obstruction_sample,
                            n9_nilsoliton_obstruction_sample)

rationals = st.fractions(min_value=-2, max_value=2, max_denominator=2)


@given(st.lists(rationals, min_size=15, max_size=15),
       rationals.filter(lambda c: c != 0))
@settings(max_examples=20, deadline=None)
def test_numeric_lambda_agrees_with_exact(b_frac, c):
    # dual-route check: tensor evaluation vs exact forms, lambda and then K
    # and omega ^ sigma entry by entry, which see a sign lambda cannot
    algebra = catalog.algebra("n4")
    sampler = StableFormSampler(algebra)
    omega = KForm(6, 2, dict(zip(PAIRS, b_frac)))
    sigma = Fraction(c) * algebra.d(omega)
    exact = float(lambda_invariant(sigma))
    b = np.array([float(x) for x in b_frac])
    fast = sampler.lambda_of(b, float(c))
    assert abs(exact - fast) <= 1e-9 * max(1.0, abs(exact))
    k_exact = np.array([[float(x) for x in row]
                        for row in k_endomorphism(sigma)])
    k_fast = sampler.k_matrix(sampler.sigma_coeffs(b, float(c)))
    assert np.abs(k_fast - k_exact).max() <= 1e-9 * max(
        1.0, np.abs(k_exact).max())
    five = wedge(omega, sigma)
    v_exact = np.array([float(five[tuple(i for i in range(1, 7) if i != m)])
                        for m in range(1, 7)])
    v_fast = sampler.compat(b, float(c))[0]
    assert np.abs(v_fast - v_exact).max() <= 1e-9 * max(
        1.0, np.abs(v_exact).max())


def polynomial_terms(p):
    """(0-based positions of its variables, coefficient) for each term of a
    polynomial in the coefficients of ``generic_form``; a square lists its
    variable twice, and the exact zero, a Fraction, has no terms."""
    for mono, coeff in getattr(p, "terms", {}).items():
        yield (tuple(int(v[1:]) - 1 for v, e in mono for _ in range(e)),
               float(coeff))


def polynomial_tables():
    """The reference: the sampler's tables read off K, omega ^ sigma and
    omega^3 computed on the generic forms as polynomials."""
    omega, sigma = generic_form(2, "b"), generic_form(3, "s")
    k = np.zeros((6, 6, len(TRIPLES), len(TRIPLES)))
    for m, row in enumerate(k_endomorphism(sigma)):
        for j, entry in enumerate(row):
            for pos, coeff in polynomial_terms(entry):
                k[(m, j) + pos] = coeff
    u = np.zeros((6, len(PAIRS), len(TRIPLES)))
    for idx, entry in wedge(omega, sigma).items():
        (missing,) = set(range(1, 7)) - set(idx)
        for pos, coeff in polynomial_terms(entry):
            u[(missing - 1,) + pos] = coeff
    # omega^3 = 3! Pf(omega) e^123456
    pf = sorted(polynomial_terms(omega_cubed(omega)[tuple(range(1, 7))]))
    index = np.array([pos for pos, _ in pf])
    sign = np.array([coeff / 6 for _, coeff in pf])
    return k, u, index, sign


def test_tables_from_index_tables_equal_the_polynomial_ones():
    new, reference = _tables(), polynomial_tables()
    for a, b in zip(new, reference):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    # negative control: one K entry moved to the transposed monomial
    k = new[0].copy()
    m, j, a, b = np.argwhere(k)[0]
    k[m, j, b, a], k[m, j, a, b] = k[m, j, a, b], 0.0
    assert not np.array_equal(k, reference[0])


def test_numeric_j_and_h_agree_with_exact_on_n28():
    sampler = StableFormSampler(catalog.algebra("n28"))
    omega, sigma = catalog.n28_coupled_pair()
    b = np.zeros(15)
    for i, p in enumerate(PAIRS):
        coeff = omega.coeffs.get(p)
        if coeff is not None:
            b[i] = float(coeff)
    j = sampler.j_matrix(b, -1.0)
    pair = metric_from_pair(omega, sigma)
    j_exact = np.array([[float(x) for x in row] for row in pair.J])
    assert np.abs(j - j_exact).max() < 1e-12
    h = sampler.metric_of(b, j)
    assert np.abs(h - np.eye(6)).max() < 1e-12


def test_draws_respect_admissibility():
    from random import Random
    rng = Random(3)
    for _ in range(200):
        b, c, _ = draw_admissible_coefficients(rng)
        assert c != 0
        assert b[14] != 0
        assert b[14] * (b[11] + b[12]) > b[13] ** 2


def fraction_draws(rng, denominator_first=False):
    # the Fraction rejection loop that the integer draws replaced: 16
    # Fractions per attempt, numerator before denominator, b1..b15 then c
    def draw():
        if denominator_first:
            q = rng.randint(1, 4)
            return Fraction(rng.randint(-6, 6), q)
        return Fraction(rng.randint(-6, 6), rng.randint(1, 4))

    rejected = 0
    while True:
        b = [draw() for _ in range(15)]
        c = draw()
        if c == 0 or b[14] == 0 or not b[14] * (b[11] + b[12]) > b[13] ** 2:
            rejected += 1
            continue
        return b, c, rejected


def draw_stream(draw, seed, n=2000):
    from random import Random
    rng = Random(seed)
    return [draw(rng) for _ in range(n)], rng.getstate()


@pytest.mark.parametrize("seed", [1, 11, 29])
def test_integer_draws_keep_the_fraction_stream(seed):
    new, new_state = draw_stream(draw_admissible_coefficients, seed)
    old, old_state = draw_stream(fraction_draws, seed)
    assert new == old
    assert all(type(x) is Fraction for b, c, _ in new for x in b + [c])
    assert new_state == old_state
    # negative control: the same law drawn in another order is another stream
    swapped, swapped_state = draw_stream(
        lambda rng: fraction_draws(rng, denominator_first=True), seed)
    assert swapped != new and swapped_state != new_state


def report_digest(report):
    # resampled, then every float of every trial as float.hex, one line each
    h = hashlib.sha256(b"%d\n" % report.resampled)
    for t in report.trials_detail:
        floats = t.seed_b + (t.coupling, t.lambda_value, t.one_one_residual,
                             t.null_value, t.min_eigenvalue)
        h.update(" ".join(float.hex(x) for x in floats).encode() + b"\n")
    return h.hexdigest()


# n4_obstruction_sample(100, seed) as the Fraction draws and the full
# pivoted QR gave it: any change to the draw stream or the Newton loop shows
N4_REPORT_DIGESTS = {
    1: "bcf9c27240514005212d06493ec1f85b37e3398db1571e651fb21504644b8b6c",
    11: "cc55be9fb7a3df20dd2d608580ebab9e1a3fb1f49928c579b9274b8e385bfe9a",
}


@pytest.mark.parametrize("seed", sorted(N4_REPORT_DIGESTS))
def test_n4_reports_are_pinned(seed):
    assert report_digest(n4_obstruction_sample(100, seed)) \
        == N4_REPORT_DIGESTS[seed]


def test_n4_sampler_confirms_null_vector():
    report = n4_obstruction_sample(trials=25, seed=11)
    assert report.all_confirmed
    assert report.max_null_value <= 1e-9
    assert report.max_one_one_residual <= 1e-9
    for trial in report.trials_detail:
        assert trial.lambda_value < 0
        assert trial.min_eigenvalue <= 1e-9


def test_n4_sampler_zero_trials():
    report = n4_obstruction_sample(trials=0, seed=1)
    assert report.all_confirmed and report.trials == 0


def test_n9_search_smoke():
    report = n9_nilsoliton_obstruction_sample(starts=5, seed=3)
    assert not report.feasible_found
    assert report.best_residual > N9_RESIDUAL_TOL


def test_n9_search_runs_on_the_catalog_n9_with_target_g0(monkeypatch):
    from g2forge import survey
    seen = []

    def spy(sampler, target):
        seen.append((sampler.algebra, target))
        return _isotropy_terms(sampler, target)

    monkeypatch.setattr(survey, "_isotropy_terms", spy)
    for frame in ("nilsoliton", "standard"):
        n9_nilsoliton_obstruction_sample(starts=1, seed=1, frame=frame)
    (nilsoliton, g0), (standard, identity) = seen
    assert nilsoliton is standard is catalog.algebra("n9")
    assert np.array_equal(g0, G0) and np.array_equal(identity, np.eye(6))


def test_n9_zero_starts_vacuous():
    report = n9_nilsoliton_obstruction_sample(starts=0, seed=1)
    assert not report.feasible_found
    assert math.isinf(report.best_residual)


def test_n9_control_frame_reports_only():
    report = n9_nilsoliton_obstruction_sample(starts=3, seed=5,
                                              frame="standard")
    assert report.claimed is False
    assert report.starts == 3


def test_n9_best_residual_is_over_admissible_end_points():
    report = n9_nilsoliton_obstruction_sample(starts=20, seed=1)
    assert len(report.starts_detail) == report.starts == 20
    below = [d for d in report.starts_detail
             if d.lambda_value <= N9_LAMBDA_CUT]
    assert below
    assert report.best_residual == min(d.residual for d in below)
    assert report.best_lambda <= N9_LAMBDA_CUT
    assert report.best_objective <= report.best_residual \
        + (report.best_lambda + 1.0) ** 2
    for d in report.starts_detail:
        assert d.nfev >= 1 and d.nit >= 0
        assert math.isinf(d.residual) == (d.lambda_value >= -1e-14)


def loop_pullback_matrix(j):
    """The reference: one entry of omega -> omega(J., J.) at a time."""
    m = np.zeros((15, 15))
    for row, (p, q) in enumerate(PAIRS):
        for col, (k, l) in enumerate(PAIRS):
            m[row, col] = (j[k - 1, p - 1] * j[l - 1, q - 1]
                           - j[k - 1, q - 1] * j[l - 1, p - 1])
    return m


def test_pullback_matrix_is_the_loop_bit_for_bit():
    sampler = StableFormSampler(catalog.algebra("n4"))
    rng = np.random.default_rng(4)
    for _ in range(20):
        j = rng.standard_normal((6, 6))
        assert np.array_equal(sampler.pullback_matrix(j),
                              loop_pullback_matrix(j))


@given(st.lists(rationals, min_size=15, max_size=15))
@settings(max_examples=40, deadline=None)
def test_orientation_sign_agrees_with_exact(b_frac):
    # the sign of the Pfaffian from the matchings vs omega^3 in exact forms
    try:
        exact = orientation_sign(KForm(6, 2, dict(zip(PAIRS, b_frac))))
    except NotStableError:
        return
    sampler = StableFormSampler(catalog.algebra("n4"))
    b = np.array([float(x) for x in b_frac])
    assert sampler.orientation_sign(b) == exact
    om = sampler.omega_matrix(b)
    assert np.array_equal(om, -om.T)
    assert [om[p - 1, q - 1] for p, q in PAIRS] == list(b)


# -- the exact gradient of the n9 search objective ------------------------------

GRADIENT_TOL = 1e-6   # central differences with step 1e-6 reach ~1e-7
G0 = np.diag([float(x) for x in catalog.N9_SOLITON_METRIC])
# (algebra, target): the float soliton frame with the identity, n9 with the
# identity, and n9 with its nilsoliton metric g0, the target of the search
FRAMES = {"nilsoliton": (catalog.n9_nilsoliton_frame, np.eye(6)),
          "standard": (lambda: catalog.algebra("n9"), np.eye(6)),
          "soliton_metric": (lambda: catalog.algebra("n9"), G0)}


def gradient_error(terms, b, step=1e-6):
    """Relative distance of the returned gradient from central differences."""
    _, grad, _, _ = terms(b)
    fd = np.array([(terms(b + step * e)[0] - terms(b - step * e)[0])
                   / (2 * step) for e in np.eye(15)])
    return float(np.linalg.norm(fd - grad) / max(1.0, np.linalg.norm(grad)))


def points(sampler, branch, count=8, seed=6):
    """Random b with lambda < 0 (admissible) or lambda > 0 (not)."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        b = rng.uniform(-1.5, 1.5, 15)
        if (sampler.lambda_of(b) < -1e-3) == (branch == "admissible"):
            out.append(b)
    return out


@pytest.mark.parametrize("frame", sorted(FRAMES))
@pytest.mark.parametrize("branch", ["admissible", "degenerate"])
def test_isotropy_gradient_matches_central_differences(frame, branch):
    algebra, target = FRAMES[frame]
    sampler = StableFormSampler(algebra())
    terms = _isotropy_terms(sampler, target)
    for b in points(sampler, branch):
        lam = terms(b)[2]
        assert (lam < -1e-14) == (branch == "admissible")
        assert gradient_error(terms, b) <= GRADIENT_TOL


def test_gradient_check_catches_a_dropped_term():
    # negative control: the gradient without its |omega ^ sigma|^2 term
    sampler = StableFormSampler(catalog.algebra("n9"))
    terms = _isotropy_terms(sampler, G0)

    def dropped(b):
        value, grad, lam, resid = terms(b)
        v, dv = sampler.compat(b)
        return value, grad - 2.0 * (v @ dv), lam, resid

    errors = [gradient_error(dropped, b)
              for b in points(sampler, "admissible")]
    assert min(errors) > GRADIENT_TOL


def n9_pair_at_unit_lambda():
    """The catalog n9 pair's omega coefficients scaled to lambda(d omega)
    = -1, and the metric the pair induces."""
    omega, sigma = catalog.n9_coupled_pair()
    sampler = StableFormSampler(catalog.algebra("n9"))
    b = np.array([float(omega.coeffs.get(p, 0.0)) for p in PAIRS])
    b = b * (-sampler.lambda_of(b)) ** -0.25
    metric = metric_from_pair(omega, sigma).metric
    h = np.array([[float(x) for x in row] for row in metric.matrix])
    return sampler, b, h


def test_isotropy_search_finds_a_planted_feasible_point():
    # positive control: with the target t I replaced by the metric of the
    # catalog pair, the same search started near the pair must succeed
    sampler, b, h = n9_pair_at_unit_lambda()
    terms = _isotropy_terms(sampler, h)
    value, _, lam, resid = terms(b)
    assert abs(lam + 1.0) < 1e-12 and resid < 1e-20
    rng = np.random.default_rng(8)
    starts = [b + 0.2 * rng.standard_normal(15) for _ in range(5)]
    report = _isotropy_search(terms, starts, seed=8, claimed=False)
    assert report.feasible_found
    assert report.best_residual <= N9_RESIDUAL_TOL
    # the identity target from the same starts finds nothing
    report = _isotropy_search(_isotropy_terms(sampler, np.eye(6)), starts,
                              seed=8, claimed=False)
    assert not report.feasible_found


def test_claimed_search_raises_on_a_feasible_point():
    from g2forge.survey import ObstructionFailure
    sampler, b, h = n9_pair_at_unit_lambda()
    with pytest.raises(ObstructionFailure) as err:
        _isotropy_search(_isotropy_terms(sampler, h), [b], seed=0,
                         claimed=True)
    assert "escalate, do not suppress" in str(err.value)
