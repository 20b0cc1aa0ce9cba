"""Density-evolution machinery: transition tables (checked against
exhaustive decoder enumeration), the transition kernel, the weight rule,
recursions, and threshold bisection."""

import math
from fractions import Fraction

import numpy as np
import pytest

import oracles
from ibddlab import de
from ibddlab.bch import bdd_decode_matrix
from ibddlab.channel import make_params
from ibddlab.de import (
    DEFAULT_WEIGHT_CAP,
    BracketError,
    ComponentProfile,
    TransitionKernels,
    auto_profile,
    component_profile,
    gldpc_profile_json,
    run_gldpc,
    run_sc_window,
    sc_cn_averages,
    sc_profile_json,
    threshold_search,
)

# ---------------------------------------------------------------------------
# transition tables


@pytest.mark.parametrize("fixture", ["prof_15_11", "prof_15_7"])
def test_tables_are_stochastic(fixture, request):
    prof = request.getfixturevalue(fixture)
    np.testing.assert_allclose(prof.pe + prof.pc + prof.peps, 1.0, atol=1e-12)
    np.testing.assert_allclose(prof.qe + prof.qc + prof.qeps, 1.0, atol=1e-12)
    for tab in (prof.pe, prof.pc, prof.peps, prof.qe, prof.qc, prof.qeps):
        assert tab.shape == (prof.n,)
        assert np.all(tab >= -1e-15) and np.all(tab <= 1 + 1e-15)


@pytest.mark.parametrize(
    "code_fixture,prof_fixture",
    [("code_15_11", "prof_15_11"), ("code_15_7", "prof_15_7")],
)
def test_tables_match_exhaustive_enumeration(code_fixture, prof_fixture, request):
    """The six tables against brute-force enumeration of every error pattern."""
    code = request.getfixturevalue(code_fixture)
    prof = request.getfixturevalue(prof_fixture)
    pe, pc, peps, qe, qc, qeps = oracles.empirical_transition_tables(
        code, bdd_decode_matrix
    )
    np.testing.assert_allclose(prof.pe, pe, atol=1e-12)
    np.testing.assert_allclose(prof.pc, pc, atol=1e-12)
    np.testing.assert_allclose(prof.peps, peps, atol=1e-12)
    np.testing.assert_allclose(prof.qe, qe, atol=1e-12)
    np.testing.assert_allclose(prof.qc, qc, atol=1e-12)
    np.testing.assert_allclose(prof.qeps, qeps, atol=1e-12)


def test_perfect_code_has_no_failures(prof_15_11):
    # single-error-correcting Hamming fills the space: failure never happens
    # (up to arithmetic dust from the 1 - pe - pc complement)
    assert prof_15_11.peps.max() < 1e-15
    assert prof_15_11.qeps.max() < 1e-15


def test_component_profile_input_forms(code_15_7, prof_15_7):
    from ibddlab.bch import weight_enumerator_exact

    counts = weight_enumerator_exact(code_15_7)
    direct = component_profile(code_15_7.n, code_15_7.t, weights=counts)
    np.testing.assert_allclose(direct.pe, prof_15_7.pe, atol=1e-13)
    np.testing.assert_allclose(direct.qeps, prof_15_7.qeps, atol=1e-13)
    with pytest.raises(ValueError):
        component_profile(code_15_7.n, code_15_7.t, weights=counts[:-1])


def test_fraction_counts_give_identical_tables(code_15_7):
    """Integer counts and the same counts as Fractions are one rational
    input: the tables agree bit for bit."""
    from ibddlab.bch import weight_enumerator_exact

    counts = weight_enumerator_exact(code_15_7)
    n, t = code_15_7.n, code_15_7.t
    by_int = component_profile(n, t, counts)
    by_fraction = component_profile(n, t, [Fraction(int(c)) for c in counts])
    for name in ("pe", "pc", "peps", "qe", "qc", "qeps"):
        np.testing.assert_array_equal(getattr(by_fraction, name), getattr(by_int, name))


@pytest.mark.parametrize("fixture", ["prof_255_231", "prof_254_230"])
def test_model_tables_match_log_space_oracle(fixture, request):
    """The binomial model's exact tables against a term-by-term log-space
    evaluation of the same sums."""
    prof = request.getfixturevalue(fixture)
    code = request.getfixturevalue(fixture.replace("prof", "code"))
    ref = oracles.log_space_model_tables(code)
    for name, table in zip(("pe", "pc", "peps", "qe", "qc", "qeps"), ref):
        np.testing.assert_allclose(getattr(prof, name), table, rtol=1e-12, atol=0, err_msg=name)


def test_kernels_match_transition_fns(prof_15_7):
    """One evaluator serves scalar and array rates, both matching the
    direct binomial sum."""
    p_ch = 0.03
    kern = TransitionKernels(prof_15_7, p_ch)
    xs = np.array([0.0, 0.004, 0.03, 0.2, 1.0])
    many = kern.eval(xs)
    for j, x in enumerate(xs):
        one = kern.eval(float(x))
        assert np.ndim(one.fe) == 0
        np.testing.assert_allclose(list(one), oracles.transition_values(prof_15_7, x, p_ch), atol=1e-14)
        np.testing.assert_allclose([f[j] for f in many], list(one), atol=1e-15)
    grid = kern.eval(np.full((2, 3), 0.01))
    assert grid.fc.shape == (2, 3)


def test_pmf_normalization(prof_15_7):
    """The binomial weights sum to one, and x = 0 / x = 1 put all mass on
    the first / last table entry."""
    n = prof_15_7.n
    zeros, ones = np.zeros(n), np.ones(n)
    flat = ComponentProfile(
        n=n, t=prof_15_7.t, pe=zeros, pc=ones, peps=zeros,
        qe=zeros, qc=ones, qeps=zeros,
    )
    kern = TransitionKernels(flat, 0.02)
    for x in (0.0, 1e-6, 0.1, 0.9, 1.0):
        assert kern.eval(x).fpc == pytest.approx(1.0, abs=1e-12)
    kern = TransitionKernels(prof_15_7, 0.02)
    assert kern.eval(0.0).fqe == prof_15_7.qe[0]
    assert kern.eval(0.0).fe == 0.0  # nothing left to miscorrect
    assert kern.eval(1.0).fpc == prof_15_7.pc[-1]


def test_transition_fns_against_direct_binomial_sum(prof_15_7):
    """Independent re-derivation: binomial-weighted table averages."""
    p_ch, x = 0.025, 0.011
    n = prof_15_7.n
    pmf = np.array(
        [math.comb(n - 1, i) * x**i * (1 - x) ** (n - 1 - i) for i in range(n)]
    )
    v = TransitionKernels(prof_15_7, p_ch).eval(x)
    ke = p_ch * prof_15_7.pe + (1 - p_ch) * prof_15_7.qe
    kc = p_ch * prof_15_7.pc + (1 - p_ch) * prof_15_7.qc
    assert v.fe == pytest.approx(float(pmf @ ke), abs=1e-12)
    assert v.fc == pytest.approx(float(pmf @ kc), abs=1e-12)
    assert v.fqe == pytest.approx(float(pmf @ prof_15_7.qe), abs=1e-12)
    assert v.fpc == pytest.approx(float(pmf @ prof_15_7.pc), abs=1e-12)


# ---------------------------------------------------------------------------
# weight rule


RATE_BIG = 1 - 2 * 24 / 255


def test_weight_formula_basics(prof_255_231):
    params = make_params(4.2, RATE_BIG)
    res = run_gldpc(prof_255_231, 4.2, RATE_BIG, iterations=1, stop_early=False)
    fe, fc, _, _ = oracles.transition_values(prof_255_231, params.p_ch, params.p_ch)
    w = res.w_row[0]  # the weight at the channel error rate
    assert 0.0 < w < DEFAULT_WEIGHT_CAP
    assert w == pytest.approx(math.log(fc / fe), abs=1e-9)
    # a lower cap clamps
    assert de._weights(fc, fe, 1.0) == 1.0


def test_weight_formula_agrees_with_numeric(prof_255_231):
    """The log-ratio weight is near-optimal for the one-step update.

    The objective is flat around its minimum, so the argmins can sit a grid
    step or two apart; what matters is that the formula weight achieves
    (essentially) the minimal updated error rate.
    """
    params = make_params(4.2, RATE_BIG)
    res = run_gldpc(prof_255_231, 4.2, RATE_BIG, iterations=3, stop_early=False)
    weights = np.column_stack([res.w_row, res.w_col]).ravel()
    x_in = [params.p_ch, *res.trajectory[:-1]]
    for x, wf, x_out in zip(x_in, weights, res.trajectory):
        v = oracles.transition_values(prof_255_231, x, params.p_ch)
        wn = oracles.scaling_factor_numeric(v, params.p_ch, params.sigma)
        assert abs(wf - wn) <= 2.0, (x, wf, wn)
        assert x_out <= oracles.vn_update(v, wn, params.p_ch, params.sigma) * 1.02 + 1e-15


def test_zero_weight_returns_channel_error_rate(prof_15_7):
    params = make_params(3.0, 7 / 15)
    kern = TransitionKernels(prof_15_7, params.p_ch)
    for x in (params.p_ch, 0.01, 1e-4):
        v = kern.eval(x)
        assert de._weights(v.fc, v.fe, 0.0) == 0.0  # a zero cap forces weight 0
        x_out = oracles.vn_update(v, 0.0, params.p_ch, params.sigma)
        assert x_out == pytest.approx(params.p_ch, rel=1e-13)


def test_de_step_accepts_prebuilt_kernels(prof_15_7):
    """run_gldpc's trajectory is the bit-node update of one prebuilt kernel
    at the recursion's own weights."""
    params = make_params(4.0, 7 / 15)
    kern = TransitionKernels(prof_15_7, params.p_ch)
    res = run_gldpc(prof_15_7, 4.0, 7 / 15, iterations=2, stop_early=False)
    weights = np.column_stack([res.w_row, res.w_col]).ravel()
    x = params.p_ch
    for w, x_out in zip(weights, res.trajectory):
        x = float(oracles.vn_update(kern.eval(x), w, params.p_ch, params.sigma))
        assert x == pytest.approx(x_out, rel=1e-12)
    assert res.trajectory[0] < params.p_ch  # one weighted half-iteration already helps


# ---------------------------------------------------------------------------
# uncoupled recursion and threshold


def test_run_gldpc_above_threshold(prof_15_11):
    rate = 1 - 2 * 4 / 15
    res = run_gldpc(prof_15_11, 4.2, rate, iterations=400)
    assert res.converged and res.improving
    assert res.final_x < 1e-9
    assert len(res.w_row) == len(res.w_col) == res.iterations_run
    assert np.all(res.trajectory >= 0) and np.all(res.trajectory <= 0.5)


def test_run_gldpc_below_threshold_plateaus(prof_15_11):
    rate = 1 - 2 * 4 / 15
    res = run_gldpc(prof_15_11, 3.5, rate, iterations=400, stop_early=False)
    assert not res.converged
    assert res.final_x > 1e-6
    # stuck: the last two half-iterations barely move
    assert abs(res.trajectory[-1] - res.trajectory[-2]) < 1e-12
    # it still improves on the raw channel
    assert res.improving
    assert res.final_x < res.p_ch


def test_gldpc_weights_respect_cap(prof_255_231):
    res = run_gldpc(prof_255_231, 4.5, RATE_BIG, iterations=30, stop_early=False)
    assert np.all(res.w_row <= DEFAULT_WEIGHT_CAP) and np.all(res.w_col <= DEFAULT_WEIGHT_CAP)
    assert res.w_row.max() == DEFAULT_WEIGHT_CAP  # late iterations saturate


def test_threshold_search_gldpc_toy(prof_15_11):
    rate = 1 - 2 * 4 / 15
    thr = threshold_search("gldpc", prof_15_11, rate, bracket=(3.0, 5.0))
    assert thr == pytest.approx(3.8789, abs=0.02)
    # decodes just above, fails just below
    assert run_gldpc(prof_15_11, thr + 0.05, rate).converged
    assert not run_gldpc(prof_15_11, thr - 0.05, rate).converged


def test_threshold_search_bad_bracket(prof_15_11):
    rate = 1 - 2 * 4 / 15
    with pytest.raises(BracketError) as exc:
        threshold_search("gldpc", prof_15_11, rate, bracket=(5.0, 6.0))
    assert exc.value.diagnostics  # carries the endpoint evaluations
    with pytest.raises(BracketError):
        threshold_search("gldpc", prof_15_11, rate, bracket=(1.0, 2.0))


def test_threshold_search_rejects_unknown_ensemble(prof_15_11):
    with pytest.raises(ValueError):
        threshold_search("turbo", prof_15_11, 0.5)


# ---------------------------------------------------------------------------
# coupled chain


def test_sc_cn_averages_hand_case():
    x = np.array([0.1, 0.2, 0.3, 0.4])
    out = sc_cn_averages(x, 1, 2)
    np.testing.assert_allclose(out, [0.1, 0.25, 0.15], atol=1e-15)


def test_run_sc_window_threshold_mode(prof_15_11):
    """Fail-fast scanning: emitted positions must beat the target per slide."""
    rate = 1 - 2 * 4 / 15
    good = run_sc_window(prof_15_11, 4.2, rate, window=6, iters_per_slide=100)
    assert good.converged and good.improving
    assert good.emitted[-1] < 1e-9
    bad = run_sc_window(prof_15_11, 3.8, rate, window=6, iters_per_slide=100)
    assert not bad.converged
    assert bad.slides_run == 1  # aborted on the first over-target emission


def test_run_sc_window_schedule_derivation(prof_15_11):
    """Full-iteration mode logs a complete weight schedule per slide and
    stops when the schedules become slide-invariant."""
    rate = 1 - 2 * 4 / 15
    res = run_sc_window(
        prof_15_11, 4.0, rate, window=4, iters_per_slide=10,
        full_iterations=True, fail_fast=False,
    )
    assert res.improving
    s = res.steady_slide
    assert s is not None and s == res.slides_run
    for sched in res.schedules:
        assert sched.shape == (5, 10)
        assert np.all(sched >= 0) and np.all(sched <= DEFAULT_WEIGHT_CAP)
    # steady state: the last two slides agree to the tolerance
    assert np.max(np.abs(res.schedules[s - 1] - res.schedules[s - 2])) < 1e-6


def test_sc_coupling_gain_over_uncoupled(prof_15_11):
    """The coupled chain decodes where the uncoupled recursion is stuck."""
    rate = 1 - 2 * 4 / 15
    ebn0 = 3.85  # below the ~3.88 dB uncoupled threshold
    stuck = run_gldpc(prof_15_11, ebn0, rate, iterations=2000, stop_early=False)
    assert not stuck.converged and stuck.final_x > 1e-3
    res = run_sc_window(prof_15_11, ebn0, rate, window=6, iters_per_slide=200)
    assert res.converged


# ---------------------------------------------------------------------------
# profile serialization


def test_profile_json_payloads(prof_15_11):
    rate = 1 - 2 * 4 / 15
    g = run_gldpc(prof_15_11, 4.2, rate, iterations=200)
    doc = gldpc_profile_json(g, 15, 1, threshold=3.88)
    assert doc["ensemble"] == "gldpc"
    assert doc["converged"] is True and doc["improving"] is True
    assert doc["threshold"] == 3.88
    assert len(doc["weights_row"]) == g.iterations_run

    s = run_sc_window(prof_15_11, 4.0, rate, window=4, iters_per_slide=10)
    sdoc = sc_profile_json(s, 15, 1)
    assert sdoc["ensemble"] == "sc_gldpc"
    assert sdoc["window"] == 4
    assert isinstance(sdoc["converged"], bool) and isinstance(sdoc["improving"], bool)
    assert len(sdoc["weights_row"]) == 5
    assert sdoc["steady_slide"] == s.steady_slide


def test_auto_profile_switches_enumerator(code_15_11, code_255_231):
    exact = auto_profile(code_15_11)
    assert exact.peps.max() < 1e-15  # only the exact spectrum shows perfection
    approx = auto_profile(code_255_231)
    assert approx.n == 255
    assert np.all(approx.peps >= 0)
