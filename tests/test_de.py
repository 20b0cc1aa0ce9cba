"""Density-evolution machinery: transition tables (checked against
exhaustive decoder enumeration), the transition kernel, the weight rule,
recursions, and threshold bisection."""

import ast
import itertools
import json
import math
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest

import oracles
from ibddlab import de, product, staircase
from ibddlab.bch import bdd_decode_matrix
from ibddlab.channel import make_params
from ibddlab.cli import main
from ibddlab.de import (
    DEFAULT_WEIGHT_CAP,
    SC_SCHEDULE_MAX_SLIDES,
    BracketError,
    ComponentProfile,
    GldpcDeResult,
    ScDeResult,
    TransitionKernels,
    auto_profile,
    component_profile,
    run_gldpc,
    run_sc_window,
    sc_cn_averages,
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


def test_shortened_code_top_rows_match_exhaustive_count(code_30_20, prof_30_20):
    """The top rows of the (30,20) tables against the decoder run on every
    error pattern of weight 26..30, averaged over the bit positions.  The
    all-ones word is no codeword of the shortened code, so these rows are
    not certain miscorrections: BDD fails on the all-ones word."""
    n, low = code_30_20.n, 26
    words = np.ones((sum(math.comb(n, w) for w in range(low, n + 1)), n), dtype=np.uint8)
    zeros = (c for w in range(n - low, -1, -1) for c in itertools.combinations(range(n), w))
    for word, where in zip(words, zeros):
        word[list(where)] = 0
    _, dec, ok = bdd_decode_matrix(code_30_20, words)
    # per position against the sent all-zero word: 1 error, 0 correct, 2 failure
    decided = np.where(ok[:, None], dec, 2)
    weight = words.sum(axis=1)
    for table, sent_wrong in (("p", 1), ("q", 0)):
        for w in range(low, n + sent_wrong):
            i = w - sent_wrong  # errors among the other n-1 positions
            at = decided[weight == w][words[weight == w] == sent_wrong]
            for name, value in (("e", 1), ("c", 0), ("eps", 2)):
                got = getattr(prof_30_20, table + name)[i]
                assert got == pytest.approx(np.mean(at == value), abs=1e-12), (table + name, i)


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
    params = make_params(3.0, 7 / 15)
    kern = TransitionKernels(prof_15_7, params)
    xs = np.array([0.0, 0.004, 0.03, 0.2, 1.0])
    many = kern.eval(xs)
    for j, x in enumerate(xs):
        one = kern.eval(float(x))
        assert np.ndim(one[0]) == 0
        np.testing.assert_allclose(list(one), oracles.transition_values(prof_15_7, x, params.p_ch),
                                   atol=1e-14)
        np.testing.assert_allclose([f[j] for f in many], list(one), atol=1e-15)
    _, grid_fc, _, _ = kern.eval(np.full((2, 3), 0.01))
    assert grid_fc.shape == (2, 3)


@pytest.mark.parametrize(
    "prof_fixture,ebn0,rate,rtol",
    [("prof_255_231", 4.1, 1 - 2 * 24 / 255, 5e-13), ("prof_15_11", 3.5, 1 - 2 * 4 / 15, 1e-15)],
    ids=["255_231", "15_11"],
)
def test_kernels_match_scipy_oracle(prof_fixture, ebn0, rate, rtol, request):
    """The pmf from math.lgamma, np.log and np.log1p matches the one from
    scipy's gammaln, xlogy and xlog1py: exactly at x = 0 and x = 1, and to
    ``rtol`` (zero for zero) at every rate between, down to 1e-300."""
    prof = request.getfixturevalue(prof_fixture)
    params = make_params(ebn0, rate)
    xs = np.concatenate([[0.0, 1.0, 1e-300, 1e-70], np.logspace(-12, -0.01)])
    got = TransitionKernels(prof, params).eval(xs)
    want = oracles.TransitionKernelsScipy(prof, params).eval(xs)
    np.testing.assert_array_equal(got[:, :2], want[:, :2])
    np.testing.assert_allclose(got, want, rtol=rtol, atol=0)


def test_pmf_normalization(prof_15_7):
    """The binomial weights sum to one, and x = 0 / x = 1 put all mass on
    the first / last table entry."""
    n = prof_15_7.n
    zeros, ones = np.zeros(n), np.ones(n)
    flat = ComponentProfile(
        n=n, t=prof_15_7.t, pe=zeros, pc=ones, peps=zeros,
        qe=zeros, qc=ones, qeps=zeros,
    )
    params = make_params(3.0, 7 / 15)
    kern = TransitionKernels(flat, params)
    for x in (0.0, 1e-6, 0.1, 0.9, 1.0):
        assert kern.eval(x)[3] == pytest.approx(1.0, abs=1e-12)
    kern = TransitionKernels(prof_15_7, params)
    fe, _, fqe, _ = kern.eval(0.0)
    assert fqe == prof_15_7.qe[0]
    assert fe == 0.0  # nothing left to miscorrect
    assert kern.eval(1.0)[3] == prof_15_7.pc[-1]


def test_transition_fns_against_direct_binomial_sum(prof_15_7):
    """Independent re-derivation: binomial-weighted table averages."""
    params, x = make_params(3.5, 7 / 15), 0.011
    p_ch, n = params.p_ch, prof_15_7.n
    pmf = np.array(
        [math.comb(n - 1, i) * x**i * (1 - x) ** (n - 1 - i) for i in range(n)]
    )
    fe, fc, fqe, fpc = TransitionKernels(prof_15_7, params).eval(x)
    ke = p_ch * prof_15_7.pe + (1 - p_ch) * prof_15_7.qe
    kc = p_ch * prof_15_7.pc + (1 - p_ch) * prof_15_7.qc
    assert fe == pytest.approx(float(pmf @ ke), abs=1e-12)
    assert fc == pytest.approx(float(pmf @ kc), abs=1e-12)
    assert fqe == pytest.approx(float(pmf @ prof_15_7.qe), abs=1e-12)
    assert fpc == pytest.approx(float(pmf @ prof_15_7.pc), abs=1e-12)


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
    assert oracles.weights(fc, fe, 1.0) == 1.0


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
    kern = TransitionKernels(prof_15_7, params)
    for x in (params.p_ch, 0.01, 1e-4):
        v = kern.eval(x)
        fe, fc, _, _ = v
        assert oracles.weights(fc, fe, 0.0) == 0.0  # a zero cap forces weight 0
        x_out = oracles.vn_update(v, 0.0, params.p_ch, params.sigma)
        assert x_out == pytest.approx(params.p_ch, rel=1e-13)


def test_de_step_accepts_prebuilt_kernels(prof_15_7):
    """run_gldpc's trajectory is the bit-node update of one prebuilt kernel
    at the recursion's own weights."""
    params = make_params(4.0, 7 / 15)
    kern = TransitionKernels(prof_15_7, params)
    res = run_gldpc(prof_15_7, 4.0, 7 / 15, iterations=2, stop_early=False)
    weights = np.column_stack([res.w_row, res.w_col]).ravel()
    x = params.p_ch
    for w, x_out in zip(weights, res.trajectory):
        x = float(oracles.vn_update(kern.eval(x), w, params.p_ch, params.sigma))
        assert x == pytest.approx(x_out, rel=1e-12)
    assert res.trajectory[0] < params.p_ch  # one weighted half-iteration already helps


@pytest.mark.parametrize("x", [0.013, np.array([0.0, 1e-5, 0.013, 0.2, 1.0])],
                         ids=["scalar", "array"])
def test_step_is_weight_then_vn_update(prof_15_7, x):
    """One half-step is the clamped log-ratio weight and the bit-node update
    at that weight, bit for bit."""
    params = make_params(3.5, 7 / 15)
    kern = TransitionKernels(prof_15_7, params)
    v = kern.eval(x)
    fe, fc, _, _ = v
    want_w = oracles.weights(fc, fe, DEFAULT_WEIGHT_CAP)
    w, x_next = kern.step(x)
    np.testing.assert_array_equal(w, want_w)
    np.testing.assert_array_equal(x_next, oracles.vn_update(v, want_w, params.p_ch, params.sigma))
    assert np.shape(w) == np.shape(x_next) == np.shape(x)


# rates at which the transition values reach their edge cases, for both codes:
# f_e = 0 (the cap) at 0 and at 1e-300 for (255,231), f_c = 0 (weight 0) at 1,
# a subnormal f_e at 1e-310 for (15,11) and at 1e-105 for (255,231), and NaN
_EDGE_RATES = [0.0, 1.0, 1e-300, 1e-310, 1e-105, math.nan]


@pytest.mark.parametrize("prof_fixture", ["prof_15_11", "prof_255_231"])
def test_step_matches_array_oracle_bit_for_bit(prof_fixture, request):
    """``eval`` and ``step`` against the array-only half-step: the same bits
    for every scalar rate and every array of rates, seven (a window of six)
    or shaped, at the edge cases and across (0, 1).  numpy's log differs
    from ``math.log`` in the last bit about once in 600 arguments, so the
    thousands of rates here catch a step that took one from ``math``."""
    prof = request.getfixturevalue(prof_fixture)
    params = make_params(*((4.1, RATE_BIG) if prof.n == 255 else (3.5, 1 - 2 * 4 / 15)))
    kern, ref = TransitionKernels(prof, params), oracles.TransitionKernelsArrays(prof, params)
    rng = np.random.default_rng(39)
    xs = np.concatenate([_EDGE_RATES, 10.0 ** rng.uniform(-15, 0, 7 * 400 - len(_EDGE_RATES))])
    fe, fc, _, _ = ref.eval(xs)
    assert np.isnan(fc).any() and (fc == 0).any() and ((fe == 0) & (fc > 0)).any()
    assert ((0 < fe) & (fe < np.finfo(float).tiny) & (fc > 0)).any()
    for x in xs:
        np.testing.assert_array_equal(kern.eval(x), ref.eval(x))
        for got, want in zip(kern.step(x), ref.step(x)):
            assert type(got) is float and np.array_equal(got, want, equal_nan=True), x
    for rates in (xs.reshape(-1, 7), xs[:7], xs.reshape(-1, 7).T, xs[:0]):
        np.testing.assert_array_equal(kern.eval(rates), ref.eval(rates))
        for got, want in zip(kern.step(rates), ref.step(rates)):
            assert got.shape == want.shape == rates.shape
            np.testing.assert_array_equal(got, want)
    # the half-step after the pmf, on transition values with f_e near f_c, so
    # that a last-bit change in either log shows in the weight
    fc, fqe, fpc = rng.random((3, xs.size))
    values = np.stack([fc * rng.uniform(0.8, 1.0, xs.size), fc, fqe, fpc])
    kern.eval = ref.eval = lambda x: values
    for got, want in zip(kern.step(xs), ref.step(xs)):
        np.testing.assert_array_equal(got, want)


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


@pytest.mark.parametrize(
    "ebn0,prof_fixture",
    [(e, "prof_255_231") for e in (3.5, 4.0, 4.125, 4.15625, 4.1640625)]
    + [(3.5, "prof_15_11")],
)
def test_early_stop_at_fixed_point_is_exact(ebn0, prof_fixture, request):
    """Below threshold the recursion reaches an exact fixed point; stopping
    there keeps every scalar result and leaves the arrays exact prefixes."""
    prof = request.getfixturevalue(prof_fixture)
    rate = RATE_BIG if prof.n == 255 else 1 - 2 * 4 / 15
    short = run_gldpc(prof, ebn0, rate)
    full = run_gldpc(prof, ebn0, rate, stop_early=False)
    assert (short.final_x, short.converged, short.improving) == (
        full.final_x, full.converged, full.improving)
    assert not short.converged and short.iterations_run < full.iterations_run
    assert len(short.w_row) == len(short.w_col) == short.iterations_run
    for name in ("trajectory", "w_row", "w_col"):
        part, whole = getattr(short, name), getattr(full, name)
        np.testing.assert_array_equal(part, whole[: len(part)])
    if ebn0 == 4.1640625:
        assert short.iterations_run <= 262


def test_threshold_search_kernel_evals(prof_255_231, monkeypatch):
    """The (255,231,3) gldpc search stops every stuck bisection point at its
    fixed point instead of running the full 1,000 iterations."""
    calls = []
    eval_ = TransitionKernels.eval

    def spy(self, x):
        calls.append(x)
        return eval_(self, x)

    monkeypatch.setattr(TransitionKernels, "eval", spy)
    thr = threshold_search("gldpc", prof_255_231, RATE_BIG, bracket=(3.5, 4.5), tol_db=0.01)
    assert thr == 4.16796875
    assert len(calls) == 1074


def test_threshold_search_ends_at_adjacent_floats(prof_15_11, monkeypatch):
    """A tolerance finer than the float spacing ends the bisection once lo
    and hi are adjacent floats, about 50 halvings of a 2-dB bracket, where
    the midpoint would repeat one of them forever."""
    calls = []  # (Eb/N0, decodes)
    run = de.threshold_run

    def spy(*args):
        if len(calls) == 100:
            raise AssertionError("bisection does not end")
        res = run(*args)
        calls.append((args[1], res.converged))
        return res

    monkeypatch.setattr(de, "threshold_run", spy)
    rate = 1 - 2 * 4 / 15
    thr = threshold_search("gldpc", prof_15_11, rate, tol_db=1e-300, bracket=(3.0, 5.0))
    assert len({e for e, _ in calls}) == len(calls)  # no point is decoded twice
    lo = max(e for e, ok in calls if not ok)
    hi = min(e for e, ok in calls if ok)
    assert np.nextafter(lo, np.inf) == hi and thr in (lo, hi)


@pytest.mark.parametrize("tol_db", [0.01, 0.5])
@pytest.mark.parametrize("ensemble", ["gldpc", "sc"])
@pytest.mark.parametrize("code_fixture", ["code_15_11", "code_30_20", "code_63_51", "code_255_231"])
def test_default_bracket_matches_scan(code_fixture, ensemble, tol_db, request):
    """With no bracket given, bisecting [0, 16] dB ends where the former
    0.5-dB scan and its bisection did: the scan's grid lies on the dyadic
    grid that bisection walks."""
    code = request.getfixturevalue(code_fixture)
    prof, rate = auto_profile(code), 1 - 2 * (code.n - code.k) / code.n
    window = 6 if ensemble == "sc" else None
    thr = threshold_search(ensemble, prof, rate, tol_db=tol_db, window=window)
    assert thr == oracles.threshold_scan(ensemble, prof, rate, tol_db=tol_db, window=window)


@pytest.mark.parametrize("tol_db", [0.0, -1.0, math.nan, math.inf, True, "0.01",
                                    pytest.param(10**400, id="beyond-float")])
def test_threshold_search_rejects_bad_tolerance(prof_15_11, tol_db, monkeypatch):
    """A tolerance the bisection cannot reach, or one that is no real number
    (True would bisect to 1 dB), fails before any recursion runs."""
    monkeypatch.setattr(de, "run_gldpc", None)
    with pytest.raises(ValueError, match="tol_db"):
        threshold_search("gldpc", prof_15_11, 1 - 2 * 4 / 15, tol_db=tol_db, bracket=(3.0, 5.0))


@pytest.mark.parametrize("bracket", [(5.0, 3.0), (4.0, 4.0), (math.nan, 5.0)])
def test_threshold_search_rejects_unordered_bracket(prof_15_11, bracket, monkeypatch):
    """Ends given high first straddle the threshold but bracket nothing: like
    an empty or NaN bracket, they fail before any recursion runs rather than
    as a BracketError."""
    monkeypatch.setattr(de, "run_gldpc", None)
    with pytest.raises(ValueError, match="lo < hi"):
        threshold_search("gldpc", prof_15_11, 1 - 2 * 4 / 15, bracket=bracket)


@pytest.mark.parametrize("bracket", [(3.5, math.inf), (-math.inf, 4.5)])
def test_threshold_search_rejects_infinite_bracket(prof_15_11, bracket, monkeypatch):
    """An infinite end fails before the finite end's recursion runs, not
    when the channel at the infinite end is refused."""
    monkeypatch.setattr(de, "run_gldpc", None)
    with pytest.raises(ValueError, match="bracket ends must be finite"):
        threshold_search("gldpc", prof_15_11, 1 - 2 * 4 / 15, bracket=bracket)


@pytest.mark.parametrize("window", [None, 0, -1, True, 2.5])
def test_threshold_search_rejects_bad_window(prof_15_11, window, monkeypatch):
    """True would decode as window 1 and report a BracketError."""
    monkeypatch.setattr(de, "run_sc_window", None)
    with pytest.raises(ValueError, match="window"):
        threshold_search("sc", prof_15_11, 1 - 2 * 4 / 15, bracket=(3.0, 5.0), window=window)


@pytest.mark.parametrize("window", [0, -2, 2.5, True])
def test_run_sc_window_rejects_bad_window(prof_15_11, window, monkeypatch):
    monkeypatch.setattr(de, "TransitionKernels", None)
    with pytest.raises(ValueError, match="window"):
        run_sc_window(prof_15_11, 4.0, 1 - 2 * 4 / 15, window, 10)


@pytest.mark.parametrize(
    "kwargs,match",
    [({"max_slides": 0}, "max_slides=0"), ({"max_slides": -3}, "max_slides=-3"),
     ({"max_slides": 2.5}, "max_slides must be an integer")]
    + [({"steady_tol": tol}, "steady_tol") for tol in (math.nan, -1.0, 0.0, math.inf, True)],
    ids=["slides-zero", "slides-negative", "slides-fraction", "tol-nan", "tol-negative",
         "tol-zero", "tol-inf", "tol-bool"],
)
def test_run_sc_window_rejects_bad_slides_or_tolerance(prof_15_11, kwargs, match, monkeypatch):
    """A slide budget that is no integer of at least 1, or a steady tolerance
    no slide can meet, fails before any recursion runs."""
    monkeypatch.setattr(de, "TransitionKernels", None)
    with pytest.raises(ValueError, match=match):
        run_sc_window(prof_15_11, 4.0, 1 - 2 * 4 / 15, 3, 10, **kwargs)


@pytest.mark.parametrize("iters", [True, 2.5, np.float64(3.0)])
def test_iteration_budget_must_be_an_integer(prof_15_11, iters, monkeypatch):
    """True would run one iteration; a fraction would fail inside numpy."""
    monkeypatch.setattr(de, "TransitionKernels", None)
    rate = 1 - 2 * 4 / 15
    with pytest.raises(ValueError, match="iterations must be an integer"):
        run_gldpc(prof_15_11, 4.0, rate, iterations=iters)
    with pytest.raises(ValueError, match="iters_per_slide must be an integer"):
        run_sc_window(prof_15_11, 4.0, rate, 3, iters)


@pytest.mark.parametrize("iters", [0, -2])
def test_iteration_budget_below_one_rejected(prof_15_11, iters):
    rate = 1 - 2 * 4 / 15
    with pytest.raises(ValueError, match=f"iterations={iters}"):
        run_gldpc(prof_15_11, 4.0, rate, iterations=iters)
    with pytest.raises(ValueError, match=f"iters_per_slide={iters}"):
        run_sc_window(prof_15_11, 4.0, rate, 3, iters)


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


def test_profile_json_payloads(prof_15_11, tmp_path, capsys):
    """``de-schedule --out`` writes every field of the DE result dataclass,
    beside the ensemble, the code and the threshold (None here)."""
    rate = 1 - 2 * 4 / 15
    g_path, s_path = tmp_path / "g.json", tmp_path / "s.json"
    base = ["de-schedule", "--m", "4", "--t", "1", "--iters", "10"]
    assert main(base + ["--ensemble", "gldpc", "--ebn0-db", "4.2", "--out", str(g_path)]) == 0
    assert main(base + ["--ensemble", "sc", "--window", "4", "--ebn0-db", "4.0",
                        "--out", str(s_path)]) == 0
    capsys.readouterr()
    g = run_gldpc(prof_15_11, 4.2, rate, iterations=10, stop_early=False)
    s = run_sc_window(prof_15_11, 4.0, rate, 4, 10, full_iterations=True, fail_fast=False,
                      max_slides=SC_SCHEDULE_MAX_SLIDES)
    for path, res, cls, ensemble in ((g_path, g, GldpcDeResult, "gldpc"),
                                     (s_path, s, ScDeResult, "sc")):
        doc = json.loads(path.read_text())
        names = {f.name for f in fields(cls)}
        assert set(doc) == names | {"ensemble", "n", "t", "threshold", "manifest"}
        assert (doc["ensemble"], doc["n"], doc["t"], doc["threshold"]) == (ensemble, 15, 1, None)
        assert doc["manifest"] == f"{path}.manifest.json"
        for name in names:
            want = getattr(res, name)
            if name == "schedules":
                want = [a.tolist() for a in want]
            elif isinstance(want, np.ndarray):
                want = want.tolist()
            assert doc[name] == want, name
    assert len(json.loads(g_path.read_text())["w_row"]) == 10
    assert len(json.loads(s_path.read_text())["schedules"][0]) == 5  # window + 1 slots


def test_auto_profile_switches_enumerator(code_15_11, code_255_231):
    exact = auto_profile(code_15_11)
    assert exact.peps.max() < 1e-15  # only the exact spectrum shows perfection
    approx = auto_profile(code_255_231)
    assert approx.n == 255
    assert np.all(approx.peps >= 0)


@pytest.mark.parametrize("module", [product, staircase], ids=["product", "staircase"])
def test_codecs_do_not_import_de(module):
    """The codecs only consume weights: density evolution stays above them."""
    with open(module.__file__) as fh:
        tree = ast.parse(fh.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module)
            if node.module in (None, "ibddlab"):  # from . import de
                imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert imported.isdisjoint({"de", "ibddlab.de"})
