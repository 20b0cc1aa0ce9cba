"""Product-code encoding and the iterative decoders, in particular the
scaled-reliability combining rule and its limiting behaviors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ibddlab.bch import bdd_decode_matrix
from ibddlab.channel import harden, make_params, transmit
from ibddlab.product import (
    ProductCode,
    ScalingSchedule,
    combine_decision,
    ibdd_decode,
    ibdd_sr_decode,
    ideal_ibdd_decode,
    pc_encode,
)

# ---------------------------------------------------------------------------
# combining rule


def test_combine_decision_grid():
    """Exhaustive small grid against the defining comparison rule."""
    for mu in (-1, 0, 1):
        for w in (0.0, 0.5, 1.0, 2.0, 64.0):
            for llr in (-3.0, -1.0, -0.25, 0.25, 1.0, 3.0):
                got = combine_decision(
                    np.array([[mu]], dtype=np.int8),
                    w,
                    np.array([[llr]]),
                )[0, 0]
                if mu == 0 or w < abs(llr):
                    want = 1 if llr < 0 else 0  # channel decides
                elif w > abs(llr):
                    want = 1 if mu < 0 else 0  # component verdict decides
                else:
                    want = 1 if llr < 0 else 0  # tie: keep the channel bit
                assert got == want, (mu, w, llr)


def test_combine_decision_tie_keeps_channel():
    mu = np.array([[1, -1]], dtype=np.int8)
    llr = np.array([[-2.0, 2.0]])
    out = combine_decision(mu, 2.0, llr)  # w == |llr|: exact tie
    np.testing.assert_array_equal(out, [[1, 0]])


@given(
    mu=st.integers(min_value=-1, max_value=1),
    w=st.floats(min_value=0.0, max_value=64.0, allow_nan=False),
    llr=st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
)
@settings(max_examples=300, deadline=None)
def test_combine_decision_matches_sum_form(mu, w, llr):
    """Off ties, the rule equals hardening the sum w*mu + llr."""
    s = w * mu + llr
    got = combine_decision(np.array([[mu]], dtype=np.int8), w, np.array([[llr]]))[0, 0]
    if mu != 0 and w == abs(llr):
        assert got == (1 if llr < 0 else 0)  # documented tie behavior
    elif s != 0.0:
        assert got == (1 if s < 0 else 0)


def test_combine_decision_vectorized_shapes(rng):
    mu = rng.integers(-1, 2, size=(6, 9)).astype(np.int8)
    llr = rng.normal(size=(6, 9))
    out = combine_decision(mu, 1.3, llr)
    assert out.shape == (6, 9) and out.dtype == np.uint8
    assert set(np.unique(out)) <= {0, 1}


# ---------------------------------------------------------------------------
# encoding


@pytest.fixture(scope="module")
def pc_15_11(code_15_11):
    return ProductCode(code_15_11)


@pytest.fixture(scope="module")
def pc_15_7(code_15_7):
    return ProductCode(code_15_7)


def test_pc_encode_rows_and_cols_are_codewords(pc_15_11, rng):
    comp = pc_15_11.component
    info = rng.integers(0, 2, size=(comp.k, comp.k), dtype=np.uint8)
    word = pc_encode(pc_15_11, info)
    assert word.shape == (15, 15)
    assert np.all(comp.is_codeword(word))
    assert np.all(comp.is_codeword(np.ascontiguousarray(word.T)))
    assert pc_15_11.is_codeword(word)
    np.testing.assert_array_equal(word[: comp.k, : comp.k], info)


def test_pc_encode_order_invariance(pc_15_11, rng):
    """Row-first and column-first encoding agree (parity-on-parity is
    well defined), so the product encoder can be checked against both."""
    comp = pc_15_11.component
    k = comp.k
    info = rng.integers(0, 2, size=(k, k), dtype=np.uint8)
    rows_first = comp.encode(comp.encode(info).T).T  # rows, then columns
    cols_first = comp.encode(comp.encode(info.T).T)  # columns, then rows
    np.testing.assert_array_equal(rows_first, cols_first)
    np.testing.assert_array_equal(pc_encode(pc_15_11, info), rows_first)


def test_pc_parameters(pc_15_11):
    # n and k are the per-side component parameters; the rate is squared
    assert pc_15_11.n == 15
    assert pc_15_11.k == 11
    assert pc_15_11.rate == pytest.approx((11 / 15) ** 2)
    assert "(15,11)^2" in repr(pc_15_11)


# ---------------------------------------------------------------------------
# schedules


def test_schedule_validation():
    s = ScalingSchedule.constant(2.0, 5)
    assert s.iterations == 5
    np.testing.assert_array_equal(s.w_row, np.full(5, 2.0))
    with pytest.raises(ValueError):
        ScalingSchedule(np.array([1.0, -0.5]), np.array([1.0, 1.0]))


# ---------------------------------------------------------------------------
# decoders


def test_ibdd_fixes_sparse_errors(pc_15_7, rng):
    comp = pc_15_7.component
    tx = pc_encode(pc_15_7, rng.integers(0, 2, size=(comp.k, comp.k), dtype=np.uint8))
    rx = tx.copy()
    for r, c in [(0, 0), (3, 7), (9, 2), (14, 14), (5, 5)]:
        rx[r, c] ^= 1
    out = ibdd_decode(pc_15_7, rx)
    np.testing.assert_array_equal(out, tx)


def test_ibdd_stalls_on_covering_pattern(pc_15_7):
    """A (t+1) x (t+1) error grid whose row and column words all fail BDD is
    a fixed point of plain iterative decoding."""
    comp = pc_15_7.component
    from itertools import combinations

    def failing_triple():
        for cols in combinations(range(15), 3):
            word = np.zeros((1, 15), dtype=np.uint8)
            word[0, list(cols)] = 1
            _, _, ok = bdd_decode_matrix(comp, word)
            if not ok[0]:
                return list(cols)
        raise AssertionError("no failing weight-3 word found")

    pattern = failing_triple()
    rx = np.zeros((15, 15), dtype=np.uint8)
    rx[np.ix_(pattern, pattern)] = 1
    out = ibdd_decode(pc_15_7, rx, iters=12)
    np.testing.assert_array_equal(out, rx)  # stuck exactly where it started
    # the genie is equally stuck: every affected word has t+1 errors
    ideal = ideal_ibdd_decode(pc_15_7, rx, np.zeros((15, 15), dtype=np.uint8))
    np.testing.assert_array_equal(ideal, rx)


def test_zero_weight_sr_equals_channel_hardening(pc_15_11, rng):
    """With all-zero weights every scaled iteration re-hardens the channel."""
    params = make_params(3.0, pc_15_11.rate)
    for _ in range(5):
        llr = transmit(np.zeros((15, 15), dtype=np.uint8), params, rng)
        for iters in (1, 3, 7):
            out = ibdd_sr_decode(
                pc_15_11,
                llr,
                ScalingSchedule.constant(0.0, iters),
                sr_iters=iters,
                plain_iters=0,
            )
            np.testing.assert_array_equal(out, harden(llr))


def test_large_weight_sr_equals_plain_ibdd(pc_15_11, rng):
    """With weights at the cap and no decoder failures (the single-error
    component never fails) the scaled decoder reproduces plain iterative
    decoding half-iteration by half-iteration."""
    params = make_params(4.0, pc_15_11.rate)
    frames = 0
    while frames < 40:
        llr = transmit(np.zeros((15, 15), dtype=np.uint8), params, rng)
        assert np.abs(llr).max() < 64.0
        trace_sr, trace_plain = [], []
        out_sr = ibdd_sr_decode(
            pc_15_11,
            llr,
            ScalingSchedule.constant(64.0, 8),
            sr_iters=8,
            plain_iters=0,
            observer=lambda st, it, psi: trace_sr.append((st, it, psi.copy())),
        )
        out_plain = ibdd_decode(
            pc_15_11,
            harden(llr),
            iters=8,
            observer=lambda st, it, psi: trace_plain.append((st, it, psi.copy())),
        )
        np.testing.assert_array_equal(out_sr, out_plain)
        assert len(trace_sr) == len(trace_plain)
        for (st_a, it_a, psi_a), (st_b, it_b, psi_b) in zip(trace_sr, trace_plain):
            assert (st_a, it_a) == (st_b, it_b)
            np.testing.assert_array_equal(psi_a, psi_b)
        frames += 1


def test_sr_beats_plain_at_operating_point(pc_15_11, rng):
    """Aggregate bit errors over a small batch: scaled combining strictly
    improves on plain iBDD, and the genie bounds both from below."""
    params = make_params(4.0, pc_15_11.rate)
    sched = ScalingSchedule.constant(2.8, 10)
    tx = np.zeros((15, 15), dtype=np.uint8)
    errs = {"ibdd": 0, "sr": 0, "ideal": 0}
    for _ in range(120):
        llr = transmit(tx, params, rng)
        errs["ibdd"] += int(ibdd_decode(pc_15_11, harden(llr)).sum())
        errs["sr"] += int(
            ibdd_sr_decode(pc_15_11, llr, sched, sr_iters=10, plain_iters=2).sum()
        )
        errs["ideal"] += int(ideal_ibdd_decode(pc_15_11, harden(llr), tx).sum())
    assert errs["ideal"] <= errs["sr"] < errs["ibdd"]
    assert errs["ibdd"] > 0


def test_sr_decoder_clean_input_is_fixed_point(pc_15_11):
    llr = np.full((15, 15), 7.5)  # confidently all-zero
    out = ibdd_sr_decode(
        pc_15_11, llr, ScalingSchedule.constant(2.0, 4), sr_iters=4, plain_iters=1
    )
    assert not out.any()


def test_sr_decoder_rejects_nan_llrs(pc_15_11):
    """A NaN LLR has no sign: decoding refuses it instead of reading bit 0."""
    llr = np.full((15, 15), 7.5)
    llr[6, :] = np.nan
    with pytest.raises(ValueError, match="NaN"):
        ibdd_sr_decode(pc_15_11, llr, ScalingSchedule.constant(2.0, 10))


def test_sr_decoder_rejects_short_schedule(pc_15_11):
    llr = np.full((15, 15), 7.5)
    with pytest.raises(ValueError):
        ibdd_sr_decode(pc_15_11, llr, ScalingSchedule.constant(2.0, 3), sr_iters=5)


def test_observer_counts_follow_early_exit(pc_15_11):
    """A decodable input exits after the first full iteration."""
    llr = np.full((15, 15), 7.5)
    llr[2, 3] = -1.0  # one weak error the component verdict can override
    calls = []
    ibdd_sr_decode(
        pc_15_11,
        llr,
        ScalingSchedule.constant(2.0, 6),
        sr_iters=6,
        plain_iters=0,
        observer=lambda st, it, psi: calls.append((st, it)),
    )
    assert calls == [("row", 1), ("col", 1)]
