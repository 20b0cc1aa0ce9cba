"""Product-code encoding and the iterative decoders, in particular the
scaled-reliability combining rule and its limiting behaviors."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ibddlab import product
from ibddlab.bch import bdd_decode_matrix, build_bch
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
from ibddlab.staircase import StaircaseCode, encode_stream

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


@pytest.mark.parametrize("shape", [(11, 10), (10, 11), (11,), (2, 11, 11)])
def test_pc_encode_refuses_wrong_information_shape(pc_15_11, shape):
    with pytest.raises(ValueError, match="expected 11x11 information array"):
        pc_encode(pc_15_11, np.zeros(shape, dtype=np.uint8))


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


@pytest.mark.parametrize("w_row,w_col", [(2.0, [1.0]), ([1.0], 2.0),
                                         (np.ones((2, 3)), np.ones(3)),
                                         (np.ones(3), np.ones((3, 1))),
                                         (np.ones(3), np.ones(5)), (np.ones(5), np.ones(3))])
def test_scaling_schedule_rejects_non_vector_weights(w_row, w_col):
    """One weight per iteration: 0-D or 2-D weights, and row and column
    lists of unequal length, are refused when the schedule is built, not by
    a broadcast error inside ``ibdd_sr_decode`` or by a cut to the shorter list."""
    with pytest.raises(ValueError, match="1-D"):
        ScalingSchedule(w_row, w_col)


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


def test_sr_decoder_rejects_no_scaled_iteration(pc_15_11):
    """With sr_iters = 0 no scaled iteration runs: refused, not decoded plain."""
    llr = np.full((15, 15), 7.5)
    with pytest.raises(ValueError, match="sr_iters"):
        ibdd_sr_decode(pc_15_11, llr, ScalingSchedule.constant(2.0, 0), sr_iters=0)


def test_decoders_reject_negative_iterations(pc_15_11):
    """A negative count would return the input undecoded as if decoded."""
    r = np.zeros((15, 15), dtype=np.uint8)
    r[4, 9] = 1
    llr = np.where(r > 0, -7.5, 7.5)
    for decode in (
        lambda: ibdd_decode(pc_15_11, r, iters=-3),
        lambda: ideal_ibdd_decode(pc_15_11, r, np.zeros_like(r), iters=-1),
        lambda: ibdd_sr_decode(pc_15_11, llr, ScalingSchedule.constant(2.0, 4), 4, -1),
    ):
        with pytest.raises(ValueError, match="nonnegative"):
            decode()


def test_ideal_rejects_misshapen_genie(pc_15_11):
    """A genie that does not match the received stack frame for frame is
    refused, with both shapes named, whichever frames have dirty lines."""
    for dirty in (0, 2):
        r = np.zeros((3, 15, 15), dtype=np.uint8)
        r[dirty, 4, 9] = 1
        for tx in (np.zeros((15, 15), np.uint8), np.zeros((2, 15, 15), np.uint8)):
            with pytest.raises(ValueError, match=re.escape(f"{tx.shape}") + r".*\(3, 15, 15\)"):
                ideal_ibdd_decode(pc_15_11, r, tx)


@pytest.mark.parametrize("bad", [2, 0.5, -1.0, 257])
def test_hard_decoders_reject_non_binary_input(pc_15_11, bad):
    """A hard-decision array holds bits: a 2 is not decoded as itself, a 0.5
    as 0, nor an all -1.0 array as 255s.  ``r`` and the genie's
    ``transmitted`` are refused, one frame or a stack, and so is an
    information array that ``pc_encode`` would have cast to uint8 (an int64
    257 to 1) or encoded as itself."""
    zeros = np.zeros((2, 15, 15))
    rx = zeros.copy()
    rx[1, 4, 9] = bad
    if bad == -1.0:
        rx[:] = bad
    for decode in (lambda: ibdd_decode(pc_15_11, rx), lambda: ibdd_decode(pc_15_11, rx[1]),
                   lambda: ideal_ibdd_decode(pc_15_11, rx, zeros),
                   lambda: ideal_ibdd_decode(pc_15_11, zeros, rx),
                   lambda: pc_encode(pc_15_11, rx[1, :11, :11].astype(np.asarray(bad).dtype))):
        with pytest.raises(ValueError, match="only 0 and 1"):
            decode()


def test_sr_flips_match_for_partial_and_full_items(pc_15_11):
    """Scaled reliability flips the same bits of an item, as the same flat
    indices in the same order, whether every item is active, where the
    message/channel mask compares whole arrays, or only some are, where it
    compares the active items' gathered copies."""
    comp, rng = pc_15_11.component, np.random.default_rng(9)
    _, llr = _channel_stack(pc_15_11, 3.0, 40, seed=9)
    hard = harden(llr)
    words = hard ^ (rng.random(hard.shape) < 0.02).astype(np.uint8)  # messages off the channel
    synd = comp.syndromes(words)
    full = product.line_flips(comp, words, synd, np.arange(40), 2.5, llr, hard)
    act = np.sort(rng.choice(40, 17, replace=False))
    part = product.line_flips(comp, words, synd, act, 2.5, llr, hard)
    keep = np.isin(full // words[0].size, act)
    assert 0 < keep.sum() < len(keep)
    np.testing.assert_array_equal(part, full[keep])


@pytest.mark.parametrize("scheme", ["product", "staircase"])
def test_genie_leaves_clean_lines_alone(scheme, code_15_7, code_30_20):
    """The genie reads every line of a block and moves only a line within t of
    its transmitted line: a line equal to it, and a line that is another
    codeword (2t+1 or more away), get no flip, in a product block and in a
    staircase pair [B_1^T, B_2], whether every item is active or some are."""
    rng = np.random.default_rng(4)
    if scheme == "product":
        comp = code_15_7
        tx = np.stack([pc_encode(ProductCode(comp), rng.integers(0, 2, (comp.k, comp.k)))
                       for _ in range(3)])
    else:
        comp, half = code_30_20, code_30_20.n // 2
        tx = np.stack([np.hstack([b[1].T, b[2]]) for b in (
            encode_stream(StaircaseCode(comp), rng.integers(0, 2, (2, half, comp.k - half)))
            for _ in range(3))])
    words = tx.copy()
    words[1, 0] ^= comp.encode(np.eye(comp.k, dtype=np.uint8)[3])  # another codeword
    words[1, 2, [4, 7]] ^= 1  # within t: restored
    synd = comp.syndromes(words)
    assert synd[1, 0] == 0 and synd[1, 2] != 0 and not synd[[0, 2]].any()
    want = (1 * words.shape[1] + 2) * comp.n + np.array([4, 7])
    for act in (np.arange(3), np.array([1, 2])):
        np.testing.assert_array_equal(
            np.sort(product.line_flips(comp, words, synd, act, genie=tx)), want)


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


# ---------------------------------------------------------------------------
# stacks of frames against the per-frame oracle


def _channel_stack(pc, ebn0_db, frames, seed):
    """Random product codewords and their channel LLRs, as (frames, n, n) stacks."""
    rng = np.random.default_rng(seed)
    params = make_params(ebn0_db, pc.rate)
    tx = np.stack([
        pc_encode(pc, rng.integers(0, 2, (pc.k, pc.k), dtype=np.uint8)) for _ in range(frames)
    ])
    return tx, np.stack([transmit(x, params, rng) for x in tx])


# a different weight for every pass: a pass that read another pass's weight would show
_SCHED = ScalingSchedule([3.0, 1.5, 3.5, 1.0, 2.5, 4.0, 1.2, 3.0, 2.0, 2.8],
                         [2.0, 3.2, 1.4, 3.8, 1.1, 2.6, 3.4, 1.8, 2.9, 2.2])

# (mode, batched decoder, per-frame oracle), each given (code, llr, tx)
_DECODERS = (
    ("ibdd", lambda pc, llr, tx, **kw: ibdd_decode(pc, harden(llr), **kw),
     lambda pc, llr, tx, **kw: oracles.frame_ibdd(pc, harden(llr), **kw)),
    ("ibdd_sr", lambda pc, llr, tx, **kw: ibdd_sr_decode(pc, llr, _SCHED, **kw),
     lambda pc, llr, tx, **kw: oracles.frame_ibdd_sr(pc, llr, _SCHED, **kw)),
    ("ideal", lambda pc, llr, tx: ideal_ibdd_decode(pc, harden(llr), tx),
     lambda pc, llr, tx: oracles.frame_ideal(pc, harden(llr), tx)),
)


@pytest.mark.parametrize("mode,batched,oracle", _DECODERS, ids=[d[0] for d in _DECODERS])
@pytest.mark.parametrize("m,t,snrs,frames", [
    (4, 1, (2.5, 3.5, 4.5), 40),
    (4, 2, (2.0, 3.0, 4.0), 40),
    (8, 3, (4.0, 4.3, 4.6), 2),
], ids=["15_11", "15_7", "255_231"])
def test_stack_matches_frame_oracle(mode, batched, oracle, m, t, snrs, frames):
    """Decoding a stack equals decoding each frame alone with the per-frame
    loop, on stacks whose frames stop at different iterations, never
    converge, or settle on a wrong codeword."""
    pc = ProductCode(build_bch(m, t))
    stacks = [_channel_stack(pc, snr, frames, seed=10 * m + i) for i, snr in enumerate(snrs)]
    tx = np.concatenate([s[0] for s in stacks])
    llr = np.concatenate([s[1] for s in stacks])
    got = batched(pc, llr, tx)
    assert got.shape == tx.shape
    stops, want = [], []
    for frame_llr, frame_tx in zip(llr, tx):
        halves = []
        kw = {} if mode == "ideal" else {"observer": lambda s, i, p: halves.append(s)}
        want.append(oracle(pc, frame_llr, frame_tx, **kw))
        stops.append(len(halves))
    np.testing.assert_array_equal(got, np.stack(want))
    if mode == "ideal":
        return
    codeword = np.array([pc.is_codeword(w) for w in want])
    wrong = (np.stack(want) != tx).any(axis=(1, 2))
    assert len({s for s, done in zip(stops, codeword) if done}) > 1  # different stop iterations
    assert np.any(~codeword)  # frames that never converge
    if m == 4:
        assert np.any(codeword & wrong)  # frames that settle on a wrong codeword


@pytest.mark.parametrize("batched", [d[1] for d in _DECODERS], ids=[d[0] for d in _DECODERS])
@pytest.mark.parametrize("m,t,snrs,frames", [
    (4, 1, (2.5, 3.5, 4.5), 40),
    (4, 2, (2.0, 3.0, 4.0), 40),
    (8, 3, (4.0, 4.3, 4.6), 2),
], ids=["15_11", "15_7", "255_231"])
def test_flat_kernel_matches_triple_oracle(monkeypatch, batched, m, t, snrs, frames):
    """On every group call, the flat-index kernel and the transpose
    ``copies`` flip the same bits of the group-major words as the (f, i, j)
    oracle kernel and its ``copies`` on the same state, also once only some
    frames are still decoding."""
    pc = ProductCode(build_bch(m, t))
    stacks = [_channel_stack(pc, snr, frames, seed=10 * m + i) for i, snr in enumerate(snrs)]
    tx = np.concatenate([s[0] for s in stacks])
    llr = np.concatenate([s[1] for s in stacks])
    calls = oracles.kernel_spy(monkeypatch, "product")
    batched(pc, llr, tx)
    assert any(partial for *_, partial, _ in calls)


@pytest.mark.parametrize("batched", [d[1] for d in _DECODERS], ids=[d[0] for d in _DECODERS])
def test_one_iterate_call_per_decode(pc_15_7, monkeypatch, batched):
    """A stack's whole decode is one ``iterate`` call in every mode: iBDD-SR's
    10 scaled rounds and 2 plain ones are one call of 12 rounds."""
    tx, llr = _channel_stack(pc_15_7, 3.0, 20, seed=5)
    real, rounds = product.iterate, []

    def spy(*args, **kwargs):
        rounds.append(args[4])
        return real(*args, **kwargs)

    monkeypatch.setattr(product, "iterate", spy)
    batched(pc_15_7, llr, tx)
    assert rounds == [12]


@pytest.mark.parametrize("m,t,snr", [(4, 1, 3.0), (4, 2, 2.0), (4, 2, 3.0)])
def test_sr_ties_zeros_and_infinities_match_frame_oracle(m, t, snr):
    """With LLRs and weights on one 0.5 grid, and LLRs of +-0 and +-inf, the
    stacked iBDD-SR decoder equals the per-frame loop, whose verdict is
    ``combine_decision`` on every bit."""
    pc = ProductCode(build_bch(m, t))
    rng = np.random.default_rng([m, t, int(10 * snr)])
    _, llr = _channel_stack(pc, snr, 60, seed=7 * m + t)
    llr = oracles.tie_grid_llrs(llr, rng)
    grid = np.arange(0.0, 6.5, 0.5)
    sched = ScalingSchedule(rng.choice(grid, 10), rng.choice(grid, 10))
    got = ibdd_sr_decode(pc, llr, sched)
    want = np.stack([oracles.frame_ibdd_sr(pc, frame, sched) for frame in llr])
    np.testing.assert_array_equal(got, want)
    assert np.any(got != harden(llr))  # it decoded


@pytest.mark.parametrize("m,t,snr,frames", [(4, 2, 2.5, 60), (8, 3, 4.2, 3)])
def test_kept_syndromes_are_exact(monkeypatch, m, t, snr, frames):
    """Every line of every frame the verdict rule visits carries the true
    syndrome word of its bits, dirty or clean (its odd syndromes from the
    row oracle's powers, packed), so the words the decoders keep up to date
    from flipped bits never drift from the stack."""
    pc = ProductCode(build_bch(m, t))
    tx, llr = _channel_stack(pc, snr, frames, seed=m)
    rule = product.line_flips
    lines = []

    def checked(comp, words, synd, act, *args):
        want = oracles.pack_syndromes(comp, oracles.word_syndromes(comp, words[act]))
        np.testing.assert_array_equal(synd[act], want)
        lines.append(int(np.count_nonzero(synd[act])))
        return rule(comp, words, synd, act, *args)

    monkeypatch.setattr(product, "line_flips", checked)
    ibdd_decode(pc, harden(llr))
    ibdd_sr_decode(pc, llr, _SCHED)
    assert len(lines) > 4 and sum(lines) > 0


def test_frame_observer_trace_matches_oracle(pc_15_7):
    """For one (n, n) frame the observer sees a prefix of the per-frame loop's
    (stage, iteration, array) calls, arrays in the caller's shape: the loop
    runs every round, the decoder stops at a fixed point, and every later
    call of the loop repeats the decoder's last array for its stage."""
    _, llr = _channel_stack(pc_15_7, 3.0, 20, seed=3)
    stopped = 0
    for frame in llr:
        for name, batched, oracle in _DECODERS[:2]:
            got, want = [], []
            batched(pc_15_7, frame, None, observer=lambda s, i, p: got.append((s, i, p.copy())))
            oracle(pc_15_7, frame, None, observer=lambda s, i, p: want.append((s, i, p.copy())))
            assert [g[:2] for g in got] == [w[:2] for w in want[:len(got)]], name
            for (_, _, a), (_, _, b) in zip(got, want):
                assert a.shape == (15, 15)
                np.testing.assert_array_equal(a, b)
            last = {s: p for s, _, p in got}
            for s, _, p in want[len(got):]:
                np.testing.assert_array_equal(p, last[s])
            stopped += len(want) > len(got)
    assert stopped  # some frame stopped at a fixed point before the loop did


def test_sr_trace_crosses_into_plain_tail(pc_15_7):
    """A frame that never converges is seen after every scaled and then every
    plain half-iteration, the plain tail numbering its iterations from 1."""
    rx = np.zeros((15, 15), dtype=np.uint8)
    rx[np.ix_([0, 1, 2], [0, 1, 2])] = 1  # a 3x3 grid: every affected word has t+1 errors
    llr = 7.5 * (1.0 - 2.0 * rx)  # the channel outvotes weight 0.5 everywhere
    calls, want = [], []
    ibdd_sr_decode(pc_15_7, llr, ScalingSchedule.constant(0.5, 2), sr_iters=2, plain_iters=1,
                   observer=lambda s, i, p: calls.append((s, i)))
    oracles.frame_ibdd_sr(pc_15_7, llr, ScalingSchedule.constant(0.5, 2), sr_iters=2,
                          plain_iters=1, observer=lambda s, i, p: want.append((s, i)))
    assert calls == want == [("row", 1), ("col", 1), ("row", 2), ("col", 2),
                             ("row", 1), ("col", 1)]


# ---------------------------------------------------------------------------
# the fixed-point exit: a round that changes no bit ends the call when every
# later round weighs as it does

# seven errors on a (15,11)^2 frame, found by a seeded search: from round 2 on,
# the columns flip back the six bits the rows flip
_OSCILLATING = [(1, 1), (1, 13), (3, 1), (3, 9), (6, 2), (8, 12), (8, 13)]


def _spy_flips(monkeypatch):
    """A list that gains the number of bits flipped by each ``line_flips`` call."""
    rule, sizes = product.line_flips, []

    def spy(*args):
        flips = rule(*args)
        sizes.append(len(flips))
        return flips

    monkeypatch.setattr(product, "line_flips", spy)
    return sizes


def test_oscillating_frame_stops_at_its_fixed_point(pc_15_11, monkeypatch):
    """Rows and columns flipping the same bits back is a fixed point of plain
    iBDD: the decoder stops after the first round that changes nothing, with
    the per-frame loop's result."""
    rx = np.zeros((15, 15), dtype=np.uint8)
    rx[tuple(np.transpose(_OSCILLATING))] = 1
    sizes = _spy_flips(monkeypatch)
    got = ibdd_decode(pc_15_11, rx, iters=12)
    np.testing.assert_array_equal(got, oracles.frame_ibdd(pc_15_11, rx, iters=12))
    assert not pc_15_11.is_codeword(got)
    assert len(sizes) < 2 * 12
    assert sizes[-2] == sizes[-1] > 0  # the last round flipped bits, and flipped them back


def test_stalled_genie_stops_after_one_round(pc_15_7, monkeypatch):
    """On a 3x3 error grid every affected word has t+1 errors, so the genie
    flips nothing: one round runs, and the result is the per-frame loop's."""
    rx = np.zeros((15, 15), dtype=np.uint8)
    rx[np.ix_([0, 1, 2], [0, 1, 2])] = 1
    tx = np.zeros_like(rx)
    sizes = _spy_flips(monkeypatch)
    got = ideal_ibdd_decode(pc_15_7, rx, tx, iters=12)
    np.testing.assert_array_equal(got, oracles.frame_ideal(pc_15_7, rx, tx, iters=12))
    assert sizes == [0, 0]


def test_scaled_round_that_flips_nothing_does_not_stop(pc_15_11, monkeypatch):
    """A scaled round that changes nothing is no fixed point: the next weight
    may flip bits.  Weight 0 keeps the channel, weight 8 outvotes it."""
    llr = np.full((15, 15), 3.0)
    llr[[2, 7, 11], [4, 9, 0]] = -1.0  # three weak errors, one per row and column
    sched = ScalingSchedule([0.0, 8.0], [0.0, 8.0])
    sizes = _spy_flips(monkeypatch)
    got = ibdd_sr_decode(pc_15_11, llr, sched, sr_iters=2, plain_iters=0)
    np.testing.assert_array_equal(got, oracles.frame_ibdd_sr(pc_15_11, llr, sched, 2, 0))
    assert sizes[:2] == [0, 0] and sizes[2] > 0
    assert not got.any()  # the second weight corrected all three


@pytest.mark.parametrize("sched,flips", [
    (ScalingSchedule([0.0, 0.0, 8.0], [0.0, 0.0, 8.0]), [0, 0, 3, 0]),
    (ScalingSchedule([0.0, 0.0, 0.0], [0.0, 0.0, 8.0]), [0, 0, 0, 3]),
], ids=["both", "columns"])
def test_no_change_before_the_last_weight_change_does_not_stop(pc_15_11, monkeypatch, sched,
                                                                flips):
    """With no plain tail, round 1 keeps the channel and changes no bit, and
    round 2 weighs as it does, so it is skipped.  A later weight differs, in
    both groups or in the columns only: the call runs on, and round 3's
    weight 8 corrects the three errors.  So 2 rounds make 4 group calls:
    round 1's rows and columns flip nothing, then round 3 flips the three bits
    in its rows, leaving its columns clean, or its rows keep the channel at
    weight 0 and its columns flip them."""
    llr = np.full((15, 15), 3.0)
    llr[[2, 7, 11], [4, 9, 0]] = -1.0  # three weak errors, one per row and column
    sizes = _spy_flips(monkeypatch)
    got = ibdd_sr_decode(pc_15_11, llr, sched, sr_iters=3, plain_iters=0)
    np.testing.assert_array_equal(got, oracles.frame_ibdd_sr(pc_15_11, llr, sched, 3, 0))
    assert sizes == flips
    assert not got.any()


@pytest.mark.parametrize("weight,rounds", [(2.0, 1), (4.0, 2)])
def test_stalled_frame_stops_in_constant_weights(pc_15_11, monkeypatch, weight, rounds):
    """With constant weights and no plain tail every later round weighs as
    this one, so a stalled frame stops after its first round that changes no
    bit, as the per-frame loop decodes it: weight 2 keeps the channel from
    round 1, and weight 4 outvotes it, so the oscillating frame flips its six
    bits back from round 2."""
    rx = np.zeros((15, 15), dtype=np.uint8)
    rx[tuple(np.transpose(_OSCILLATING))] = 1
    llr = 3.0 * (1.0 - 2.0 * rx)
    sched = ScalingSchedule.constant(weight, 8)
    sizes = _spy_flips(monkeypatch)
    got = ibdd_sr_decode(pc_15_11, llr, sched, sr_iters=8, plain_iters=0)
    np.testing.assert_array_equal(got, oracles.frame_ibdd_sr(pc_15_11, llr, sched, 8, 0))
    assert len(sizes) == 2 * rounds and not pc_15_11.is_codeword(got)


# (mode, rounds, decode(code, llr, **kw)) for every mode that takes an observer
_OBSERVED = (
    ("ibdd", 12, lambda pc, llr, **kw: ibdd_decode(pc, harden(llr), **kw)),
    ("ibdd_sr", 14, lambda pc, llr, **kw: ibdd_sr_decode(
        pc, llr, ScalingSchedule(np.linspace(0.5, 5.0, 10), np.linspace(1.0, 5.5, 10)),
        plain_iters=4, **kw)),
    ("ibdd_sr_constant", 10, lambda pc, llr, **kw: ibdd_sr_decode(
        pc, llr, ScalingSchedule.constant(4.0, 10), plain_iters=0, **kw)),
)


@pytest.mark.parametrize("rounds,decode", [d[1:] for d in _OBSERVED],
                         ids=[d[0] for d in _OBSERVED])
def test_observer_changes_no_round(pc_15_11, monkeypatch, rounds, decode):
    """On a stack that holds a stalled frame, a decode makes the same
    ``line_flips`` calls and returns the same array with and without an
    observer, which follows each group call once; the stack stops at its
    fixed point, before the last round."""
    _, llr = _channel_stack(pc_15_11, 4.5, 20, seed=8)
    rx = np.zeros((15, 15), dtype=np.uint8)
    rx[tuple(np.transpose(_OSCILLATING))] = 1
    llr = np.concatenate([llr, 8.0 * (1.0 - 2.0 * rx)[None]])  # it outvotes every weight
    rule, calls = product.line_flips, []

    def spy(comp, words, synd, act, *args):
        flips = rule(comp, words, synd, act, *args)
        calls.append((act.tolist(), np.sort(flips).tolist()))
        return flips

    monkeypatch.setattr(product, "line_flips", spy)
    plain = decode(pc_15_11, llr)
    unobserved, calls[:], seen = calls[:], [], []
    got = decode(pc_15_11, llr, observer=lambda s, i, p: seen.append((s, i)))
    np.testing.assert_array_equal(got, plain)
    assert calls == unobserved and len(seen) == len(calls)
    assert not pc_15_11.is_codeword(got[-1]) and len(calls) < 2 * rounds


def test_round_that_restores_syndromes_but_not_bits_does_not_stop(code_15_11):
    """Syndrome words that come back are not enough: the bits written must
    cancel in pairs.  Here the one line's error at position 0 is flipped
    together with u and v, where 0, u, v span a weight-3 codeword, so every
    round keeps the syndrome and moves the bits; two rounds restore the
    input, observed or not."""
    keys, n = code_15_11.position_keys, code_15_11.n
    u, v = next((u, v) for u in range(1, n) for v in range(u + 1, n)
                if keys[0] ^ keys[u] ^ keys[v] == 0)

    def copies(lo, g, x):  # the one flip, of position 0, also writes u and v
        return np.concatenate([x, x + u, x + v])

    start = np.zeros((1, 1, 1, n), dtype=np.uint8)  # one group of one item of one line
    start[..., 0] = 1
    for observer in (None, lambda g, ell: None):
        words = start.copy()
        product.iterate(code_15_11, words, code_15_11.syndromes(words), copies, 2, 0, 1,
                        observer=observer)
        np.testing.assert_array_equal(words, start)


def test_observer_sees_the_rounds_that_run_on_a_stalled_frame(pc_15_11, monkeypatch):
    """An observer changes no round: a stalled frame stops after its first
    round that changes nothing, observed or not, with the same ``line_flips``
    calls, so the observer sees 2 rounds of the 5 the per-frame loop runs."""
    rx = np.zeros((15, 15), dtype=np.uint8)
    rx[tuple(np.transpose(_OSCILLATING))] = 1
    sizes = _spy_flips(monkeypatch)
    plain = ibdd_decode(pc_15_11, rx, iters=5)
    unobserved, sizes[:] = sizes[:], []
    got = []
    out = ibdd_decode(pc_15_11, rx, iters=5, observer=lambda s, i, p: got.append((s, i)))
    np.testing.assert_array_equal(out, plain)
    np.testing.assert_array_equal(out, oracles.frame_ibdd(pc_15_11, rx, iters=5))
    assert sizes == unobserved and len(sizes) == 4
    assert got == [("row", 1), ("col", 1), ("row", 2), ("col", 2)]


@pytest.mark.parametrize("weights,where,value,rounds", [
    ([4.0, 4.0, 3.0, 4.0, 4.0, 4.0], None, None, 6),
    ([4.0, 4.5, 5.0, 6.0, 7.0, 8.0], None, None, 3),
    ([4.0, 4.5, 5.0, 6.0, 7.0, 8.0], (1, 0, 0), np.inf, 7),
    ([4.0, 4.5, 5.0, 6.0, 7.0, 8.0], (0, 1, 1), -np.inf, 7),
], ids=["tie", "above", "plus-inf", "minus-inf"])
def test_weights_above_the_largest_llr_decide_alike(pc_15_11, monkeypatch, weights, where,
                                                    value, rounds):
    """A stack of the oscillating frame and a clean one, every |LLR| 3, with
    6 scaled rounds and 2 plain ones.  Any weight above 3 outvotes the
    channel: round 1 flips bits, and in round 2 the columns flip back the
    bits the rows flip, a round that changes no bit.  Weights above the stack's largest |LLR| decide
    every bit alike, so that round skips the later scaled rounds of such
    weights, and plain round 1, which changes no bit, skips plain round 2:
    above: rounds 1, 2 and plain 1 run.  tie: weight 3 ties every |LLR|,
    which keeps the channel, so round 3 runs, then rounds 4 and 5 as 1 and 2,
    round 6 is skipped, and plain round 1 runs: 6 rounds.  An infinite LLR,
    +inf on a bit of the clean frame or -inf on an error, makes the largest
    |LLR| inf and merges nothing: the 6 scaled rounds and plain round 1 run.
    Each round is 2 group calls.  Each frame decodes as the per-frame loop,
    and an observer changes no call and sees the oscillating frame as the
    loop does in every round, skipped ones replayed, up to where it stops."""
    rx = np.zeros((15, 15), dtype=np.uint8)
    rx[tuple(np.transpose(_OSCILLATING))] = 1
    llr = np.stack([3.0 * (1.0 - 2.0 * rx), np.full((15, 15), 3.0)])
    if where is not None:
        llr[where] = value
    sched = ScalingSchedule(weights, weights)
    sizes = _spy_flips(monkeypatch)
    got = ibdd_sr_decode(pc_15_11, llr, sched, sr_iters=6, plain_iters=2)
    np.testing.assert_array_equal(
        got, np.stack([oracles.frame_ibdd_sr(pc_15_11, frame, sched, 6, 2) for frame in llr]))
    assert len(sizes) == 2 * rounds
    unobserved, sizes[:], seen, want = sizes[:], [], [], []
    ibdd_sr_decode(pc_15_11, llr, sched, 6, 2,
                   observer=lambda s, i, p: seen.append((s, i, p[0].copy())))
    oracles.frame_ibdd_sr(pc_15_11, llr[0], sched, 6, 2,
                          observer=lambda s, i, p: want.append((s, i, p.copy())))
    assert sizes == unobserved and len(seen) == 2 * 7  # plain round 2 ends the call
    for (stage, it, a), (w_stage, w_it, b) in zip(seen, want):
        assert (stage, it) == (w_stage, w_it)
        np.testing.assert_array_equal(a, b)


def test_decoders_leave_inputs_unchanged(pc_15_7):
    """The decoders read ``r``, ``llr`` and ``transmitted`` without copying
    them, one frame or a stack: none is written, and the decoded array
    shares no memory with any of them."""
    stack_tx, stack_llr = _channel_stack(pc_15_7, 2.5, 20, seed=6)
    for tx, llr in ((stack_tx, stack_llr), (stack_tx[0], stack_llr[0])):
        r = harden(llr)
        saved = [a.copy() for a in (r, llr, tx)]
        for out in (ibdd_decode(pc_15_7, r), ibdd_sr_decode(pc_15_7, llr, _SCHED),
                    ideal_ibdd_decode(pc_15_7, r, tx)):
            assert out.shape == r.shape
            assert not any(np.shares_memory(out, a) for a in (r, llr, tx))
        for a, b in zip((r, llr, tx), saved):
            np.testing.assert_array_equal(a, b)
    assert np.any(ibdd_decode(pc_15_7, harden(stack_llr)) != harden(stack_llr))  # it decoded


def test_stack_shapes(pc_15_11):
    """A (B, n, n) stack comes back as a stack, the observer sees the stack,
    an empty stack comes back empty, and an array of the wrong size is
    refused."""
    _, llr = _channel_stack(pc_15_11, 3.0, 5, seed=4)
    shapes = []
    out = ibdd_decode(pc_15_11, harden(llr), observer=lambda s, i, p: shapes.append(p.shape))
    assert out.shape == (5, 15, 15) and set(shapes) == {(5, 15, 15)}
    assert ibdd_sr_decode(pc_15_11, llr[:0], _SCHED).shape == (0, 15, 15)
    with pytest.raises(ValueError, match="15, 15"):
        ibdd_decode(pc_15_11, np.zeros((14, 14), dtype=np.uint8))
