"""Staircase encoding, windowed decoding, and schedule derivation."""

import numpy as np
import pytest

import oracles
from ibddlab import product, staircase
from ibddlab.bch import build_bch
from ibddlab.channel import harden, make_params, transmit
from ibddlab.sim import ScheduleUnavailable, schedule_for_window
from ibddlab.staircase import (
    StaircaseCode,
    WindowConfig,
    WindowSchedule,
    encode_stream,
    staircase_encode_block,
    window_decode,
)

# toy stream geometry used throughout: (30,20) component, 15x15 blocks


@pytest.fixture(scope="module")
def sc_30_20(code_30_20):
    return StaircaseCode(code_30_20)


@pytest.fixture(scope="module")
def sc_254_230(code_254_230):
    return StaircaseCode(code_254_230)


@pytest.fixture(scope="module")
def toy_schedule(sc_30_20):
    from ibddlab.de import auto_profile

    return schedule_for_window(
        auto_profile(sc_30_20.component),
        4.0,
        sc_30_20.rate,
        window_blocks=4,
        sr_iters=10,
    )


def _default_cfg(schedule, window_blocks=4, sr_iters=10, plain_iters=2):
    return WindowConfig(
        window_blocks=window_blocks,
        sr_iters=sr_iters,
        plain_iters=plain_iters,
        schedule=schedule,
    )


# ---------------------------------------------------------------------------
# geometry and encoding


def test_staircase_geometry(sc_30_20, sc_254_230):
    assert sc_30_20.block_size == 15
    assert sc_30_20.info_cols == 5
    assert sc_30_20.rate == pytest.approx(1 - 2 * 10 / 30)
    assert sc_254_230.block_size == 127
    assert sc_254_230.info_cols == 103
    assert sc_254_230.rate == pytest.approx(1 - 2 * 24 / 254)


def test_staircase_rejects_bad_components(code_15_7):
    with pytest.raises(ValueError):
        StaircaseCode(code_15_7)  # odd length
    with pytest.raises(ValueError):
        StaircaseCode(build_bch(5, 4, shorten=1))  # (30,10): k <= n/2


def test_encode_block_makes_codeword_rows(sc_30_20, rng):
    comp = sc_30_20.component
    b = sc_30_20.block_size
    prev = rng.integers(0, 2, size=(b, b), dtype=np.uint8)
    info = rng.integers(0, 2, size=(b, sc_30_20.info_cols), dtype=np.uint8)
    blk = staircase_encode_block(sc_30_20, prev, info)
    assert blk.shape == (b, b)
    rows = np.concatenate([prev.T, blk], axis=1)
    assert np.all(comp.is_codeword(rows))
    # systematic: the info columns appear verbatim
    np.testing.assert_array_equal(blk[:, : sc_30_20.info_cols], info)


def test_encode_stream_chains(sc_30_20, rng):
    b, ic = sc_30_20.block_size, sc_30_20.info_cols
    infos = [rng.integers(0, 2, size=(b, ic), dtype=np.uint8) for _ in range(5)]
    blocks = encode_stream(sc_30_20, infos)
    assert len(blocks) == 6
    assert not blocks[0].any()  # stream starts from the known zero block
    comp = sc_30_20.component
    for prev, cur in zip(blocks, blocks[1:]):
        rows = np.concatenate([prev.T, cur], axis=1)
        assert np.all(comp.is_codeword(rows))


def test_encode_block_validates_shapes(sc_30_20, rng):
    b = sc_30_20.block_size
    good_info = np.zeros((b, sc_30_20.info_cols), dtype=np.uint8)
    with pytest.raises(ValueError):
        staircase_encode_block(sc_30_20, np.zeros((b, b - 1), dtype=np.uint8), good_info)
    with pytest.raises(ValueError):
        staircase_encode_block(
            sc_30_20, np.zeros((b, b), dtype=np.uint8), good_info[:, :-1]
        )


@pytest.mark.parametrize("bad", [2, 257, -1, 0.5])
def test_encode_rejects_non_binary(sc_30_20, bad):
    """Blocks hold bits: neither the previous block nor the information
    array may hold a 2 (encoded as itself), an int64 257 or -1 (cast to 1
    and 255) or a 0.5 (cast to 0)."""
    b, ic = sc_30_20.block_size, sc_30_20.info_cols
    dtype = np.asarray(bad).dtype
    for which in (0, 1):
        arrays = [np.zeros((b, b), dtype=dtype), np.zeros((b, ic), dtype=dtype)]
        arrays[which][3, 4] = bad
        with pytest.raises(ValueError, match="only 0 and 1"):
            staircase_encode_block(sc_30_20, *arrays)
    info = np.zeros((b, ic), dtype=dtype)
    info[0, 0] = bad
    with pytest.raises(ValueError, match="only 0 and 1"):
        encode_stream(sc_30_20, [np.zeros((b, ic), dtype=np.uint8), info])


# ---------------------------------------------------------------------------
# schedule derivation


def test_schedule_for_window_shape(toy_schedule):
    assert isinstance(toy_schedule, WindowSchedule)
    assert toy_schedule.ebn0_db == 4.0
    early, steady = toy_schedule.early, toy_schedule.steady
    assert steady.shape == (4, 10)
    for sched in early:
        assert sched.shape == (4, 10)
    # slides at and past the horizon reuse the steady schedule
    horizon = toy_schedule.steady_slide
    np.testing.assert_array_equal(
        toy_schedule.weights_for_slide(horizon + 3), steady
    )
    if horizon > 1:
        np.testing.assert_array_equal(
            toy_schedule.weights_for_slide(1), early[0]
        )
    with pytest.raises(ValueError):
        toy_schedule.weights_for_slide(0)


def test_schedule_unavailable_when_de_stalls(sc_254_230):
    """At 1.0 dB miscorrections swamp the boundary gain for the long code:
    the window recursion does not improve on the channel and no schedule
    should be derived."""
    from ibddlab.de import auto_profile

    prof = auto_profile(sc_254_230.component)
    with pytest.raises(ScheduleUnavailable):
        schedule_for_window(
            prof, 1.0, sc_254_230.rate, window_blocks=4, sr_iters=10
        )


@pytest.mark.parametrize("window", [1, 0])
def test_schedule_for_window_refuses_short_window(sc_30_20, prof_30_20, window):
    with pytest.raises(ValueError, match="at least two blocks"):
        schedule_for_window(prof_30_20, 4.0, sc_30_20.rate, window_blocks=window, sr_iters=4)


def test_degenerate_two_block_window(sc_30_20, rng):
    from ibddlab.de import auto_profile

    sched = schedule_for_window(
        auto_profile(sc_30_20.component), 4.2, sc_30_20.rate,
        window_blocks=2, sr_iters=8,
    )
    assert sched.steady.shape == (2, 8)
    cfg = WindowConfig(window_blocks=2, sr_iters=8, plain_iters=2, schedule=sched)
    blocks = encode_stream(sc_30_20, [
        rng.integers(0, 2, size=(15, 5), dtype=np.uint8) for _ in range(6)
    ])
    llrs = [np.where(b > 0, -9.0, 9.0) for b in blocks[1:]]
    out = window_decode(sc_30_20, llrs, cfg, mode="ibdd_sr")
    for got, want in zip(out, blocks[1:]):
        np.testing.assert_array_equal(got, want)


def test_window_config_validation(toy_schedule):
    with pytest.raises(ValueError):
        WindowConfig(window_blocks=1, sr_iters=10, plain_iters=2, schedule=toy_schedule)
    with pytest.raises(ValueError):
        # schedule shape (4, 10) cannot serve a 5-block window
        WindowConfig(window_blocks=5, sr_iters=10, plain_iters=2, schedule=toy_schedule)
    with pytest.raises(ValueError):
        WindowConfig(window_blocks=4, sr_iters=9, plain_iters=2, schedule=toy_schedule)
    for iters in ({"sr_iters": -1}, {"plain_iters": -2}):
        with pytest.raises(ValueError, match="nonnegative"):
            WindowConfig(window_blocks=4, **iters)
    with pytest.raises(ValueError, match="one shape"):
        # an early array that would be read through its top-left (4, 10) corner
        WindowSchedule(early=(np.ones((6, 12)),), steady=np.ones((4, 10)), steady_slide=2,
                       ebn0_db=4.0, rate=0.5)
    sched = WindowSchedule(early=([[1] * 10] * 4,), steady=[[2] * 10] * 4, steady_slide=2,
                           ebn0_db=4.0, rate=0.5)  # lists are taken as float arrays
    assert sched.weights_for_slide(1).dtype == sched.steady.dtype == float


# ---------------------------------------------------------------------------
# windowed decoding


def _noisy_stream(code, rng, n_blocks, ebn0_db, mode_rate=None):
    """Blocks 0..N plus channel LLRs for the data blocks 1..N (the decoder
    supplies its own terminator)."""
    b, ic = code.block_size, code.info_cols
    infos = [rng.integers(0, 2, size=(b, ic), dtype=np.uint8) for _ in range(n_blocks)]
    blocks = encode_stream(code, infos)
    params = make_params(ebn0_db, mode_rate if mode_rate is not None else code.rate)
    llrs = [transmit(blk, params, rng) for blk in blocks[1:]]
    return blocks, llrs


def test_clean_stream_identity(sc_30_20, toy_schedule, rng):
    blocks = encode_stream(sc_30_20, [
        rng.integers(0, 2, size=(15, 5), dtype=np.uint8) for _ in range(8)
    ])
    llrs = [np.where(b > 0, -8.0, 8.0) for b in blocks[1:]]
    cfg = _default_cfg(toy_schedule)
    for mode in ("ibdd", "ibdd_sr"):
        out = window_decode(sc_30_20, llrs, cfg, mode=mode)
        assert len(out) == 8
        for got, want in zip(out, blocks[1:]):
            np.testing.assert_array_equal(got, want)
    out = window_decode(sc_30_20, llrs, cfg, mode="ideal", transmitted=blocks[1:])
    for got, want in zip(out, blocks[1:]):
        np.testing.assert_array_equal(got, want)


def test_single_flip_corrected(sc_30_20, toy_schedule, rng):
    blocks = encode_stream(sc_30_20, [
        rng.integers(0, 2, size=(15, 5), dtype=np.uint8) for _ in range(6)
    ])
    llrs = [np.where(b > 0, -8.0, 8.0) for b in blocks[1:]]
    llrs[3][7, 2] *= -1.0  # one confident flip inside the stream
    cfg = _default_cfg(toy_schedule)
    out = window_decode(sc_30_20, llrs, cfg, mode="ibdd_sr")
    for got, want in zip(out, blocks[1:]):
        np.testing.assert_array_equal(got, want)


def test_short_stream_below_window(sc_30_20, toy_schedule, rng):
    """Streams shorter than the window still decode (the window shrinks)."""
    blocks = encode_stream(sc_30_20, [
        rng.integers(0, 2, size=(15, 5), dtype=np.uint8) for _ in range(2)
    ])
    llrs = [np.where(b > 0, -8.0, 8.0) for b in blocks[1:]]
    out = window_decode(sc_30_20, llrs, cfg=_default_cfg(toy_schedule), mode="ibdd_sr")
    assert len(out) == 2
    for got, want in zip(out, blocks[1:]):
        np.testing.assert_array_equal(got, want)


def test_emitted_blocks_are_final(sc_30_20, toy_schedule, rng):
    """Decoding is causal: block b is emitted by the window over blocks
    b..b+W-1, so cutting the stream after block b+W-1 leaves the first b
    emitted blocks unchanged -- nothing later writes them back."""
    n_blocks, window = 10, 4
    blocks, llrs = _noisy_stream(sc_30_20, rng, n_blocks, 4.0)
    cfg = _default_cfg(toy_schedule, window_blocks=window)
    for mode in ("ibdd", "ibdd_sr", "ideal"):
        full = window_decode(sc_30_20, llrs, cfg, mode=mode, transmitted=blocks[1:])
        assert any(np.any(got != harden(llr)) for got, llr in zip(full, llrs))  # it decoded
        for b in range(1, n_blocks - window + 2):
            cut = b + window - 1
            head = window_decode(sc_30_20, llrs[:cut], cfg, mode=mode,
                                 transmitted=blocks[1 : cut + 1])
            for got, want in zip(head[:b], full[:b]):
                np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("bad", [np.nan, -1.0, np.inf])
@pytest.mark.parametrize("where", ["steady", "early"])
def test_window_schedule_rejects_bad_weights(bad, where):
    """Negative and non-finite weights are refused, in the steady array and
    in every early one, like a product-code ScalingSchedule's."""
    good = np.ones((4, 10))
    steady = np.full((4, 10), bad) if where == "steady" else good
    early = (good, np.full((4, 10), bad)) if where == "early" else ()
    with pytest.raises(ValueError, match="finite and nonnegative"):
        WindowSchedule(early=early, steady=steady, steady_slide=len(early) + 1,
                       ebn0_db=4.0, rate=0.5)
    WindowSchedule(early=(), steady=np.zeros((4, 10)), steady_slide=1,
                   ebn0_db=4.0, rate=0.5)  # all-zero weights stay valid


@pytest.mark.parametrize("early,steady_slide", [((), 5), ((), 0), ((np.ones((4, 10)),), 1),
                                                ((np.ones((4, 10)),), 3)])
def test_window_schedule_rejects_steady_slide_off_early(early, steady_slide):
    """``weights_for_slide`` reads ``steady`` from slide len(early) + 1 on,
    so a ``steady_slide`` naming any other slide is refused when the schedule
    is built."""
    with pytest.raises(ValueError, match="steady_slide"):
        WindowSchedule(early=early, steady=np.ones((4, 10)), steady_slide=steady_slide,
                       ebn0_db=4.0, rate=0.5)


def test_zero_weight_window_equals_hardening(sc_30_20, rng):
    """All-zero weights with no plain rounds reproduce the channel decision."""
    sched = WindowSchedule(
        early=(),
        steady=np.zeros((4, 10)),
        steady_slide=1,
        ebn0_db=4.0,
        rate=sc_30_20.rate,
    )
    cfg = WindowConfig(window_blocks=4, sr_iters=10, plain_iters=0, schedule=sched)
    _, llrs = _noisy_stream(sc_30_20, rng, 7, 4.0)
    out = window_decode(sc_30_20, llrs, cfg, mode="ibdd_sr")
    assert len(out) == len(llrs)
    for got, llr in zip(out, llrs):
        np.testing.assert_array_equal(got, harden(llr))


def test_mode_ordering_under_noise(sc_30_20, toy_schedule, rng):
    """Aggregate bit errors: genie <= scaled <= plain, strictly at 4 dB."""
    cfg = _default_cfg(toy_schedule)
    errs = {"ibdd": 0, "ibdd_sr": 0, "ideal": 0}
    for _ in range(12):
        blocks, llrs = _noisy_stream(sc_30_20, rng, 12, 4.0)
        for mode in errs:
            out = window_decode(
                sc_30_20, llrs, cfg, mode=mode,
                transmitted=blocks[1:] if mode == "ideal" else None,
            )
            errs[mode] += sum(
                int(np.sum(got != want)) for got, want in zip(out, blocks[1:])
            )
    assert errs["ideal"] <= errs["ibdd_sr"] < errs["ibdd"]
    assert errs["ibdd"] > 0


def test_window_decode_rejects_unknown_mode(sc_30_20, toy_schedule):
    llrs = [np.full((15, 15), 9.0) for _ in range(4)]
    with pytest.raises(ValueError):
        window_decode(sc_30_20, llrs, _default_cfg(toy_schedule), mode="chase")
    with pytest.raises(ValueError):
        window_decode(sc_30_20, llrs, _default_cfg(toy_schedule), mode="ideal")


def test_window_decode_rejects_inconsistent_inputs(sc_30_20, toy_schedule):
    """ibdd_sr without a schedule or without a scaled iteration, blocks of the
    wrong shape, and transmitted blocks that do not align are refused."""
    llrs = np.full((4, 15, 15), 9.0)
    with pytest.raises(ValueError, match="schedule"):
        window_decode(sc_30_20, llrs, _default_cfg(None), mode="ibdd_sr")
    no_scaled = WindowSchedule(early=(), steady=np.zeros((4, 0)), steady_slide=1,
                               ebn0_db=4.0, rate=sc_30_20.rate)
    with pytest.raises(ValueError, match="sr_iters"):
        window_decode(sc_30_20, llrs, _default_cfg(no_scaled, sr_iters=0), mode="ibdd_sr")
    for shape in ((4, 15, 14), (15, 15), (1, 1, 4, 15, 15)):
        with pytest.raises(ValueError, match="blocks"):
            window_decode(sc_30_20, np.full(shape, 9.0), _default_cfg(toy_schedule), "ibdd")
    with pytest.raises(ValueError, match="align"):
        window_decode(sc_30_20, llrs, _default_cfg(toy_schedule), "ideal",
                      np.zeros((3, 15, 15), dtype=np.uint8))


@pytest.mark.parametrize("bad", [2, 0.5, -1.0])
def test_window_genie_rejects_non_binary_transmitted(sc_30_20, toy_schedule, bad):
    """The genie's transmitted blocks hold bits, as the product decoders
    require: a 2 is not decoded as itself, a 0.5 as 0, nor an all -1.0
    stack as 255s."""
    tx = np.zeros((4, 15, 15))
    tx[2, 4, 9] = bad
    if bad == -1.0:
        tx[:] = bad
    with pytest.raises(ValueError, match="only 0 and 1"):
        window_decode(sc_30_20, np.full((4, 15, 15), 9.0), _default_cfg(toy_schedule),
                      "ideal", tx)


def test_window_decode_rejects_nan_llrs(sc_30_20, toy_schedule):
    """A NaN LLR has no sign: decoding refuses it instead of reading bit 0."""
    llrs = [np.full((15, 15), 9.0) for _ in range(4)]
    llrs[2][4, :] = np.nan
    for mode in ("ibdd", "ibdd_sr"):
        with pytest.raises(ValueError, match="NaN"):
            window_decode(sc_30_20, llrs, _default_cfg(toy_schedule), mode=mode)


@pytest.mark.parametrize("random_info", [False, True])
@pytest.mark.parametrize("window", [2, 4, 7])
def test_stack_matches_stream_oracle(sc_30_20, prof_30_20, rng, monkeypatch, window, random_info):
    """A stack of streams decodes each stream bit for bit as the per-stream
    loop does, in every mode, while its streams leave a slide's round loop
    at different rounds."""
    sched = schedule_for_window(prof_30_20, 4.0, sc_30_20.rate, window, sr_iters=10)
    cfg = _default_cfg(sched, window_blocks=window)
    snrs = np.linspace(4.0, 5.5, 6)  # from rarely to mostly converging windows
    if random_info:
        streams = [_noisy_stream(sc_30_20, rng, 10, e) for e in snrs]
    else:
        zero = np.zeros((15, 15), dtype=np.uint8)
        streams = [([zero] * 11, [transmit(zero, make_params(e, sc_30_20.rate), rng)
                                  for _ in range(10)]) for e in snrs]
    tx = np.array([blocks[1:] for blocks, _ in streams])
    llr = np.array([llrs for _, llrs in streams])
    rule = product.line_flips
    for mode in ("ibdd", "ibdd_sr", "ideal"):
        active = []

        def spy(comp, words, synd, act, *args):
            active.append(len(act))
            return rule(comp, words, synd, act, *args)

        monkeypatch.setattr(product, "line_flips", spy)
        got = window_decode(sc_30_20, llr, cfg, mode=mode, transmitted=tx)
        monkeypatch.undo()
        want = [oracles.window_decode(sc_30_20, lf, cfg, mode, tf) for lf, tf in zip(llr, tx)]
        np.testing.assert_array_equal(got, np.array(want))
        assert any(0 < n < len(llr) for n in active)  # streams finish a slide apart


@pytest.mark.parametrize("window", [2, 4, 7])
def test_flat_kernel_matches_triple_oracle(sc_30_20, prof_30_20, rng, monkeypatch, window):
    """On every group call of every slide, in every mode, the flat-index
    kernel and the partner-offset ``copies`` flip the same bits of the
    pair-major words as the (f, i, j) oracle kernel and its ``copies`` on
    the same state.  The calls cover streams that leave a slide early,
    flips in slot 0's frozen left half, which neither writes, and flips in
    block N, which has no second copy."""
    sched = schedule_for_window(prof_30_20, 4.0, sc_30_20.rate, window, sr_iters=10)
    cfg = _default_cfg(sched, window_blocks=window)
    streams = [_noisy_stream(sc_30_20, rng, 10, e) for e in np.linspace(4.0, 5.5, 6)]
    tx = np.array([blocks[1:] for blocks, _ in streams])
    llr = np.array([llrs for _, llrs in streams])
    half, seen = sc_30_20.block_size, []
    for mode in ("ibdd", "ibdd_sr", "ideal"):
        calls = oracles.kernel_spy(monkeypatch, "staircase")
        window_decode(sc_30_20, llr, cfg, mode=mode, transmitted=tx)
        monkeypatch.undo()
        assert any(partial for *_, partial, _ in calls)
        seen += calls
    assert any(g == lo and np.any(c < half) for g, lo, _, _, c in seen)
    assert any(g == last - 1 and np.any(c >= half) for g, _, last, _, c in seen)


@pytest.mark.parametrize("ebn0_db", [3.0, 3.5, 4.0])
def test_sr_ties_zeros_and_infinities_match_stream_oracle(sc_30_20, ebn0_db):
    """With LLRs and weights on one 0.5 grid, and LLRs of +-0 and +-inf, the
    stacked window decoder equals the per-stream loop, whose verdict is
    ``combine_decision`` on every bit."""
    rng = np.random.default_rng([30, int(10 * ebn0_db)])
    llr = np.array([oracles.tie_grid_llrs(_noisy_stream(sc_30_20, rng, 10, ebn0_db)[1], rng)
                    for _ in range(6)])
    grid = np.arange(0.0, 6.5, 0.5)
    sched = WindowSchedule(early=(rng.choice(grid, (4, 10)),), steady=rng.choice(grid, (4, 10)),
                           steady_slide=2, ebn0_db=ebn0_db, rate=sc_30_20.rate)
    cfg = _default_cfg(sched)
    got = window_decode(sc_30_20, llr, cfg)
    want = [oracles.window_decode(sc_30_20, lf, cfg) for lf in llr]
    np.testing.assert_array_equal(got, np.array(want))
    assert np.any(got != harden(llr))  # it decoded


def test_stalled_stream_stops_each_slide_at_its_fixed_point(sc_30_20, toy_schedule,
                                                            monkeypatch):
    """A 3x3 error grid in block 3 gives every affected word t+1 errors, which
    neither BDD nor the genie changes.  Each of the four slides whose window
    holds a pair of block 3 runs its weight-free rounds as one call, which
    ends after one round, and every mode decodes as the per-stream loop."""
    llr = np.full((6, 15, 15), 8.0)
    llr[2][np.ix_([0, 1, 2], [0, 1, 2])] = -8.0
    tx = np.zeros(llr.shape, dtype=np.uint8)
    rule, calls = product.line_flips, []

    def spy(*args):
        calls.append(1)
        return rule(*args)

    monkeypatch.setattr(product, "line_flips", spy)
    cfg = _default_cfg(toy_schedule)
    for mode in ("ibdd", "ideal", "ibdd_sr"):
        calls.clear()
        got = window_decode(sc_30_20, llr, cfg, mode=mode, transmitted=tx)
        np.testing.assert_array_equal(got, oracles.window_decode(sc_30_20, llr, cfg, mode, tx))
        assert got.sum() == 9  # stuck where it started
        if mode != "ibdd_sr":
            assert len(calls) == 4 + 4 + 4 + 3  # one round of each window's pairs


def test_scaled_window_stops_in_its_equal_weights(sc_30_20, rng, monkeypatch):
    """With no plain tail a window position skips the scaled rounds that weigh
    as a round that changes no bit, and stops once they reach the last one.
    The steady schedule keeps the channel for two rounds (weight 0 changes
    no bit) and ends in three equal columns, a different weight per pair: a
    stack decodes as the per-stream loop.  On a stalled stream (|LLR| 8, above
    every weight) each of the four slides whose window holds block 3 runs 3
    of its 6 rounds: round 1 changes nothing and round 2 weighs as it does;
    round 3 runs, as round 4 weighs otherwise; round 4 changes nothing and
    rounds 5 and 6 weigh as it does, so the call ends.  Its windows hold 4, 4,
    4 and 3 pairs: 3 * (4 + 4 + 4 + 3) = 45 group calls."""
    steady = np.array([[0, 0, w, v, v, v] for w, v in [(2, 3), (5, 4), (3, 6), (6, 5)]], float)
    sched = WindowSchedule(early=(), steady=steady, steady_slide=1, ebn0_db=4.0,
                           rate=sc_30_20.rate)
    cfg = _default_cfg(sched, sr_iters=6, plain_iters=0)
    llr = np.array([_noisy_stream(sc_30_20, rng, 10, e)[1] for e in np.linspace(3.5, 5.0, 6)])
    got = window_decode(sc_30_20, llr, cfg)
    np.testing.assert_array_equal(got, np.array([oracles.window_decode(sc_30_20, lf, cfg)
                                                 for lf in llr]))
    assert np.any(got != harden(llr))  # it decoded
    stalled = np.full((6, 15, 15), 8.0)
    stalled[2][np.ix_([0, 1, 2], [0, 1, 2])] = -8.0  # t+1 errors in every affected word
    rule, calls = product.line_flips, []

    def spy(*args):
        calls.append(1)
        return rule(*args)

    monkeypatch.setattr(product, "line_flips", spy)
    got = window_decode(sc_30_20, stalled, cfg)
    np.testing.assert_array_equal(got, oracles.window_decode(sc_30_20, stalled, cfg))
    assert got.sum() == 9 and len(calls) == 3 * (4 + 4 + 4 + 3)


@pytest.mark.parametrize("weights,where,value,rounds", [
    ([9.0, 8.0, 9.0, 10.0, 11.0, 12.0], None, None, 4),
    ([9.0, 10.0, 11.0, 12.0, 13.0, 14.0], None, None, 2),
    ([9.0, 10.0, 11.0, 12.0, 13.0, 14.0], (1, 4, 5, 6), np.inf, 7),
    ([9.0, 10.0, 11.0, 12.0, 13.0, 14.0], (0, 2, 0, 0), -np.inf, 7),
], ids=["tie", "above", "plus-inf", "minus-inf"])
def test_weights_above_the_largest_llr_decide_alike(sc_30_20, monkeypatch, weights, where,
                                                    value, rounds):
    """A stack of a stalled stream and a clean one, every |LLR| 8, with 6
    scaled rounds and 2 plain ones; pair j weighs ``weights`` + j/2.  No round
    changes a bit.  Weights above the stack's largest |LLR| decide every bit
    alike, so round 1 skips the later scaled rounds of such weights, and plain
    round 1 skips plain round 2: above: round 1 and plain round 1 run.  tie:
    slot 0's weight 8 in round 2 ties every |LLR|, which keeps the channel,
    so rounds 2 and 3 run, round 3 skips rounds 4-6, and plain round 1 runs:
    4 rounds.  An infinite LLR, +inf on a bit of the clean stream or -inf on
    an error, makes the largest |LLR| inf and merges nothing: all 6 scaled
    rounds and plain round 1 run.  Each round is one group call per pair of
    the four slides whose window holds block 3, of 4, 4, 4 and 3 pairs, and
    each stream decodes as the per-stream loop."""
    steady = np.array(weights) + np.arange(4)[:, None] / 2
    sched = WindowSchedule(early=(), steady=steady, steady_slide=1, ebn0_db=4.0,
                           rate=sc_30_20.rate)
    cfg = _default_cfg(sched, sr_iters=6, plain_iters=2)
    llr = np.full((2, 6, 15, 15), 8.0)
    llr[0, 2][np.ix_([0, 1, 2], [0, 1, 2])] = -8.0  # t+1 errors in every affected word
    if where is not None:
        llr[where] = value
    rule, calls = product.line_flips, []

    def spy(*args):
        calls.append(1)
        return rule(*args)

    monkeypatch.setattr(product, "line_flips", spy)
    got = window_decode(sc_30_20, llr, cfg)
    np.testing.assert_array_equal(got, np.array([oracles.window_decode(sc_30_20, lf, cfg)
                                                 for lf in llr]))
    assert got.sum() == 9 and len(calls) == rounds * (4 + 4 + 4 + 3)


def test_one_iterate_call_per_window_position(sc_30_20, toy_schedule, rng, monkeypatch):
    """Each window position of a 2-stream, N-block stack is one ``iterate``
    call in every mode, the scaled and the weight-free rounds together."""
    n_blocks = 8
    streams = [_noisy_stream(sc_30_20, rng, n_blocks, 4.0) for _ in range(2)]
    llr = np.array([s[1] for s in streams])
    tx = np.array([s[0][1:] for s in streams])
    real, calls = staircase.iterate, []

    def spy(comp, words, synd, copies, iters, lo, hi, *args, **kwargs):
        calls.append((lo, iters))
        return real(comp, words, synd, copies, iters, lo, hi, *args, **kwargs)

    monkeypatch.setattr(staircase, "iterate", spy)
    for mode in ("ibdd", "ibdd_sr", "ideal"):
        calls.clear()
        window_decode(sc_30_20, llr, _default_cfg(toy_schedule), mode=mode, transmitted=tx)
        assert calls == [(lo, 12) for lo in range(n_blocks)], mode


def test_kept_pair_syndromes_are_exact(sc_30_20, toy_schedule, rng, monkeypatch):
    """Every line of every stream the verdict rule visits carries the
    syndrome word of its current bits, dirty or clean (its odd syndromes
    from the row oracle's powers, packed)."""
    rule = product.line_flips
    lines = []

    def checked(comp, words, synd, act, *args):
        want = oracles.pack_syndromes(comp, oracles.word_syndromes(comp, words[act]))
        np.testing.assert_array_equal(synd[act], want)
        lines.append(int(np.count_nonzero(synd[act])))
        return rule(comp, words, synd, act, *args)

    monkeypatch.setattr(product, "line_flips", checked)
    llr = np.array([_noisy_stream(sc_30_20, rng, 12, 4.0)[1] for _ in range(4)])
    for mode in ("ibdd", "ibdd_sr"):
        lines.clear()
        window_decode(sc_30_20, llr, _default_cfg(toy_schedule), mode=mode)
        assert sum(lines) > 100
