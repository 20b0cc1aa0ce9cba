"""Staircase encoding, windowed decoding, and schedule derivation."""

import numpy as np
import pytest

from ibddlab.bch import build_bch
from ibddlab.channel import harden, make_params, transmit
from ibddlab.staircase import (
    ScheduleUnavailable,
    StaircaseCode,
    WindowConfig,
    WindowSchedule,
    encode_stream,
    schedule_for_window,
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
    """Once a block leaves the window it is never touched again."""
    blocks, llrs = _noisy_stream(sc_30_20, rng, 10, 5.0)
    snapshots = {}

    def observer(b, hard):
        snapshots[b] = hard[b].copy()

    out = window_decode(
        sc_30_20, llrs, _default_cfg(toy_schedule), mode="ibdd_sr", observer=observer
    )
    assert sorted(snapshots) == list(range(1, 11))
    for b, snap in snapshots.items():
        np.testing.assert_array_equal(out[b - 1], snap)


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


def test_window_decode_rejects_nan_llrs(sc_30_20, toy_schedule):
    """A NaN LLR has no sign: decoding refuses it instead of reading bit 0."""
    llrs = [np.full((15, 15), 9.0) for _ in range(4)]
    llrs[2][4, :] = np.nan
    for mode in ("ibdd", "ibdd_sr"):
        with pytest.raises(ValueError, match="NaN"):
            window_decode(sc_30_20, llrs, _default_cfg(toy_schedule), mode=mode)
