"""Monte-Carlo harness: statistics, reproducibility, stopping rules, and
result serialization."""

import dataclasses
import hashlib
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ibddlab import bch, de, product, sim
from ibddlab.sim import (
    BerPoint,
    ComponentSpec,
    SimConfig,
    SkippedPoint,
    bootstrap_ber_ci,
    interpolate_ebn0_at_ber,
    paired_gap_bootstrap,
    point_dict,
    results_json,
    run_curve,
    run_point,
    wilson_ci95,
)

TOY = ComponentSpec(m=4, t=1)


def toy_cfg(**over):
    base = dict(
        scheme="pc",
        component=TOY,
        ebn0_grid=(4.0,),
        min_error_events=50,
        max_frames=3000,
        seed=1,
    )
    base.update(over)
    return SimConfig(**base)


# ---------------------------------------------------------------------------
# config validation


def test_config_validation():
    with pytest.raises(ValueError):
        toy_cfg(scheme="polar")
    with pytest.raises(ValueError):
        toy_cfg(modes=("chase",))
    with pytest.raises(ValueError):
        toy_cfg(ebn0_grid=(5.0, 4.0))
    with pytest.raises(ValueError):
        toy_cfg(min_error_events=10)
    with pytest.raises(ValueError):
        toy_cfg(scheme="staircase", window_blocks=4, blocks_per_stream=5)
    with pytest.raises(ValueError, match="blocks_per_stream >= 7"):
        toy_cfg(scheme="staircase", component=ComponentSpec(5, 2, 1), window_blocks=4,
                blocks_per_stream=6)
    with pytest.raises(ValueError):
        toy_cfg(component=ComponentSpec(m=4, t=9))  # no information positions
    with pytest.raises(ValueError):
        toy_cfg(scheme="staircase")  # odd component length 15
    for bad in ({"sr_iters": -3}, {"plain_iters": -1}, {"sr_iters": 0, "plain_iters": 0},
                {"fixed_weight": -1.0},
                {"fixed_weight": float("nan")}, {"fixed_weight": float("inf")},
                {"seed": -1}, {"seed": 1.5}, {"seed": "3"}, {"seed": 2**64},
                {"max_frames": 2**32}, {"max_frames": 0},
                {"ebn0_grid": (4.0, float("nan"))}, {"ebn0_grid": (float("nan"),)},
                {"ebn0_grid": (4.0, float("inf"))}, {"ebn0_grid": (-float("inf"), 4.0)},
                {"ber_floor": float("nan")}, {"ber_floor": -1e-7},
                {"ber_floor": float("inf")}, {"ber_floor": 1.0}, {"scheme": ["pc"]}):
        with pytest.raises(ValueError):
            toy_cfg(**bad)
    # the extremes of the seed and frame budget ranges are valid
    toy_cfg(seed=0)
    toy_cfg(seed=2**64 - 1, max_frames=2**32 - 1, ber_floor=0.0)


@pytest.mark.parametrize(
    "field,value",
    [("max_frames", 100.5), ("min_error_events", 50.5), ("workers", True), ("sr_iters", 2.5),
     ("plain_iters", 2.0), ("seed", True), ("window_blocks", 4.0), ("blocks_per_stream", "20")],
)
def test_config_rejects_non_integer_counts(field, value):
    """Every int field of SimConfig refuses a float, a string or a bool,
    naming the field, before anything is decoded."""
    with pytest.raises(ValueError, match=f"^{field} must be an int"):
        toy_cfg(**{field: value})


@pytest.mark.parametrize(
    "kwargs,field",
    [({"m": 4.7, "t": 1}, "m"), ({"m": 4, "t": 1.0}, "t"), ({"m": 4, "t": True}, "t"),
     ({"m": 5, "t": 2, "shorten": 1.5}, "shorten")],
)
def test_component_spec_rejects_non_integer(kwargs, field):
    with pytest.raises(ValueError, match=f"^{field} must be an int"):
        ComponentSpec(**kwargs)


def test_config_numbers_by_one_rule():
    """Numpy integers fill the int fields, as ``build_bch`` takes them, and are
    stored as int; a float field takes any real but a bool, stored as a float,
    and refuses the rest by name."""
    spec = ComponentSpec(np.int64(4), np.uint8(1))
    assert spec == TOY and type(spec.m) is type(spec.t) is int
    cfg = toy_cfg(component=spec, seed=np.uint64(5), max_frames=np.int64(100),
                  fixed_weight=np.int64(2), ebn0_grid=(np.float32(4.5),), ber_floor=0)
    assert (cfg.seed, cfg.max_frames, cfg.fixed_weight, cfg.ebn0_grid) == (5, 100, 2.0, (4.5,))
    assert type(cfg.seed) is type(cfg.max_frames) is int
    assert type(cfg.fixed_weight) is type(cfg.ber_floor) is type(cfg.ebn0_grid[0]) is float
    for field, value in [("fixed_weight", True), ("fixed_weight", "2.0"), ("ber_floor", False),
                         ("ber_floor", np.bool_(False)), ("ebn0_grid", (True, 4.0)),
                         ("ebn0_grid", ("4",)), ("fixed_weight", 1j)]:
        with pytest.raises(ValueError, match=f"^{field} must be a real number"):
            toy_cfg(**{field: value})


def test_config_random_info_takes_only_bools():
    """``random_info`` takes a bool or a numpy bool, stored as a bool; a
    string such as "false", which is truthy, a 0 or a None is refused by name."""
    assert toy_cfg().random_info is False
    for value in (True, np.bool_(True)):
        assert toy_cfg(random_info=value).random_info is True
    assert toy_cfg(random_info=np.bool_(False)).random_info is False
    for value in ("false", 0, None):
        with pytest.raises(ValueError, match="^random_info must be a bool"):
            toy_cfg(random_info=value)


@pytest.mark.parametrize("field,value", [
    ("ebn0_grid", 4.0), ("ebn0_grid", "4.0"), ("ebn0_grid", {4.0}), ("ebn0_grid", np.float64(4)),
    ("modes", 3), ("modes", "ibdd"), ("modes", iter(["ibdd"])),
], ids=["grid-number", "grid-string", "grid-set", "grid-0d", "modes-number", "modes-string",
        "modes-iterator"])
def test_config_refuses_non_sequence_grid_and_modes(field, value):
    """A grid or modes that is no sequence, or is a str, is refused by name:
    not as "'float' object is not iterable", and "ibdd" not as the modes
    ('i', 'b', 'd', 'd').  A list or a 1-D array is a sequence."""
    with pytest.raises(ValueError, match=f"^{field} must be a sequence, got "):
        toy_cfg(**{field: value})
    cfg = toy_cfg(ebn0_grid=np.array([4.0, 4.5]), modes=["ibdd", "ideal"])
    assert (cfg.ebn0_grid, cfg.modes) == ((4.0, 4.5), ("ibdd", "ideal"))


@pytest.mark.parametrize("grid", [(), (4.0, 4.0), (3.0, 4.0, 4.0)], ids=["empty", "pair", "tail"])
def test_config_refuses_empty_or_repeated_grid(grid):
    """An empty grid would write a results file with no point, and a repeated
    point decodes the same frames twice under the same seed."""
    with pytest.raises(ValueError, match="^ebn0_grid must be nonempty and strictly ascending"):
        toy_cfg(ebn0_grid=grid)


@pytest.mark.parametrize("grid,point", [((4.0, 3200.0), 3200.0), ((-3200.0, 4.0), -3200.0)],
                         ids=["high", "low"])
@pytest.mark.parametrize("scheme,spec", [("pc", TOY), ("staircase", ComponentSpec(5, 2, 1))])
def test_config_refuses_a_point_with_no_channel(scheme, spec, grid, point):
    """A grid point whose E_b/N_0 gives no finite noise variance or LLR scale
    at the code's rate is refused with the config, naming the point, and not
    once the points before it have decoded."""
    with pytest.raises(ValueError, match=f"^Eb/N0 of {point} dB gives no finite"):
        toy_cfg(scheme=scheme, component=spec, ebn0_grid=grid)


@pytest.mark.parametrize("scheme,spec", [("pc", TOY), ("staircase", ComponentSpec(5, 2, 1))])
def test_config_rejects_ibdd_sr_without_scaled_iterations(scheme, spec):
    """With sr_iters = 0 there is no scaled iteration: ibdd_sr is refused in
    either scheme, and the other modes still run their plain rounds."""
    with pytest.raises(ValueError, match="sr_iters"):
        toy_cfg(scheme=scheme, component=spec, sr_iters=0)
    toy_cfg(scheme=scheme, component=spec, sr_iters=0, modes=("ibdd", "ideal"))


def test_config_rejects_repeated_modes():
    """A mode named twice would decode every frame once but count it twice:
    128 frames for 64, and a bootstrap over the duplicates."""
    with pytest.raises(ValueError, match="modes"):
        toy_cfg(modes=("ibdd", "ibdd"))
    with pytest.raises(ValueError, match="modes"):
        toy_cfg(modes=("ibdd_sr", "ideal", "ibdd_sr"))


@pytest.mark.parametrize("modes,over,message", [
    (("bogus",), {}, "modes"),
    (("ibdd", "ibdd"), {}, "modes"),
    ((), {}, "modes"),
    (("ibdd_sr",), {"sr_iters": 0, "modes": ("ibdd",)}, "sr_iters"),
], ids=["unknown", "repeated", "empty", "sr-without-scaled-iterations"])
def test_run_point_checks_modes_as_config_does(monkeypatch, modes, over, message):
    """``run_point``'s own ``modes`` obeys SimConfig's rules, and a bad one is
    refused before any set-up: no KeyError from the decoder table, and no
    failure deep in density evolution."""

    def refuse(*args, **kwargs):
        raise AssertionError("a refused point must not be set up")

    monkeypatch.setattr(sim, "_build_engine", refuse)
    with pytest.raises(ValueError, match=message):
        run_point(toy_cfg(**over), 4.0, modes=modes)


def test_component_spec_label():
    assert TOY.label == "n15k11t1"
    assert ComponentSpec(m=8, t=3, shorten=1).label == "n254k230t3"


def test_component_enumerated_once(monkeypatch):
    """Engines of one spec share one code, so the exact weight enumeration
    behind the (30,20) profile runs once per process, not once per point."""
    enumerated = []
    enumerate_exact = bch.weight_enumerator_exact

    def counting_enumerate(code):
        enumerated.append((code.n, code.k))
        return enumerate_exact(code)

    monkeypatch.setattr(de, "weight_enumerator_exact", counting_enumerate)
    ComponentSpec.build.cache_clear()
    cfg = SimConfig(
        scheme="staircase", component=ComponentSpec(m=5, t=2, shorten=1),
        ebn0_grid=(4.0,), modes=("ibdd_sr",), max_frames=1, window_blocks=4,
    )
    run_point(cfg, 4.0)
    run_point(cfg, 4.0)
    assert enumerated == [(30, 20)]


def test_profile_built_once_per_spec(monkeypatch):
    """Two points on one (255,231) spec share one DE profile."""
    built = []
    build = de.component_profile

    def counting_build(*args, **kwargs):
        built.append(args[:2])
        return build(*args, **kwargs)

    monkeypatch.setattr(de, "component_profile", counting_build)
    ComponentSpec.build.cache_clear()
    cfg = SimConfig(
        scheme="pc", component=ComponentSpec(m=8, t=3), ebn0_grid=(4.5,),
        modes=("ibdd_sr",), max_frames=1,
    )
    run_point(cfg, 4.5)
    run_point(cfg, 4.5)
    assert built == [(255, 3)]


@pytest.mark.parametrize("scheme,spec,ebn0,units",
                         [("pc", TOY, -2.0, 40), ("staircase", ComponentSpec(5, 2, 1), -10.0, 42)],
                         ids=["pc", "staircase"])
def test_product_skips_ibdd_sr_where_recursion_does_not_improve(scheme, spec, ebn0, units):
    """Far below threshold the recursion does not improve on the channel:
    ibdd_sr is reported as skipped, naming the point, while the other modes
    still decode it, with no weights (three 14-block staircase streams)."""
    cfg = toy_cfg(scheme=scheme, component=spec, ebn0_grid=(ebn0,), max_frames=40,
                  window_blocks=4)
    with pytest.warns(UserWarning, match=f"skipped at {ebn0} dB"):
        pts = run_point(cfg, ebn0)
    assert isinstance(pts["ibdd_sr"], SkippedPoint)
    assert f"not improving at {ebn0} dB" in pts["ibdd_sr"].reason
    assert all(isinstance(pts[m], BerPoint) and pts[m].frames == units
               for m in ("ibdd", "ideal"))


@pytest.mark.parametrize("scheme,spec", [("pc", TOY), ("staircase", ComponentSpec(5, 2, 1))])
def test_fixed_weight_skips_density_evolution(monkeypatch, scheme, spec):
    """A library SimConfig with a fixed weight decodes with it and derives no schedule."""

    def refuse(*args, **kwargs):
        raise AssertionError("a fixed weight needs no DE schedule")

    monkeypatch.setattr(sim, "run_gldpc", refuse)
    monkeypatch.setattr(sim, "schedule_for_window", refuse)
    cfg = SimConfig(
        scheme=scheme, component=spec, ebn0_grid=(4.0,), modes=("ibdd_sr",),
        fixed_weight=2.0, max_frames=1, window_blocks=4,
    )
    assert isinstance(run_point(cfg, 4.0)["ibdd_sr"], BerPoint)


@pytest.mark.parametrize("scheme,spec", [("pc", TOY), ("staircase", ComponentSpec(5, 2, 1))])
def test_build_engine_sets_up_without_decoding(monkeypatch, scheme, spec):
    """``sim._build_engine(cfg, ebn0_db, modes)`` does all of a point's set-up
    (code, DE profile, weight schedule) and decodes no frame: the benchmark's
    set-up probe times exactly this call."""

    def refuse(*args, **kwargs):
        raise AssertionError("set-up must not draw noise or decode")

    for name in ("frame_states", "noise_to_llr", "ibdd_decode", "ibdd_sr_decode",
                 "ideal_ibdd_decode", "window_decode"):
        monkeypatch.setattr(sim, name, refuse)
    cfg = SimConfig(scheme=scheme, component=spec, ebn0_grid=(4.0,), window_blocks=4)
    engine = sim._build_engine(cfg, 4.0, sim.MODES)
    assert engine.skip_reason is None
    assert engine.modes == sim.MODES
    monkeypatch.undo()
    counts = engine.run_frames(range(2))
    assert all(counts[m].shape == (2, engine.units_per_frame) for m in sim.MODES)


# ---------------------------------------------------------------------------
# paired-noise frame generation


@pytest.mark.parametrize("seed", [0, 5, 2**40 + 3, 2**64 - 1])
def test_frame_states_match_default_rng(seed):
    """The vectorized seeder reproduces numpy's SeedSequence and PCG64
    seeding; a numpy release that changes either fails here."""
    states = sim.frame_states(seed, range(2000))
    for i, state in enumerate(states):
        assert state == np.random.default_rng([seed, i]).bit_generator.state, i


def test_frame_states_top_index_and_any_order():
    indices = [2**32 - 1, 17, 0, 17]
    states = sim.frame_states(9, indices)
    assert states == [np.random.default_rng([9, i]).bit_generator.state for i in indices]
    assert sim.frame_states(9, []) == []


def test_random_streams_are_pinned():
    """The draws every committed statistic rests on, as literals: frame i's
    noise from ``default_rng([seed, i])`` and the resampled frame indices of
    the two bootstraps.  A numpy release that changes any of them fails here
    rather than silently moving published numbers."""
    assert np.random.default_rng([11, 0]).standard_normal(4).tolist() == [
        0.03419276725318417, 1.3597475403099617, 1.2247210785859324, -0.5103070767876675]
    assert np.random.default_rng([11, 1]).standard_normal(4).tolist() == [
        0.8259747663854217, 0.8395288639963259, 0.6667017328919227, 1.7254517460736793]
    # the bootstraps draw (rows, n) frame indices from these generators
    assert np.random.default_rng([11, 0xB0075]).integers(0, 1000, (2, 4)).tolist() == [
        [979, 904, 563, 789], [930, 453, 319, 277]]
    assert np.random.default_rng([11, 0xD1FF]).integers(0, 1000, (2, 4)).tolist() == [
        [553, 488, 333, 718], [369, 584, 464, 881]]


# SHA-256 prefixes of repr(stat_key()) per mode (ibdd, ibdd_sr, ideal): the
# (15,11)^2 code at 4.0 dB, 400 frames, all-zero and random information; the
# (30,20) staircase, W = 4, two streams at 4.0 dB; two (255,231)^2 frames at 4.5 dB
_PINNED = [
    (dict(scheme="pc", component=TOY, max_frames=400), 4.0,
     ("03bd421c7075495a", "82c644bf79167635", "65516810236738a1")),
    (dict(scheme="pc", component=TOY, max_frames=400, random_info=True), 4.0,
     ("ac651c6c329d8ec9", "dcf880a724fa328a", "9e4d692590f5a84a")),
    (dict(scheme="staircase", component=ComponentSpec(5, 2, 1), window_blocks=4,
          max_frames=28), 4.0,
     ("31db1181ad633c0c", "8287f8262741dad0", "ff34ab0ebf834485")),
    (dict(scheme="pc", component=ComponentSpec(8, 3), max_frames=2), 4.5,
     ("041b6f51aca1cf6e", "16b925d4f6ac2394", "5a269a7728d75de9")),
]


def test_statistics_are_pinned():
    """Every statistic of each mode at four points, as digest literals: the
    syndrome table, the closed-form locator, the genie and the window
    decoder all feed them.  A change meant to keep the numbers must keep
    these; one that moves them must say which and why."""
    for over, ebn0, want in _PINNED:
        cfg = SimConfig(ebn0_grid=(ebn0,), min_error_events=10**9, **over)
        got = run_point(cfg, ebn0)
        assert tuple(hashlib.sha256(repr(got[m].stat_key()).encode()).hexdigest()[:16]
                     for m in sim.MODES) == want, over


# ``product.line_flips`` calls of (ibdd, ibdd_sr, ideal) at each _PINNED point
_PINNED_CALLS = [(8, 24, 8), (8, 24, 12), (258, 604, 286), (14, 8, 6)]


def test_group_calls_are_pinned(monkeypatch):
    """How many group calls each mode makes at the _PINNED points, decoding
    alone the frames it decodes beside the others: a timing-free record of
    the rounds that run.  A change that keeps the statistics but runs more
    or fewer rounds shows here as a count.

    Staircase ibdd_sr, 10 scaled rounds and 2 plain ones, makes 604 calls:
    609 if each window read the whole stack's largest |LLR|, 13.37, less 2
    at slide 19 and 3 at slide 20, whose windows read only 10.42, so every
    weight above 10.42 decides as inf.  Slide 20's one pair weighs 64, 64,
    10.98, 11.81, 14.91 and more: round 1 changes no bit and now skips all
    nine later scaled rounds, then plain round 1 runs, 2 calls; at 13.37,
    rounds 3, 4 and 5 ran too, 5 calls.  Slide 19's second pair weighs 11.84
    in round 5 and the first 14.91, now both inf like every weight of rounds
    6-10, so round 5 skips round 6, which ran at 13.37: two pairs' calls fewer."""
    rule, calls = product.line_flips, []

    def spy(*args):
        calls.append(1)
        return rule(*args)

    monkeypatch.setattr(product, "line_flips", spy)
    for (over, ebn0, _), want in zip(_PINNED, _PINNED_CALLS, strict=True):
        cfg = SimConfig(ebn0_grid=(ebn0,), min_error_events=10**9, **over)
        got = []
        for m in sim.MODES:
            calls.clear()
            run_point(cfg, ebn0, modes=(m,))
            got.append(len(calls))
        assert tuple(got) == want, over


@pytest.mark.parametrize("seed,indices", [(-1, [0]), (2**64, [0]), (1, [-1]), (1, [2**32])])
def test_frame_states_reject_out_of_range(seed, indices):
    with pytest.raises(ValueError):
        sim.frame_states(seed, indices)


@pytest.mark.parametrize("seed", [0, 5, 2**40 + 3])
@pytest.mark.parametrize("random_info", [False, True])
@pytest.mark.parametrize("scheme,spec", [("pc", TOY), ("staircase", ComponentSpec(5, 2, 1))])
def test_stacked_draw_matches_per_frame_oracle(scheme, spec, random_info, seed):
    """One decoder call's frames, drawn as a stack, are bit for bit the frames
    of one default_rng([seed, i]) and one transmit per unit, however the
    indices are split into calls."""
    cfg = SimConfig(scheme=scheme, component=spec, ebn0_grid=(4.0,), window_blocks=4,
                    blocks_per_stream=9, seed=seed, random_info=random_info)
    engine = sim._build_engine(cfg, 4.0, ("ibdd",))
    want_tx, want_llr = oracles.frame_stack_per_frame(cfg, 4.0, range(7))
    tx, llr = engine.draw(range(0, 7))
    assert tx.dtype == np.uint8 and llr.dtype == np.float64
    assert tx.shape == llr.shape == want_llr.shape == (7, *engine.shape)
    np.testing.assert_array_equal(tx, want_tx)
    np.testing.assert_array_equal(llr.view(np.uint64), want_llr.view(np.uint64))
    (tx0, llr0), (tx1, llr1) = engine.draw(range(0, 3)), engine.draw(range(3, 7))
    np.testing.assert_array_equal(np.concatenate([tx0, tx1]), want_tx)
    np.testing.assert_array_equal(np.concatenate([llr0, llr1]).view(np.uint64),
                                  want_llr.view(np.uint64))
    assert random_info == bool(tx.any())


# ---------------------------------------------------------------------------
# interval estimators


def test_wilson_ci95_reference():
    lo, hi = wilson_ci95(0, 100)
    assert lo == pytest.approx(0.0, abs=1e-12) and 0.0 < hi < 0.05
    lo, hi = wilson_ci95(100, 100)
    assert 0.95 < lo < 1.0 and hi == pytest.approx(1.0, abs=1e-12)
    # textbook case: 8 successes in 16 trials
    lo, hi = wilson_ci95(8, 16)
    assert lo == pytest.approx(0.2799, abs=2e-3)
    assert hi == pytest.approx(0.7201, abs=2e-3)
    assert wilson_ci95(0, 0) == (0.0, 1.0)


@given(k=st.integers(0, 500), n=st.integers(1, 500))
@settings(max_examples=200, deadline=None)
def test_wilson_contains_point_estimate(k, n):
    k = min(k, n)
    lo, hi = wilson_ci95(k, n)
    assert 0.0 <= lo and hi <= 1.0
    assert lo <= k / n + 1e-12 and k / n <= hi + 1e-12


def test_bootstrap_ber_ci_contains_mean(rng):
    counts = rng.poisson(3.0, size=400).astype(np.int64)
    bits = 225
    lo, hi = bootstrap_ber_ci(counts, bits, seed=7)
    ber = counts.sum() / (len(counts) * bits)
    assert lo <= ber <= hi
    assert (lo, hi) == bootstrap_ber_ci(counts, bits, seed=7)  # deterministic


def test_paired_gap_bootstrap_detects_difference(rng):
    a = rng.poisson(5.0, size=600).astype(np.int64)
    b = np.maximum(a - rng.integers(1, 3, size=600), 0).astype(np.int64)
    lo, hi = paired_gap_bootstrap(a, b, 225, seed=3)
    assert 0.0 < lo <= hi  # a strictly worse than b
    same_lo, same_hi = paired_gap_bootstrap(a, a, 225, seed=3)
    assert same_lo == same_hi == 0.0


def test_paired_gap_bootstrap_needs_paired_frames():
    """Counts of different lengths are not paired and are refused; no
    frames give the zero interval."""
    with pytest.raises(ValueError, match="same frames"):
        paired_gap_bootstrap([1, 2, 3], [1, 2], 225, seed=1)
    assert paired_gap_bootstrap([], [], 225, seed=1) == (0.0, 0.0)


@pytest.mark.parametrize("n", [1, 7, 2016, 2017, 5000])
def test_bootstrap_chunks_match_oneshot(n):
    """Chunked resampling continues one random stream: the intervals equal
    those of the single (N_BOOT, n) index draw to the bit."""
    rng = np.random.default_rng(n)
    a = rng.poisson(3.0, size=n).astype(np.int64)
    a[0] += 1  # at least one error, so the interval is not short-circuited
    b = np.maximum(a - rng.integers(0, 2, size=n), 0)
    assert bootstrap_ber_ci(a, 225, seed=5) == oracles.bootstrap_ber_ci_oneshot(a, 225, 5)
    assert paired_gap_bootstrap(a, b, 225, seed=5) == oracles.paired_gap_bootstrap_oneshot(
        a, b, 225, 5
    )


def test_bootstrap_memory_bounded():
    """The one-shot index matrix would need 160 MB per array at 20,000 frames."""
    counts = np.random.default_rng(0).poisson(1.0, size=20_000).astype(np.int64)
    tracemalloc.start()
    try:
        bootstrap_ber_ci(counts, 225, seed=1)
        paired_gap_bootstrap(counts, counts[::-1], 225, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20, peak


# tracemalloc peaks in bytes of one warm run_point, measured with the
# engines that stacked decoding replaced: one product frame, or one staircase
# stream, per decoder call
_PEAK_PER_FRAME_ENGINE = {"pc255": 4_026_887, "pc15": 17_615_135, "sc30": 1_374_427}
_PEAK_POINTS = {
    # the pc255 benchmark point: 10 frames of (255,231)^2 at 4.5 dB
    "pc255": (SimConfig(scheme="pc", component=ComponentSpec(8, 3), ebn0_grid=(4.5,),
                        min_error_events=10**9, max_frames=10, seed=21000), 4.5),
    # the pc15 benchmark point: (15,11)^2 at 4.0 dB to 100 frame errors per mode
    "pc15": (SimConfig(scheme="pc", component=TOY, ebn0_grid=(4.0,),
                       min_error_events=100, seed=11000), 4.0),
    # the sc30 benchmark point: 6 streams (84 counted blocks) of (30,20), W=4, at 4.0 dB
    "sc30": (SimConfig(scheme="staircase", component=ComponentSpec(5, 2, 1),
                       ebn0_grid=(4.0,), min_error_events=10**9, max_frames=84,
                       seed=12000, window_blocks=4), 4.0),
}


@pytest.mark.parametrize("name", sorted(_PEAK_POINTS))
def test_batched_decoding_memory_bounded(name):
    """Decoding many frames or streams per call stays within 10 % of the
    one-per-call engine's allocation peak: calls are capped at DECODE_CALL_BITS."""
    cfg, ebn0_db = _PEAK_POINTS[name]
    run_point(cfg, ebn0_db)  # fills the code and profile caches
    tracemalloc.start()
    try:
        run_point(cfg, ebn0_db)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * _PEAK_PER_FRAME_ENGINE[name], peak


@pytest.mark.parametrize("name", ["pc255", "pc15", "sc30"])
def test_call_size_never_enters_statistics(monkeypatch, name):
    """Each frame or stream decodes as it would alone, so the statistics do
    not depend on how many a decode call stacks: at 2^16 bits per call (one
    (255,231)^2 frame, 291 (15,11)^2 frames), at 2^12 (one (30,20) staircase
    stream) and at 2^18 (four frames, 1,165 frames, 58 streams), every mode's
    stat_key() agrees."""
    cfg, ebn0_db = _PEAK_POINTS[name]
    if name == "pc255":
        cfg = dataclasses.replace(cfg, max_frames=6)  # calls of 4 and 2 frames at 2^18
    keys = []
    for bits in (1 << 12 if name == "sc30" else 1 << 16, 1 << 18):
        monkeypatch.setattr(sim, "DECODE_CALL_BITS", bits)
        keys.append({m: pt.stat_key() for m, pt in run_point(cfg, ebn0_db).items()})
    assert keys[0] == keys[1]


@pytest.mark.parametrize("cpus", [None, 3], ids=["this-machine", "three"])
def test_pool_is_capped_at_the_usable_cpus(monkeypatch, cpus):
    """A pool starts all its processes at once, so ``workers`` far above the
    CPUs this process may use builds one of at most that many, with
    workers=1's statistics.  The pool is a fake that runs its initializer
    and maps in this process: no process is started."""
    built = []

    class InProcessPool:
        def __init__(self, max_workers, initializer, initargs):
            built.append(max_workers)
            initializer(*initargs)

        def map(self, fn, calls):
            return map(fn, calls)

        def shutdown(self):
            pass

    monkeypatch.setattr(sim, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(sim, "_ENGINE", None)
    if cpus is not None:
        monkeypatch.setattr(sim.os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
    usable = len(sim.os.sched_getaffinity(0)) if hasattr(sim.os, "sched_getaffinity") else (
        sim.os.cpu_count() or 1)
    cfg = toy_cfg(max_frames=600)
    want = {m: pt.stat_key() for m, pt in run_point(cfg, 4.0).items()}
    assert built == []
    got = run_point(dataclasses.replace(cfg, workers=10**6), 4.0)
    assert built == ([usable] if usable > 1 else [])
    assert {m: pt.stat_key() for m, pt in got.items()} == want


def test_pc255_decodes_four_frames_per_call():
    """Four (255,231)^2 frames fit one decode call within the memory bound
    above; fewer would pay every per-call cost more often per frame."""
    cfg, ebn0_db = _PEAK_POINTS["pc255"]
    assert sim._build_engine(cfg, ebn0_db, ("ibdd",)).frames_per_call == 4


_STEPWISE_POINTS = {
    **_PEAK_POINTS,
    "pc15-3.5dB": (toy_cfg(ebn0_grid=(3.5,)), 3.5),
    "pc15-5.0dB-2workers": (toy_cfg(ebn0_grid=(5.0,), min_error_events=60, workers=2), 5.0),
    "sc30-50errors": (SimConfig(scheme="staircase", component=ComponentSpec(5, 2, 1),
                                ebn0_grid=(4.0,), window_blocks=4), 4.0),
    "sc30-3.6dB-2workers": (SimConfig(scheme="staircase", component=ComponentSpec(5, 2, 1),
                                      ebn0_grid=(3.6,), min_error_events=80, max_frames=5000,
                                      workers=2, window_blocks=4), 3.6),
    # budget-capped: the last call is clipped to the 300-frame budget
    "pc15-3.5dB-300frames": (toy_cfg(ebn0_grid=(3.5,), max_frames=300, seed=3), 3.5),
    # a budget of 20 counted blocks, not a multiple of a stream's 14: two streams
    "sc30-20blocks": (SimConfig(scheme="staircase", component=ComponentSpec(5, 2, 1),
                                ebn0_grid=(4.0,), min_error_events=10**9, max_frames=20,
                                window_blocks=4), 4.0),
}


@pytest.mark.parametrize("name", list(_STEPWISE_POINTS))
def test_run_point_matches_stepwise_oracle(name):
    """Merging plan batches that no stop check separates decodes the frames
    that checking after every batch decodes, so every statistic agrees: at
    the three benchmark points, and at error-stopped and budget-capped points
    with one and two workers."""
    cfg, ebn0_db = _STEPWISE_POINTS[name]
    bits_per_unit = sim._build_engine(cfg, ebn0_db, ("ibdd",)).bits_per_unit
    points = run_point(cfg, ebn0_db)
    expected = oracles.run_point_stepwise(cfg, ebn0_db)
    assert set(points) == set(expected)
    for mode, counts in expected.items():
        pt, frames = points[mode], len(counts)
        assert (pt.frames, pt.frame_bit_errors) == (frames, tuple(counts.tolist()))
        bits, errors, bit_errors = frames * bits_per_unit, np.count_nonzero(counts), counts.sum()
        assert pt.stat_key() == (
            cfg.scheme, cfg.component.label, mode, ebn0_db, frames, errors, bits,
            bit_errors, bit_errors / bits, errors / frames, wilson_ci95(errors, frames),
            bootstrap_ber_ci(counts, bits_per_unit, cfg.seed), cfg.seed,
            tuple(counts.tolist()),
        )


def test_unseparated_batches_share_calls(monkeypatch):
    """Plan batches that no stop check separates share decode calls: the sc30
    point's six streams decode in one call, the pc15 point's first three
    batches (32 + 64 + 128 frames, below its 100 errors) in one, and the
    10-frame pc255 point, already one batch, in calls of 4, 4 and 2.  A
    budget clips the batch that reaches it: 300 pc15 frames end in a call
    of 76, and 20 sc30 blocks take the two streams that cover them."""
    sizes = []
    run_frames = sim._Engine.run_frames

    def recording(self, indices):
        sizes.append(len(indices))
        return run_frames(self, indices)

    monkeypatch.setattr(sim._Engine, "run_frames", recording)

    def calls(name):
        sizes.clear()
        run_point(*_STEPWISE_POINTS[name])
        return list(sizes)

    assert calls("sc30") == [6]
    assert calls("pc15") == [224, 256, 512, 1024]
    assert calls("pc255") == [4, 4, 2]
    assert calls("pc15-3.5dB-300frames") == [96, 128, 76]
    assert calls("sc30-20blocks") == [2]


def test_library_writes_nothing_to_stdout(capfd, prof_255_231):
    """The benchmark reads its result from the last line of standard output,
    so simulation and threshold search print nothing there."""
    staircase = SimConfig(scheme="staircase", component=ComponentSpec(5, 2, 1),
                          ebn0_grid=(4.0,), max_frames=28, window_blocks=4)
    for cfg in (toy_cfg(max_frames=300), staircase):
        assert set(run_point(cfg, 4.0)) == set(sim.MODES)
    rate = 1.0 - 2.0 * 24 / 255
    de.threshold_search("gldpc", prof_255_231, rate, bracket=(3.5, 4.5))
    de.threshold_search("sc", prof_255_231, rate, bracket=(3.5, 4.5), window=6)
    assert capfd.readouterr().out == ""


# ---------------------------------------------------------------------------
# interpolation and gain


def _mk_point(mode, ebn0, ber):
    return BerPoint(
        scheme="pc", component="n15k11t1", mode=mode, ebn0_db=ebn0,
        frames=1000, frame_errors=100, bits_simulated=225_000,
        bit_errors=int(ber * 225_000), ber=ber, fer=0.1,
        wilson_ci95=(0.08, 0.12), ber_ci95=(ber * 0.8, ber * 1.2),
        seed=1, wall_seconds=0.0,
        frame_bit_errors=(),
    )


@pytest.mark.parametrize("field,value,message", [
    ("ber", "x", "ber must be a real number"),
    ("frames", "10", "frames must be an integer"),
    ("mode", "bogus", "mode must be one of"),
    ("ber_ci95", (1e-3,), "ber_ci95 must be two real numbers"),
    ("wilson_ci95", ("a", "b"), "wilson_ci95 must be a real number"),
    ("ebn0_db", float("nan"), "ebn0_db must be finite"),
    ("bits_simulated", -1, "bit_errors <= bits_simulated"),
    ("bit_errors", 225_001, "bit_errors <= bits_simulated"),
    ("ber", -0.0625, "ber must lie in"),
    ("ber_ci95", (2e-3, 1e-3), "ber_ci95 must lie in"),
    ("wilson_ci95", (float("nan"), 0.5), "wilson_ci95 must lie in"),
], ids=["ber", "frames", "mode", "ber_ci95", "wilson_ci95", "ebn0-nan", "bits-negative",
        "bit-errors-above", "ber-negative", "ci-reversed", "wilson-nan"])
def test_ber_point_refuses_wrong_values(field, value, message):
    """A BerPoint holds only what run_point writes, so a results file read
    back with a wrong-typed or out-of-range value is refused with a
    ValueError naming the field."""
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(_mk_point("ibdd", 4.0, 1e-3), **{field: value})


def test_interpolate_log_linear_hand_case():
    pts = [_mk_point("ibdd", 4.0, 1e-2), _mk_point("ibdd", 5.0, 1e-4)]
    # exactly halfway in log-BER
    assert interpolate_ebn0_at_ber(pts, 1e-3) == pytest.approx(4.5, abs=1e-12)
    assert interpolate_ebn0_at_ber(pts, 1e-5) is None
    assert interpolate_ebn0_at_ber(pts[:1], 1e-2) is None
    # both bracketing points at the target: the lower one's E_b/N_0
    flat = [_mk_point("ibdd", 4.0, 1e-3), _mk_point("ibdd", 5.0, 1e-3)]
    assert interpolate_ebn0_at_ber(flat, 1e-3) == 4.0


# ---------------------------------------------------------------------------
# run_point stopping and reproducibility


@pytest.fixture(scope="module")
def toy_point():
    cfg = toy_cfg()
    return cfg, run_point(cfg, 4.0)


def test_run_point_reaches_error_budget(toy_point):
    cfg, pts = toy_point
    assert set(pts) == {"ibdd", "ibdd_sr", "ideal"}
    for mode, pt in pts.items():
        assert isinstance(pt, BerPoint), mode
        assert pt.frame_errors >= 50 or pt.frames == cfg.max_frames
        assert pt.bits_simulated == pt.frames * 225
        assert pt.bit_errors == sum(pt.frame_bit_errors)
        assert pt.ber == pt.bit_errors / pt.bits_simulated
        assert pt.wilson_ci95[0] <= pt.fer <= pt.wilson_ci95[1]
        assert pt.ber_ci95[0] <= pt.ber <= pt.ber_ci95[1]
    # the known ordering at 4 dB
    assert pts["ideal"].ber < pts["ibdd_sr"].ber < pts["ibdd"].ber


def test_run_point_is_reproducible(toy_point):
    cfg, first = toy_point
    again = run_point(cfg, 4.0)
    for mode in first:
        assert first[mode].stat_key() == again[mode].stat_key()


def test_run_point_worker_count_invariance(toy_point):
    cfg, first = toy_point
    two = run_point(toy_cfg(workers=2), 4.0)
    for mode in first:
        assert first[mode].stat_key() == two[mode].stat_key()


def test_mode_subset_sees_same_frames(toy_point):
    """Dropping modes must not change another mode's per-frame results
    (paired LLRs are a function of (seed, frame) only)."""
    cfg, first = toy_point
    only = run_point(cfg, 4.0, modes=("ibdd_sr",))["ibdd_sr"]
    full = first["ibdd_sr"]
    n = min(only.frames, full.frames)
    assert only.frame_bit_errors[:n] == full.frame_bit_errors[:n]


def test_high_snr_point_exhausts_budget():
    cfg = toy_cfg(max_frames=120, ebn0_grid=(9.0,))
    pts = run_point(cfg, 9.0)
    for pt in pts.values():
        assert pt.frames == 120
        assert pt.bits_simulated == 120 * 225
        assert pt.frame_errors < 50


def test_random_info_agrees_with_zero_word():
    """Coset invariance: random payloads give statistically identical BER."""
    a = run_point(toy_cfg(max_frames=800), 4.0, modes=("ibdd_sr",))["ibdd_sr"]
    b = run_point(toy_cfg(max_frames=800, random_info=True), 4.0, modes=("ibdd_sr",))[
        "ibdd_sr"
    ]
    assert a.ber_ci95[0] < b.ber_ci95[1] and b.ber_ci95[0] < a.ber_ci95[1]


# ---------------------------------------------------------------------------
# curves


def test_run_curve_retires_modes():
    cfg = toy_cfg(ebn0_grid=(4.0, 5.0, 6.0), ber_floor=2e-3, max_frames=400)
    seen = []
    for ebn0, pts in run_curve(cfg):
        seen.append((ebn0, sorted(pts)))
    assert seen[0] == (4.0, ["ibdd", "ibdd_sr", "ideal"])
    # the genie dips under the floor first; mode sets only ever shrink
    mode_sets = [set(m) for _, m in seen]
    assert all(b <= a for a, b in zip(mode_sets, mode_sets[1:]))
    assert "ideal" not in mode_sets[-1]
    assert len(mode_sets[-1]) < 3


def test_run_curve_stops_once_every_mode_retires():
    """Above a floor of 0.5 every mode retires at the first point, so the
    later points are never run."""
    cfg = toy_cfg(ebn0_grid=(4.0, 5.0, 6.0), modes=("ibdd", "ideal"), ber_floor=0.5,
                  max_frames=60)
    assert [(e, sorted(pts)) for e, pts in run_curve(cfg)] == [(4.0, ["ibdd", "ideal"])]


def test_run_curve_warns_on_non_monotone(monkeypatch):
    calls = iter(
        [
            {"ibdd": _mk_point("ibdd", 4.0, 1e-3)},
            {"ibdd": _mk_point("ibdd", 5.0, 1e-2)},  # worse at higher SNR
        ]
    )
    monkeypatch.setattr("ibddlab.sim.run_point", lambda cfg, e, modes=None: next(calls))
    cfg = toy_cfg(ebn0_grid=(4.0, 5.0), modes=("ibdd",), ber_floor=1e-12)
    with pytest.warns(UserWarning, match="not monotone"):
        list(run_curve(cfg))


def test_real_gain_on_toy_product_code():
    """End-to-end: scaled combining buys a fraction of a dB at 1e-4."""
    cfg = toy_cfg(
        ebn0_grid=(5.5, 6.0, 6.5),
        seed=42,
        max_frames=30_000,
        modes=("ibdd", "ibdd_sr"),
        ber_floor=1e-9,
    )
    curves = {m: [] for m in cfg.modes}
    for _, pts in run_curve(cfg):
        for m, pt in pts.items():
            curves[m].append(pt)
    cross = {m: interpolate_ebn0_at_ber(pts, 1e-4) for m, pts in curves.items()}
    assert None not in cross.values() and 0.15 <= cross["ibdd"] - cross["ibdd_sr"] <= 0.7


# ---------------------------------------------------------------------------
# serialization


def test_results_json_schema(toy_point):
    """A point of the results JSON holds the ``BerPoint`` fields but the
    per-frame counts, then ``skipped``; a skipped point holds its reason and
    no statistics."""
    cfg, pts = toy_point
    skip = SkippedPoint(
        scheme="staircase", component="n254k230t3", mode="ibdd_sr",
        ebn0_db=1.0, seed=1, reason="no usable schedule",
    )
    ran, skipped = results_json(cfg, [pts["ibdd"], skip])["points"]
    assert list(ran)[:4] == ["scheme", "component", "mode", "ebn0_db"]
    assert list(ran) == [
        *(f.name for f in dataclasses.fields(BerPoint) if f.name != "frame_bit_errors"),
        "skipped",
    ]
    assert ran["skipped"] is False and ran["frames"] == pts["ibdd"].frames
    assert list(skipped) == [*(f.name for f in dataclasses.fields(SkippedPoint)), "skipped"]
    assert skipped["skipped"] is True and "ber" not in skipped


def test_results_json_round_trip(toy_point):
    cfg, pts = toy_point
    rows = list(pts.values())
    doc = results_json(cfg, rows, manifest="m.json")
    blob = json.loads(json.dumps(doc))
    assert blob["manifest"] == "m.json"
    assert blob["config"]["scheme"] == "pc"
    assert len(blob["points"]) == len(rows)
    got = blob["points"][0]
    assert got["mode"] in ("ibdd", "ibdd_sr", "ideal")
    assert "frame_bit_errors" not in got  # bulky internals stay out


def test_point_dict_round_trip(toy_point):
    _, pts = toy_point
    d = point_dict(pts["ideal"])
    assert d["scheme"] == "pc"
    assert d["ber"] == pts["ideal"].ber
    assert isinstance(d["wilson_ci95"], list) or isinstance(d["wilson_ci95"], tuple)
