"""Monte-Carlo bit/frame error-rate estimation with paired noise.

Every decoder mode at a given (config, E_b/N_0) point sees bit-identical
channel LLRs: frame ``i`` draws its noise from ``default_rng([seed, i])``
and all modes decode that same realization, so mode comparisons are paired
and the whole run is reproducible for any worker count (workers only split
the frame index range; they never own RNG state).  The engine does not build
those generators one by one: ``frame_states`` computes the PCG64 state of
every frame of a decoder call in one vectorized pass, one reused generator
takes each state in turn and draws that frame's noise into its slot of the
call's LLR stack, and ``channel.noise_to_llr`` turns the stack into LLRs in
place.

One engine serves both schemes.  A frame is a stack of transmitted units --
one product array, or the blocks of one staircase stream -- and the units
whose errors count are the statistical events: FER gets a Wilson 95%
interval and BER a per-unit bootstrap interval.  A staircase stream carries
``blocks_per_stream`` encoded blocks after the all-zero terminator; its
first and last window_blocks-1 blocks (warm-up and flush) are not counted.

Stopping is frame-error driven.  Frames come in the batches of a fixed plan,
and each stop check has one bound, ``reach``: the fewer of the counted units
left in the budget of ``max_frames`` and ``min_error_events`` less the fewest
unit errors of any running mode.  At ``reach <= 0`` the point is done.
Otherwise the plan batches that cover ``reach`` decode together, clipped to
the budget: a counted unit adds at most one error event, so no check between
them could fire.  They share calls of at most ``DECODE_CALL_BITS`` bits,
four (255,231)^2 frames: a product mode decodes a call's frames as one
(B, n, n) stack, a staircase mode its streams as one (S, N, h, h) stack.
Each frame decodes as it would alone, so the call size never moves a
statistic.  ``results_json`` is the result record that ``ibddlab plotdata``
reads back, each point through ``point_from_dict``.
"""

from __future__ import annotations

import math
import os
import time
import warnings
from collections.abc import Sequence
from dataclasses import asdict, dataclass, field, fields, replace
from functools import cache, partial
from itertools import accumulate
from typing import Callable, NamedTuple

import numpy as np

from .bch import BchCode, _integer, _real, build_bch
from .channel import harden, make_params, noise_to_llr
from .de import ComponentProfile, auto_profile, run_gldpc, sc_schedule_run
from .product import (
    ProductCode,
    ScalingSchedule,
    check_weights,
    ibdd_decode,
    ibdd_sr_decode,
    ideal_ibdd_decode,
    pc_encode,
)
from .staircase import (
    StaircaseCode,
    WindowConfig,
    WindowSchedule,
    encode_stream,
    window_decode,
)

MODES = ("ibdd", "ibdd_sr", "ideal")
_Z95 = 1.959963984540054
# bits per decode call (or one frame), as test_batched_decoding_memory_bounded sizes it
DECODE_CALL_BITS = 1 << 18


def _check_numbers(config) -> None:
    """Store each ``int`` field of a dataclass as an int (``bch._integer``),
    each ``float`` field, and each ``float | None`` field but a None, as a float
    (``_real``) and each ``bool`` as a bool; refuse a ``str`` field that holds
    no str."""
    for f in fields(config):
        value = getattr(config, f.name)
        if f.type == "int":
            object.__setattr__(config, f.name, _integer(value, f.name))
        elif f.type == "float" or (f.type == "float | None" and value is not None):
            object.__setattr__(config, f.name, _real(value, f.name))
        elif f.type == "bool":
            if not isinstance(value, (bool, np.bool_)):
                raise ValueError(f"{f.name} must be a bool, got {value!r}")
            object.__setattr__(config, f.name, bool(value))
        elif f.type == "str" and not isinstance(value, str):
            raise ValueError(f"{f.name} must be a str, got {value!r}")


@dataclass(frozen=True)
class ComponentSpec:
    """Component-code parameters: GF(2^m) BCH with t-error correction."""

    m: int
    t: int
    shorten: int = 0

    def __post_init__(self):
        _check_numbers(self)

    @cache
    def build(self) -> BchCode:
        """The code, built once per process and shared (with the DE profile
        ``auto_profile`` caches for it) by every engine of the same spec."""
        return build_bch(self.m, self.t, shorten=self.shorten)

    @property
    def label(self) -> str:
        code = self.build()
        return f"n{code.n}k{code.k}t{code.t}"


@dataclass(frozen=True)
class SimConfig:
    """One Monte-Carlo campaign: scheme, grid, modes, budgets, seed."""

    scheme: str
    component: ComponentSpec
    ebn0_grid: tuple
    modes: tuple = MODES
    fixed_weight: float | None = None  # a constant ibdd_sr weight; None derives weights by DE
    min_error_events: int = 50
    max_frames: int = 200_000  # frame units: product arrays, or counted staircase blocks
    seed: int = 1
    workers: int = 1
    sr_iters: int = 10
    plain_iters: int = 2
    window_blocks: int = 7
    blocks_per_stream: int = 20
    random_info: bool = False
    ber_floor: float = 1e-7

    def __post_init__(self):
        for name in ("ebn0_grid", "modes"):  # a str would pass as its characters
            value = getattr(self, name)
            if isinstance(value, str) or not (isinstance(value, Sequence) or np.ndim(value) == 1):
                raise ValueError(f"{name} must be a sequence, got {value!r}")
        object.__setattr__(self, "ebn0_grid", tuple(_real(e, "ebn0_grid") for e in self.ebn0_grid))
        object.__setattr__(self, "modes", tuple(self.modes))
        if not isinstance(self.scheme, str) or self.scheme not in _SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if not self.modes or any(m not in MODES for m in self.modes) or (
                len(set(self.modes)) < len(self.modes)):  # a repeat counts each frame twice
            raise ValueError(f"modes must be distinct modes from {MODES}, got {self.modes}")
        _check_numbers(self)
        if not all(math.isfinite(e) for e in self.ebn0_grid):
            raise ValueError(f"ebn0_grid must be finite, got {self.ebn0_grid}")
        grid = self.ebn0_grid  # a repeated point would decode the same frames twice
        if not grid or any(a >= b for a, b in zip(grid, grid[1:])):
            raise ValueError(f"ebn0_grid must be nonempty and strictly ascending, got {grid}")
        if self.min_error_events < 50:
            raise ValueError("min_error_events below 50 gives junk intervals")
        if not 0 <= self.seed < 1 << 64:
            raise ValueError(f"seed must be an int in [0, 2**64), got {self.seed!r}")
        if self.max_frames < 1 or self.workers < 1:
            raise ValueError("max_frames and workers must be positive")
        if self.max_frames >= 1 << 32:  # every frame index is one uint32 word of seed entropy
            raise ValueError(f"max_frames must be below 2**32, got {self.max_frames}")
        if self.sr_iters < 0 or self.plain_iters < 0:
            raise ValueError("sr_iters and plain_iters must be nonnegative")
        if self.sr_iters + self.plain_iters == 0:
            raise ValueError("sr_iters + plain_iters must be positive: with none, "
                             "every mode reports the channel")
        if self.sr_iters == 0 and "ibdd_sr" in self.modes:
            raise ValueError("ibdd_sr needs sr_iters >= 1, got sr_iters=0")
        if not 0 <= self.ber_floor < 1:
            raise ValueError(f"ber_floor must lie in [0, 1), got {self.ber_floor}")
        if self.fixed_weight is not None:
            check_weights(self.fixed_weight)
        rate = _SCHEMES[self.scheme](self).code.rate  # raises on parameters that give no code
        for e in self.ebn0_grid:  # and on a point that gives no channel
            make_params(e, rate)


def _check_point(point) -> None:
    """Check the fields ``BerPoint`` and ``SkippedPoint`` share: mode, scheme,
    types, E_b/N_0."""
    for name, known in (("mode", MODES), ("scheme", tuple(_SCHEMES))):
        if getattr(point, name) not in known:  # a tuple: an unhashable value is refused too
            raise ValueError(f"{name} must be one of {known}, got {getattr(point, name)!r}")
    _check_numbers(point)
    if not math.isfinite(point.ebn0_db):
        raise ValueError(f"ebn0_db must be finite, got {point.ebn0_db}")


@dataclass(frozen=True)
class BerPoint:
    """Aggregated result for one (point, mode); fully determined by config+seed."""

    scheme: str
    component: str
    mode: str
    ebn0_db: float
    frames: int
    frame_errors: int
    bits_simulated: int
    bit_errors: int
    ber: float
    fer: float
    wilson_ci95: tuple  # 95% interval on FER
    ber_ci95: tuple  # bootstrap 95% interval on BER
    seed: int
    wall_seconds: float
    frame_bit_errors: tuple = field(repr=False, default=())

    def __post_init__(self):  # a results file read back must hold what run_point writes
        _check_point(self)
        for name in ("wilson_ci95", "ber_ci95"):
            value = getattr(self, name)
            if not isinstance(value, Sequence) or len(value) != 2:  # a str fails _real
                raise ValueError(f"{name} must be two real numbers, got {value!r}")
            object.__setattr__(self, name, tuple(_real(v, name) for v in value))
        for errors, total in (("frame_errors", "frames"), ("bit_errors", "bits_simulated")):
            if not 0 <= getattr(self, errors) <= getattr(self, total):
                raise ValueError(f"need 0 <= {errors} <= {total}, got "
                                 f"{getattr(self, errors)} and {getattr(self, total)}")
        for name in ("ber", "fer", "wilson_ci95", "ber_ci95"):
            value = getattr(self, name)
            lo, hi = value if isinstance(value, tuple) else (value, value)
            if not 0 <= lo <= hi <= 1:  # NaN fails too
                raise ValueError(f"{name} must lie in [0, 1], an interval's low end "
                                 f"first, got {value!r}")

    def stat_key(self) -> tuple:
        """Everything reproducible: every field but wall time, in field order."""
        return tuple(getattr(self, f.name) for f in fields(self) if f.name != "wall_seconds")


@dataclass(frozen=True)
class SkippedPoint:
    """Placeholder row for a (point, mode) that could not run."""

    scheme: str
    component: str
    mode: str
    ebn0_db: float
    seed: int
    reason: str

    def __post_init__(self):
        _check_point(self)


# ---------------------------------------------------------------------------
# interval estimators

def wilson_ci95(successes: int, trials: int) -> tuple:
    """Wilson score 95% interval for a binomial proportion."""
    if trials <= 0:
        return (0.0, 1.0)
    z2 = _Z95 * _Z95
    phat = successes / trials
    denom = 1.0 + z2 / trials
    centre = (phat + z2 / (2 * trials)) / denom
    half = (
        _Z95
        * math.sqrt(phat * (1.0 - phat) / trials + z2 / (4.0 * trials * trials))
        / denom
    )
    return (max(0.0, centre - half), min(1.0, centre + half))


# bootstrap replicates per interval, and resampled frame indices drawn at
# once, bounding the bootstrap's memory
N_BOOT = 1000
_BOOT_CHUNK = 1 << 16


def _resampled_sums(rng, columns) -> list:
    """Totals of each per-frame count array over ``N_BOOT`` frame resamples.

    Every replicate draws one set of frame indices and applies it to all
    ``columns``.  Indices are drawn in row chunks of about ``_BOOT_CHUNK``
    elements, which continue the same random stream as one (N_BOOT, n) draw.
    """
    n = len(columns[0])
    rows = max(1, _BOOT_CHUNK // n)
    sums = [np.empty(N_BOOT, dtype=np.int64) for _ in columns]
    for lo in range(0, N_BOOT, rows):
        idx = rng.integers(0, n, size=(min(rows, N_BOOT - lo), n))
        for out, col in zip(sums, columns):
            out[lo : lo + len(idx)] = col[idx].sum(axis=1)
    return sums


def bootstrap_ber_ci(frame_bit_errors, bits_per_frame: int, seed: int) -> tuple:
    """Percentile bootstrap 95% interval for BER, resampling whole frames."""
    counts = np.asarray(frame_bit_errors, dtype=np.int64)
    n = len(counts)
    if n == 0 or counts.sum() == 0:
        return (0.0, 0.0)
    rng = np.random.default_rng([seed, 0xB0075])
    (sums,) = _resampled_sums(rng, [counts])
    lo, hi = np.percentile(sums / (n * bits_per_frame), [2.5, 97.5])
    return (float(lo), float(hi))


def paired_gap_bootstrap(
    frame_bit_errors_a, frame_bit_errors_b, bits_per_frame: int, seed: int
) -> tuple:
    """Bootstrap 95% interval for BER(a) - BER(b) over shared noise.

    Both inputs are per-frame error counts from the SAME frames (paired
    noise); each replicate resamples frame indices once and applies them to
    both, so common randomness cancels from the gap.
    """
    a = np.asarray(frame_bit_errors_a, dtype=np.int64)
    b = np.asarray(frame_bit_errors_b, dtype=np.int64)
    if a.shape != b.shape:
        raise ValueError("paired counts must cover the same frames")
    n = len(a)
    if n == 0:
        return (0.0, 0.0)
    rng = np.random.default_rng([seed, 0xD1FF])
    sums_a, sums_b = _resampled_sums(rng, [a, b])
    lo, hi = np.percentile((sums_a - sums_b) / (n * bits_per_frame), [2.5, 97.5])
    return (float(lo), float(hi))


# ---------------------------------------------------------------------------
# weight schedules from density evolution


class ScheduleUnavailable(RuntimeError):
    """The recursion does not improve at the requested operating point, so it
    gives no useful weight schedule."""


def _improving(res):
    """``res``, a DE result, if its recursion improves on the channel; else
    ScheduleUnavailable, since its weights would be meaningless."""
    if not res.improving:
        raise ScheduleUnavailable(f"recursion not improving at {res.ebn0_db} dB "
                                  f"(rate {res.rate:.4f}): no weight schedule")
    return res


def schedule_for_window(
    profile: ComponentProfile,
    ebn0_db: float,
    rate: float,
    window_blocks: int,
    sr_iters: int,
) -> WindowSchedule:
    """Derive per-pair weights by running the windowed recursion
    (``de.sc_schedule_run``) at the operating point.

    A window of U blocks maps onto a chain window of U-1 positions; the
    recursion's U constraint slots line up with the window's U decodable
    pairs (slot 0 is the frozen-edge constraint in both pictures).  Raises
    ScheduleUnavailable when the recursion's error probability does not
    decrease.
    """
    if window_blocks < 2:
        raise ValueError("window must span at least two blocks")
    res = _improving(sc_schedule_run(profile, ebn0_db, rate, window_blocks - 1, sr_iters))
    horizon = res.steady_slide if res.steady_slide is not None else len(res.schedules)
    return WindowSchedule(
        early=tuple(res.schedules[: horizon - 1]),
        steady=res.schedules[horizon - 1],
        steady_slide=horizon,
        ebn0_db=ebn0_db,
        rate=rate,
    )


# ---------------------------------------------------------------------------
# the frame engine: built once per process, runs many frames


class _Scheme(NamedTuple):
    """What one scheme supplies to the engine; ``counted`` picks the units of
    a frame whose errors count."""

    code: object  # ProductCode or StaircaseCode: the rate is what matters here
    unit_shape: tuple  # (h, w) bits of one transmitted unit
    units: int  # transmitted units per frame
    counted: slice
    frame: Callable  # rng -> one random-information frame's transmitted units (units, h, w)
    schedule: Callable  # ebn0_db -> ibdd_sr weights; raises ScheduleUnavailable
    decode: Callable  # (mode, weights or None, llr, tx) -> decoded, each (frames, units, h, w)


def _product(cfg: SimConfig) -> _Scheme:
    code = ProductCode(cfg.component.build())
    total = cfg.sr_iters + cfg.plain_iters

    def frame(rng):
        return pc_encode(code, rng.integers(0, 2, (code.k, code.k), dtype=np.uint8))

    def schedule(ebn0_db):
        if cfg.fixed_weight is not None:
            return ScalingSchedule.constant(cfg.fixed_weight, cfg.sr_iters)
        res = _improving(run_gldpc(auto_profile(code.component), ebn0_db, code.rate,
                                   iterations=cfg.sr_iters, stop_early=False))
        return ScalingSchedule(res.w_row, res.w_col)

    def decode(mode, weights, llr, tx):  # one call decodes the whole stack of frames
        if mode == "ibdd_sr":
            return ibdd_sr_decode(code, llr[:, 0], weights, cfg.sr_iters, cfg.plain_iters)[:, None]
        hard = harden(llr[:, 0])
        if mode == "ibdd":
            return ibdd_decode(code, hard, total)[:, None]
        return ideal_ibdd_decode(code, hard, tx[:, 0], total)[:, None]

    return _Scheme(code, (code.n, code.n), 1, slice(0, 1), frame, schedule, decode)


def _staircase(cfg: SimConfig) -> _Scheme:
    code = StaircaseCode(cfg.component.build())  # raises on an odd length or k <= n/2
    plain = WindowConfig(cfg.window_blocks, cfg.sr_iters, cfg.plain_iters)  # raises if < 2 blocks
    if cfg.blocks_per_stream < 2 * cfg.window_blocks - 1:
        raise ValueError(
            "streams must outlast warm-up plus flush: need "
            f"blocks_per_stream >= {2 * cfg.window_blocks - 1}"
        )
    half, skirt = code.block_size, cfg.window_blocks - 1  # skirt: warm-up and flush

    def frame(rng):
        infos = [rng.integers(0, 2, (half, code.info_cols), dtype=np.uint8)
                 for _ in range(cfg.blocks_per_stream)]
        return encode_stream(code, infos)[1:]

    def schedule(ebn0_db):
        if cfg.fixed_weight is None:
            return schedule_for_window(auto_profile(code.component), ebn0_db, code.rate,
                                       cfg.window_blocks, cfg.sr_iters)
        steady = np.full((cfg.window_blocks, cfg.sr_iters), cfg.fixed_weight)
        return WindowSchedule(early=(), steady=steady, steady_slide=1,
                              ebn0_db=ebn0_db, rate=code.rate)

    def decode(mode, weights, llr, tx):  # one call decodes the whole stack of streams
        wc = plain if weights is None else replace(plain, schedule=weights)
        return window_decode(code, llr, wc, mode, tx)

    counted = slice(skirt, cfg.blocks_per_stream - skirt)
    return _Scheme(code, (half, half), cfg.blocks_per_stream, counted, frame, schedule, decode)


_SCHEMES = {"pc": _product, "staircase": _staircase}


# numpy's SeedSequence (a pool of four uint32 words) and PCG64 seeding constants
_MASK32 = 0xFFFFFFFF
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _hash_consts(init: int, mult: int, calls: int) -> np.ndarray:
    """Hash constants of ``calls`` successive hashmix calls, as a column:
    call k xors its words with row k and multiplies them by row k + 1."""
    consts = [init]
    for _ in range(calls):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts, dtype=np.uint32)[:, None]


_HASH_POOL = _hash_consts(0x43B0D7E5, 0x931E8875, 16)  # 4 to fill the pool, 12 to mix it
_HASH_STATE = _hash_consts(0x8B51F9DD, 0x58F38DED, 8)  # one per generated uint32 word


def _hashmix(words: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of each row of ``words`` with its hash constants."""
    out = words ^ consts[:-1]
    out *= consts[1:]
    out ^= out >> 16
    return out


def frame_states(seed: int, indices) -> list:
    """The PCG64 state of ``np.random.default_rng([seed, i])`` for each frame
    index i, as the dict that ``bit_generator.state`` takes.

    One vectorized pass over the indices: numpy's SeedSequence mixes the
    entropy words [seed words, i] into its pool and generates four uint64
    words, then PCG64 seeds from them (inc = 2 v23 + 1, state = (inc + v01)
    M + inc mod 2^128).  Taking the states this way skips building one
    generator per frame; the draws are those of ``default_rng([seed, i])``.
    """
    idx = np.asarray(indices, dtype=np.int64)
    if not 0 <= seed < 1 << 64 or ((idx < 0) | (idx > _MASK32)).any():
        raise ValueError("frame seeding takes a seed in [0, 2**64) and indices in [0, 2**32)")
    seed_words = [seed & _MASK32, seed >> 32] if seed >> 32 else [seed]
    pool = np.zeros((4, idx.size), dtype=np.uint32)  # the entropy, zero-padded to the pool
    pool[: len(seed_words)] = np.array(seed_words, dtype=np.uint32)[:, None]
    pool[len(seed_words)] = idx
    pool = _hashmix(pool, _HASH_POOL[:5])
    for src in range(4):  # mix word src, hashed once per other word, into each other word
        dst = [d for d in range(4) if d != src]
        mixed = _hashmix(pool[src], _HASH_POOL[4 + 3 * src : 8 + 3 * src])
        mixed *= _MIX_R
        words = pool[dst]
        words *= _MIX_L
        words -= mixed
        words ^= words >> 16
        pool[dst] = words
    words = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _HASH_STATE)  # low uint32 word first
    v = (words[1::2].astype(np.uint64) << 32 | words[0::2]).T.tolist()
    states = []
    for v0, v1, v2, v3 in v:
        inc = (v2 << 65 | v3 << 1 | 1) & _MASK128
        state = (((v0 << 64 | v1) + inc) * _PCG_MULT + inc) & _MASK128
        states.append({"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                       "has_uint32": 0, "uinteger": 0})
    return states


class _Engine:
    """One scheme at one operating point: paired noise, decoding, error counts."""

    def __init__(self, cfg: SimConfig, ebn0_db: float, modes: tuple):
        scheme = _SCHEMES[cfg.scheme](cfg)
        self.seed, self.counted = cfg.seed, scheme.counted
        self.frame = scheme.frame if cfg.random_info else None  # None: all-zero frames
        self.params = make_params(ebn0_db, scheme.code.rate)
        self.shape = (scheme.units, *scheme.unit_shape)
        self.bits_per_unit = math.prod(scheme.unit_shape)
        self.frames_per_call = max(1, DECODE_CALL_BITS // math.prod(self.shape))
        self.units_per_frame = scheme.counted.stop - scheme.counted.start
        self.decode, self.skip_reason, self.weights = scheme.decode, None, None
        if "ibdd_sr" in modes:
            try:
                self.weights = scheme.schedule(ebn0_db)
            except ScheduleUnavailable as exc:
                self.skip_reason = str(exc)
        self.modes = tuple(m for m in modes if m != "ibdd_sr" or self.weights is not None)
        self.rng = np.random.Generator(np.random.PCG64(0))  # takes each frame's state in turn

    def draw(self, indices) -> tuple:
        """Transmitted bits and channel LLRs of frames ``indices``, each
        (frames, units, h, w).  Frame i draws from ``default_rng([seed, i])``:
        its information bits (random_info only), then its noise."""
        tx = np.zeros((len(indices), *self.shape), dtype=np.uint8)
        llr = np.empty(tx.shape)
        for f, state in enumerate(frame_states(self.seed, indices)):
            self.rng.bit_generator.state = state
            if self.frame is not None:
                tx[f] = self.frame(self.rng)
            self.rng.standard_normal(out=llr[f])
        return tx, noise_to_llr(llr, tx, self.params)

    def run_frames(self, indices) -> dict:
        """Per-mode bit errors of each counted unit of frames ``indices``,
        as {mode: (frames, counted units)}; each mode decodes them in one call."""
        tx, llr = self.draw(indices)
        c = self.counted
        return {mode: (self.decode(mode, self.weights, llr, tx)[:, c] != tx[:, c]).sum(axis=(2, 3))
                for mode in self.modes}


def _build_engine(cfg: SimConfig, ebn0_db: float, modes: tuple) -> _Engine:
    """All set-up of a point: the code, its DE profile and the weight schedule."""
    return _Engine(cfg, ebn0_db, modes)


_ENGINE = None


def _init_worker(cfg: SimConfig, ebn0_db: float, modes: tuple):
    global _ENGINE
    _ENGINE = _build_engine(cfg, ebn0_db, modes)


def _worker_frames(indices) -> dict:
    return _ENGINE.run_frames(indices)


# ---------------------------------------------------------------------------
# point and curve drivers

def _batch_plan(units_per_frame: int):
    """Deterministic batch schedule, sized in frame units, yielded in frames:
    32 units, doubling to at most 4096."""
    units = 32
    while True:
        yield max(1, round(units / units_per_frame))
        units = min(units * 2, 4096)


def run_point(cfg: SimConfig, ebn0_db: float, modes=None) -> dict:
    """Simulate one grid point; returns {mode: BerPoint | SkippedPoint}.

    All modes share the same frames and noise.  Each stop check has one
    bound, ``reach``: the fewer of the counted units left in ``max_frames``
    and ``min_error_events`` less the fewest unit errors of any mode.  At
    ``reach <= 0`` the point is done; else the plan batches covering ``reach``
    decode together, clipped to the budget.  Only counts steer this, so
    workers move no statistic; a pool has at most one process per usable CPU.
    """
    if modes is not None:  # checked by SimConfig's rules
        cfg = replace(cfg, modes=modes)
    t0 = time.perf_counter()
    engine = _build_engine(cfg, ebn0_db, cfg.modes)
    result: dict = {}
    if engine.skip_reason is not None:
        warnings.warn(f"ibdd_sr skipped at {ebn0_db} dB: {engine.skip_reason}")
        result["ibdd_sr"] = SkippedPoint(cfg.scheme, cfg.component.label, "ibdd_sr",
                                         ebn0_db, cfg.seed, engine.skip_reason)

    counts = {m: [] for m in engine.modes}
    events = {m: 0 for m in engine.modes}
    done = 0  # frames decoded
    plan = _batch_plan(engine.units_per_frame)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(cfg.workers, cpus or 1)
    decode, pool = partial(map, engine.run_frames), None
    if workers > 1 and engine.modes:
        from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing: pools only

        pool = ProcessPoolExecutor(
            max_workers=workers,
            initializer=_init_worker,
            initargs=(cfg, ebn0_db, cfg.modes),
        )
        decode = partial(pool.map, _worker_frames)
    try:
        while engine.modes:  # none when the only mode asked for is skipped
            left = cfg.max_frames - done * engine.units_per_frame  # counted units
            reach = min(left, cfg.min_error_events - min(events.values()))
            if reach <= 0:
                break
            n_frames = next(n for n in accumulate(plan) if n * engine.units_per_frame >= reach)
            batch = range(done, done + min(n_frames, math.ceil(left / engine.units_per_frame)))
            done = batch.stop
            size = min(engine.frames_per_call, math.ceil(len(batch) / workers))
            for fr in decode([batch[lo : lo + size] for lo in range(0, len(batch), size)]):
                for m in engine.modes:
                    counts[m].append(fr[m].ravel())
                    events[m] += int(np.count_nonzero(fr[m]))
    finally:
        if pool is not None:
            pool.shutdown()

    wall = time.perf_counter() - t0
    for m in engine.modes:
        per_unit = np.concatenate(counts[m])  # every active mode decodes at least one call
        frames = len(per_unit)
        frame_errors = int(np.count_nonzero(per_unit))
        bits = frames * engine.bits_per_unit
        bit_errors = int(per_unit.sum())
        result[m] = BerPoint(
            scheme=cfg.scheme,
            component=cfg.component.label,
            mode=m,
            ebn0_db=ebn0_db,
            frames=frames,
            frame_errors=frame_errors,
            bits_simulated=bits,
            bit_errors=bit_errors,
            ber=bit_errors / bits if bits else 0.0,
            fer=frame_errors / frames if frames else 0.0,
            wilson_ci95=wilson_ci95(frame_errors, frames),
            ber_ci95=bootstrap_ber_ci(per_unit, engine.bits_per_unit, cfg.seed),
            seed=cfg.seed,
            wall_seconds=wall,
            frame_bit_errors=tuple(per_unit.tolist()),
        )
    return {m: result[m] for m in cfg.modes if m in result}


def run_curve(cfg: SimConfig):
    """Iterate run_point over the ascending grid, yielding (ebn0_db, dict).

    A mode is retired from later (higher-SNR) points once its measured BER
    drops below cfg.ber_floor; a non-monotone BER step whose bootstrap
    intervals do not overlap draws a warning.
    """
    retired: set = set()
    last: dict = {}
    for ebn0 in cfg.ebn0_grid:
        modes = [m for m in cfg.modes if m not in retired]
        if not modes:
            break
        points = run_point(cfg, ebn0, modes=modes)
        for m, pt in points.items():
            if not isinstance(pt, BerPoint):
                continue
            if pt.ber < cfg.ber_floor:
                retired.add(m)
            prev = last.get(m)
            if (
                prev is not None
                and pt.ber > prev.ber
                and pt.ber_ci95[0] > prev.ber_ci95[1]
            ):
                warnings.warn(
                    f"BER not monotone for {m}: {prev.ber:.3e} @ "
                    f"{prev.ebn0_db} dB -> {pt.ber:.3e} @ {ebn0} dB"
                )
            last[m] = pt
        yield ebn0, points


def interpolate_ebn0_at_ber(points, target_ber: float) -> float | None:
    """E_b/N_0 where a measured curve crosses target_ber (log-linear).

    ``points`` is one mode's BerPoint sequence; returns None unless two
    consecutive points with positive BER bracket the target.
    """
    pts = sorted(
        (p for p in points if isinstance(p, BerPoint) and p.ber > 0.0),
        key=lambda p: p.ebn0_db,
    )
    for a, b in zip(pts, pts[1:]):
        lo, hi = sorted((a.ber, b.ber))
        if lo <= target_ber <= hi:
            la, lb, lt = math.log10(a.ber), math.log10(b.ber), math.log10(target_ber)
            if la == lb:
                return a.ebn0_db
            return a.ebn0_db + (b.ebn0_db - a.ebn0_db) * (lt - la) / (lb - la)
    return None


# ---------------------------------------------------------------------------
# result serialization

def point_dict(pt) -> dict:
    d = asdict(pt)
    d.pop("frame_bit_errors", None)  # a BerPoint's per-frame counts stay out
    return {**d, "skipped": isinstance(pt, SkippedPoint)}


def point_from_dict(record: dict):
    """The point that ``point_dict`` wrote as ``record``, a ``BerPoint`` with no
    per-frame counts (a record that holds some is refused); any record it could
    not have written raises KeyError, TypeError or ValueError."""
    skipped = record["skipped"]
    if not isinstance(skipped, bool):  # else a truthy string would read as a skip
        raise ValueError(f"skipped must be true or false, got {skipped!r}")
    rest = {k: v for k, v in record.items() if k != "skipped"}
    return SkippedPoint(**rest) if skipped else BerPoint(**rest, frame_bit_errors=())


def results_json(cfg: SimConfig, rows, manifest: str | None = None) -> dict:
    return {
        "config": asdict(cfg),
        "manifest": manifest,
        "points": [point_dict(pt) for pt in rows],
    }
