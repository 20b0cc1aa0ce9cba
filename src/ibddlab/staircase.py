"""Staircase-code construction, streaming encoder, and window decoding.

A staircase stream is a chain of square blocks B_0, B_1, ... with B_0 pinned
to all zeros; every row of [B_{i-1}^T, B_i] is a codeword of one systematic
component code of even length n, so each block is n/2-by-n/2 and consecutive
blocks share component codes.

Decoding slides a window of ``window_blocks`` blocks along the stream.  Each
window position iterates over the decodable block pairs it covers -- the
pair joining the window to the last emitted block (whose bits are frozen)
plus every pair of consecutive in-window blocks -- oldest to newest, then
emits the oldest block as final and advances by one block.

Scaled-reliability decoding consumes a per-pair, per-iteration weight
schedule derived from the coupled-chain recursion in :mod:`ibddlab.de`:
pair j of a window maps onto constraint slot j of the windowed recursion
(slot 0 is the frozen-edge constraint in both pictures), so a window of U
blocks consumes exactly the (U, iterations) weight array the recursion
produces for a chain window of U-1 positions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bch import BchCode
from .channel import harden
from .de import SC_SCHEDULE_MAX_SLIDES, ComponentProfile, run_sc_window
from .product import check_weights, component_step


class ScheduleUnavailable(RuntimeError):
    """The coupled recursion does not improve at the requested operating point."""


@dataclass(frozen=True)
class StaircaseCode:
    """Staircase code over one even-length systematic component code."""

    component: BchCode

    def __post_init__(self):
        if self.component.n % 2:
            raise ValueError("staircase component length must be even")
        if self.component.k <= self.component.n // 2:
            raise ValueError("component must carry more than n/2 information bits")

    @property
    def block_size(self) -> int:
        return self.component.n // 2

    @property
    def info_cols(self) -> int:
        """Information columns per block: k - n/2."""
        return self.component.k - self.component.n // 2

    @property
    def rate(self) -> float:
        n, k = self.component.n, self.component.k
        return 1.0 - 2.0 * (n - k) / n

    def __repr__(self):
        return (
            f"StaircaseCode(component=({self.component.n},{self.component.k}), "
            f"block={self.block_size}x{self.block_size}, rate={self.rate:.4f})"
        )


def staircase_encode_block(
    code: StaircaseCode, prev: np.ndarray, info: np.ndarray
) -> np.ndarray:
    """Encode the next block so every row of [prev^T, B_i] is a codeword.

    ``info`` is the (n/2)-by-(k - n/2) fresh information array; the returned
    block carries it verbatim with the n-k parity bits in the trailing
    columns.
    """
    comp = code.component
    half = code.block_size
    prev = np.asarray(prev, dtype=np.uint8)
    info = np.asarray(info, dtype=np.uint8)
    if prev.shape != (half, half):
        raise ValueError(f"previous block must be {half}x{half}")
    if info.shape != (half, code.info_cols):
        raise ValueError(f"information array must be {half}x{code.info_cols}")
    full = comp.encode(np.concatenate([prev.T, info], axis=1))
    return np.ascontiguousarray(full[:, half:])


def encode_stream(code: StaircaseCode, info_blocks) -> list[np.ndarray]:
    """Chain-encode information arrays into [B_0 = 0, B_1, ..., B_N]."""
    half = code.block_size
    blocks = [np.zeros((half, half), dtype=np.uint8)]
    for info in info_blocks:
        blocks.append(staircase_encode_block(code, blocks[-1], info))
    return blocks


# ---------------------------------------------------------------------------
# weight schedules

@dataclass(frozen=True)
class WindowSchedule:
    """Per-slide weight arrays for window decoding.

    Early slides get their own (pairs, iterations) array; from the recorded
    convergence horizon onward every slide reuses ``steady``.
    """

    early: tuple
    steady: np.ndarray
    steady_slide: int
    ebn0_db: float
    rate: float

    def __post_init__(self):
        check_weights(self.steady, *self.early)

    def weights_for_slide(self, slide: int) -> np.ndarray:
        """Weights for the window whose oldest block is ``slide`` (1-based)."""
        if slide < 1:
            raise ValueError("slides are numbered from 1")
        if slide <= len(self.early):
            return self.early[slide - 1]
        return self.steady

    @property
    def pairs(self) -> int:
        return self.steady.shape[0]

    @property
    def iterations(self) -> int:
        return self.steady.shape[1]


def schedule_for_window(
    profile: ComponentProfile,
    ebn0_db: float,
    rate: float,
    window_blocks: int,
    sr_iters: int,
) -> WindowSchedule:
    """Derive per-pair weights by running the windowed recursion at the
    operating point.

    A window of U blocks maps onto a chain window of U-1 positions; the
    recursion's U constraint slots line up with the window's U decodable
    pairs.  Raises ScheduleUnavailable when the recursion's error
    probability does not decrease (the weights would be meaningless and the
    caller should fall back to plain decoding).
    """
    if window_blocks < 2:
        raise ValueError("window must span at least two blocks")
    res = run_sc_window(
        profile,
        ebn0_db,
        rate,
        window=window_blocks - 1,
        iters_per_slide=sr_iters,
        full_iterations=True,
        fail_fast=False,
        max_slides=SC_SCHEDULE_MAX_SLIDES,
    )
    if not res.improving:
        raise ScheduleUnavailable(
            f"message error probability not decreasing at {ebn0_db} dB "
            f"(rate {rate:.4f}); no useful weight schedule exists"
        )
    schedules = [np.asarray(s, dtype=float) for s in res.schedules]
    horizon = res.steady_slide if res.steady_slide is not None else len(schedules)
    steady = schedules[horizon - 1]
    early = tuple(schedules[: horizon - 1])
    return WindowSchedule(
        early=early,
        steady=steady,
        steady_slide=horizon,
        ebn0_db=ebn0_db,
        rate=rate,
    )


@dataclass(frozen=True)
class WindowConfig:
    """Window-decoder settings: size, iteration budget, and weights."""

    window_blocks: int
    sr_iters: int = 10
    plain_iters: int = 2
    schedule: WindowSchedule | None = None

    def __post_init__(self):
        if self.window_blocks < 2:
            raise ValueError("window must span at least two blocks")
        if self.schedule is not None:
            want = (self.window_blocks, self.sr_iters)
            got = (self.schedule.pairs, self.schedule.iterations)
            if got != want:
                raise ValueError(
                    f"schedule shape {got} does not match (window_blocks, "
                    f"sr_iters) = {want}"
                )


def _pair(blocks, i):
    """The component words [B_i^T, B_{i+1}] joining blocks i and i+1, as rows."""
    return np.ascontiguousarray(np.concatenate([blocks[i].T, blocks[i + 1]], axis=1))


def window_decode(
    code: StaircaseCode,
    llr_blocks,
    cfg: WindowConfig,
    mode: str = "ibdd_sr",
    transmitted=None,
    observer=None,
) -> list[np.ndarray]:
    """Sliding-window decode; returns the emitted hard-decision blocks.

    ``llr_blocks`` are the channel LLRs of blocks 1..N (block 0 is the known
    all-zero terminator).  Modes: "ibdd" (plain), "ibdd_sr" (scaled
    reliability, requires ``cfg.schedule``), "ideal" (genie-aided; requires
    the ``transmitted`` blocks).  Emitted blocks are final -- later windows
    treat them as frozen hard values and never write them back.

    ``observer(slide, hard_blocks)`` is called after each emission with the
    internal (read-only) block list, for instrumentation.
    """
    if mode not in ("ibdd", "ibdd_sr", "ideal"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "ibdd_sr" and cfg.schedule is None:
        raise ValueError("ibdd_sr needs a weight schedule")
    if mode == "ideal" and transmitted is None:
        raise ValueError("ideal mode needs the transmitted blocks")

    comp = code.component
    half = code.block_size
    llrs = [np.full((half, half), np.inf)]  # terminator: perfectly known zeros
    llrs += [np.asarray(b, dtype=float) for b in llr_blocks]
    n_blocks = len(llrs) - 1
    hard = [np.zeros((half, half), dtype=np.uint8)]
    hard += [harden(b) for b in llrs[1:]]
    if transmitted is not None:
        genie = [np.zeros((half, half), dtype=np.uint8)]
        genie += [np.asarray(b, dtype=np.uint8) for b in transmitted]
        if len(genie) != len(hard):
            raise ValueError("transmitted blocks must align with llr blocks")

    sr_rounds = cfg.sr_iters if mode == "ibdd_sr" else 0
    total_rounds = cfg.sr_iters + cfg.plain_iters
    emitted: list[np.ndarray] = []

    for b in range(1, n_blocks + 1):
        # pair j joins blocks (b-1+j, b+j); slot 0 joins the frozen block b-1
        pairs = range(b - 1, b - 1 + min(cfg.window_blocks, n_blocks - b + 1))
        weights = cfg.schedule.weights_for_slide(b) if mode == "ibdd_sr" else None

        for ell in range(total_rounds):
            if all(np.all(comp.is_codeword(_pair(hard, i))) for i in pairs):
                break
            scaled = ell < sr_rounds
            for j, i in enumerate(pairs):
                new = component_step(
                    comp,
                    _pair(hard, i),
                    weight=weights[j, ell] if scaled else None,
                    llr=_pair(llrs, i) if scaled else None,
                    genie=_pair(genie, i) if mode == "ideal" else None,
                )
                if j > 0:  # slot 0's left half is the frozen emitted block
                    hard[i] = np.ascontiguousarray(new[:, :half].T)
                hard[i + 1] = np.ascontiguousarray(new[:, half:])

        emitted.append(hard[b].copy())
        if observer is not None:
            observer(b, hard)
    return emitted
