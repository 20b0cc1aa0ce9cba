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

``window_decode`` decodes one stream or a stack of streams through
``product.iterate``: the pairs [B_{i-1}^T, B_i], held pair-major as
(N, S, h, 2h), are its groups, and bit (r, c) of block i >= 1 is position h+c
of row r of pair i-1 and position r of row c of pair i, so a flat index steps
to its partner by a table offset per (row, position).  Each window position
is one call, in every mode: the scaled rounds, then the weight-free ones.  A
stream whose window pairs are all codewords is done for that position, and a
round that changes no bit skips the next rounds in which each pair weighs as
it does, weights above the window's largest channel |LLR| weighing as inf.
The genie skips a pair that no write has reached since its last call in the
position, as it would flip nothing there: most of a window's older pairs
after its first round.
Block 0's bits are read as 0 with LLR 0: it sits only in the left half of
pair 0, the window's oldest pair at slide 1, whose left half takes no flip.

Scaled-reliability decoding consumes a per-pair, per-iteration weight
schedule (``WindowSchedule``): row j of a slide's (U, iterations) array
weighs pair j of a window of U blocks, oldest first.  This module only
consumes schedules; ``sim.schedule_for_window`` derives them from the
coupled-chain recursion in :mod:`ibddlab.de`, or a caller builds one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bch import BchCode, _binary
from .channel import harden
from .product import check_weights, iterate


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
    columns.  Both arrays must hold only 0 and 1 (else ValueError).
    """
    comp = code.component
    half = code.block_size
    prev, info = np.asarray(prev), np.asarray(info)  # encode refuses any entry but 0 and 1
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

    Slides 1..len(early) get their own (pairs, iterations) array; from
    ``steady_slide`` = len(early) + 1 onward every slide reuses ``steady``.
    """

    early: tuple
    steady: np.ndarray
    steady_slide: int
    ebn0_db: float
    rate: float

    def __post_init__(self):
        object.__setattr__(self, "steady", np.asarray(self.steady, dtype=float))
        object.__setattr__(self, "early", tuple(np.asarray(e, dtype=float) for e in self.early))
        check_weights(self.steady, *self.early)
        if self.steady.ndim != 2 or any(e.shape != self.steady.shape for e in self.early):
            raise ValueError("weights must be (pairs, iterations) arrays of one shape")
        if self.steady_slide != len(self.early) + 1:
            raise ValueError(f"steady_slide must be len(early) + 1, got {self.steady_slide}")

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
        if self.sr_iters < 0 or self.plain_iters < 0:
            raise ValueError("sr_iters and plain_iters must be nonnegative")
        if self.schedule is not None:
            want = (self.window_blocks, self.sr_iters)
            got = (self.schedule.pairs, self.schedule.iterations)
            if got != want:
                raise ValueError(
                    f"schedule shape {got} does not match (window_blocks, "
                    f"sr_iters) = {want}"
                )


def _pairs(blocks):
    """The component words [B_i^T, B_{i+1}] of pairs i = 0..N-1, as rows of a
    C-contiguous pair-major (N, S, h, 2h) array, from the stacked blocks
    B_1..B_N (S, N, h, h), every bit of B_0 read as 0."""
    half = blocks.shape[-1]
    out = np.empty((blocks.shape[1], len(blocks), half, 2 * half), dtype=blocks.dtype)
    out[..., half:] = blocks.swapaxes(0, 1)
    out[:1, ..., :half] = 0  # no pair 0 in a stream of no blocks
    out[1:, ..., :half] = out[:-1, ..., half:].swapaxes(2, 3)
    return out


def window_decode(
    code: StaircaseCode,
    llr_blocks,
    cfg: WindowConfig,
    mode: str = "ibdd_sr",
    transmitted=None,
) -> np.ndarray:
    """Sliding-window decode; returns the emitted hard-decision blocks.

    ``llr_blocks`` are the channel LLRs of blocks 1..N of one stream, (N, h, h),
    or of a stack of S streams, (S, N, h, h); the result has the shape given.
    Block 0 is the known all-zero terminator.  Modes: "ibdd" (plain),
    "ibdd_sr" (scaled reliability, requires ``cfg.schedule`` and
    ``cfg.sr_iters`` >= 1), "ideal" (genie-aided; requires the
    ``transmitted`` blocks, shaped like the LLRs).
    Emitted blocks are final -- later windows treat them as frozen hard
    values and never write them back.
    """
    if mode not in ("ibdd", "ibdd_sr", "ideal"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "ibdd_sr" and cfg.schedule is None:
        raise ValueError("ibdd_sr needs a weight schedule")
    if mode == "ideal" and transmitted is None:
        raise ValueError("ideal mode needs the transmitted blocks")

    comp = code.component
    half = code.block_size
    llr = np.asarray(llr_blocks, dtype=float)
    if llr.ndim not in (3, 4) or llr.shape[-2:] != (half, half):
        raise ValueError(f"expected ({half}, {half}) blocks: (N, h, h) or (S, N, h, h)")
    shape = llr.shape
    if transmitted is not None and np.shape(transmitted) != shape:
        raise ValueError("transmitted blocks must align with llr blocks")
    llr = llr if llr.ndim == 4 else llr[None]
    n_blocks = llr.shape[1]
    pairs = _pairs(harden(llr))
    synd = comp.syndromes(pairs)  # (N, S, h) syndrome words, kept exact from here on
    llr_pairs = hard_pairs = genie = None  # indexed by pair, like ``pairs``
    if mode == "ibdd_sr":
        llr_pairs, hard_pairs = _pairs(llr), pairs.copy()  # the channel's LLRs, bits
    if mode == "ideal":
        genie = _pairs(_binary(transmitted, "transmitted").astype(np.uint8).reshape(llr.shape))

    # bit (r, c) of a pair is also bit (c, h + r) of the pair before if c < h, else
    # bit (c - h, r) of the pair after: the step between their flat indices, per
    # (r, c), tiled over the S items of one pair's block
    width = 2 * half
    size = len(llr) * half * width  # one pair's bits
    r, c = np.divmod(np.arange(half * width), width)
    step = np.tile(r - r * width - c + np.where(c < half, c * width + half - size,
                                                (c - half) * width + size), len(llr))

    def copies(lo, p, x):
        """Both copies of the bits ``x`` flipped in pair p, as flat indices
        into ``pairs``: pair lo's left half, the frozen emitted block or
        block 0, is kept, and block N's bits, in the last pair, have no
        second copy."""
        if p == lo:
            x = x[x % width >= half]
        y = x + step[x]
        x = x + p * size
        y += p * size
        return np.concatenate([x, y if p < n_blocks - 1 else y[y < pairs.size]])

    for b in range(1, n_blocks + 1):
        # pair p joins blocks p and p+1; slot 0 (pair b-1) joins the frozen block b-1
        lo, hi = b - 1, min(b - 1 + cfg.window_blocks, n_blocks)
        weights = None if llr_pairs is None else cfg.schedule.weights_for_slide(b)
        iterate(comp, pairs, synd, copies, cfg.sr_iters + cfg.plain_iters, lo, hi, weights,
                llr_pairs, hard_pairs, genie)
    # block b is emitted after slide b: no later flip reaches it
    return np.ascontiguousarray(pairs[..., half:].swapaxes(0, 1)).reshape(shape)
