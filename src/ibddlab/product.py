"""Product-code construction and its iterative hard-decision decoders.

A product code squares one systematic component code: information bits fill a
k-by-k array, every row is encoded, then every column of the intermediate
array.  Decoding is one loop: bounded-distance decoding (BDD) of all rows,
then of all columns, until the array is a product codeword or the iterations
run out.  The three decoders differ only in the verdict rule that turns a
component word into the next binary message (``component_step``):

* ``ibdd_decode``       -- the BDD word itself; failed component words pass
                           through unchanged.
* ``ibdd_sr_decode``    -- scaled reliability: each BDD verdict is weighed
                           against the channel LLR via ``combine_decision``,
                           followed by a tail of plain iterations.
* ``ideal_ibdd_decode`` -- a genie that corrects up to t errors and never
                           miscorrects (analysis benchmark).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bch import BchCode, bdd_decode_matrix, ideal_decode_matrix
from .channel import harden


@dataclass(frozen=True)
class ProductCode:
    """Symmetric product code: the same component protects rows and columns."""

    component: BchCode

    @property
    def n(self) -> int:
        return self.component.n

    @property
    def k(self) -> int:
        return self.component.k

    @property
    def rate(self) -> float:
        return (self.component.k / self.component.n) ** 2

    def is_codeword(self, arr: np.ndarray) -> bool:
        comp = self.component
        return bool(
            np.all(comp.is_codeword(arr)) and np.all(comp.is_codeword(arr.T))
        )

    def __repr__(self):
        return f"ProductCode(({self.n},{self.k})^2, rate={self.rate:.4f})"


def pc_encode(code: ProductCode, info: np.ndarray) -> np.ndarray:
    """Encode a k-by-k information array into an n-by-n codeword array.

    Rows first, then columns of the row-encoded array; for a linear
    systematic component the checks-on-checks block makes every row and
    every column a component codeword regardless of the encoding order.
    """
    comp = code.component
    info = np.asarray(info, dtype=np.uint8)
    if info.shape != (comp.k, comp.k):
        raise ValueError(f"expected {comp.k}x{comp.k} information array")
    rows_done = comp.encode(info)  # (k, n)
    full = comp.encode(np.ascontiguousarray(rows_done.T)).T  # (n, n)
    return np.ascontiguousarray(full)


def combine_decision(mu_bar, w, llr) -> np.ndarray:
    """Hard decision B(w*mu_bar + llr), realized as a comparison.

    The BDD verdict wins only when it exists (mu_bar != 0) and its weight
    strictly exceeds the channel magnitude; otherwise -- including the tie
    w == |llr| -- the channel sign decides.  Ties and llr == 0 resolve to
    bit 0, matching B.
    """
    mu = np.asarray(mu_bar)
    llr = np.asarray(llr)
    bdd_wins = (mu != 0) & (np.asarray(w, dtype=float) > np.abs(llr))
    return np.where(bdd_wins, mu < 0, llr < 0).astype(np.uint8)


@dataclass(frozen=True)
class ScalingSchedule:
    """Per-iteration combining weights for the two component phases.

    ``w_row[l]`` scales the BDD verdicts of the row pass of iteration l+1,
    ``w_col[l]`` those of the column pass.
    """

    w_row: np.ndarray
    w_col: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "w_row", np.asarray(self.w_row, dtype=float))
        object.__setattr__(self, "w_col", np.asarray(self.w_col, dtype=float))
        if np.any(self.w_row < 0) or np.any(self.w_col < 0):
            raise ValueError("combining weights must be nonnegative")
        if not (np.all(np.isfinite(self.w_row)) and np.all(np.isfinite(self.w_col))):
            raise ValueError("combining weights must be finite")

    @property
    def iterations(self) -> int:
        return min(len(self.w_row), len(self.w_col))

    @classmethod
    def constant(cls, w: float, iterations: int) -> "ScalingSchedule":
        return cls(np.full(iterations, float(w)), np.full(iterations, float(w)))

    @classmethod
    def from_gldpc_result(cls, result) -> "ScalingSchedule":
        """Adopt the weight trajectory of a GLDPC recursion run."""
        return cls(result.w_row, result.w_col)


def component_step(comp: BchCode, words, weight=None, llr=None, genie=None) -> np.ndarray:
    """The next binary message for each row of ``words``.

    The genie's verdict when ``genie`` (the transmitted rows) is given, else
    the BDD verdict weighed against ``llr`` by ``combine_decision`` when a
    ``weight`` is given, else the BDD word itself.
    """
    if genie is not None:
        return ideal_decode_matrix(comp, words, genie)[1]
    ternary, decoded, _ = bdd_decode_matrix(comp, words)
    if weight is None:
        return decoded
    return combine_decision(ternary, weight, llr)


def _iterate(code, psi, iters, observer=None, weights=None, llr=None, genie=None):
    """The shared loop: rows, then columns, through ``component_step``.

    ``weights`` (the row and column weight sequences) with ``llr``, or
    ``genie`` (the transmitted array and its transpose), select the verdict.
    """
    comp = code.component
    for ell in range(iters):
        if code.is_codeword(psi):
            break
        for axis, stage in enumerate(("row", "col")):
            words = psi if axis == 0 else np.ascontiguousarray(psi.T)
            new = component_step(
                comp,
                words,
                weight=None if weights is None else weights[axis][ell],
                llr=None if llr is None else (llr if axis == 0 else llr.T),
                genie=None if genie is None else genie[axis],
            )
            psi = new if axis == 0 else np.ascontiguousarray(new.T)
            if observer is not None:
                observer(stage, ell + 1, psi)
    return psi


def ibdd_sr_decode(
    code: ProductCode,
    llr: np.ndarray,
    schedule: ScalingSchedule,
    sr_iters: int = 10,
    plain_iters: int = 2,
    observer=None,
) -> np.ndarray:
    """Iterative BDD with scaled-reliability combining against channel LLRs.

    Each scaled iteration BDD-decodes all rows, re-decides every bit through
    ``combine_decision`` with the iteration's row weight, then repeats for
    columns.  After ``sr_iters`` such iterations, ``plain_iters`` rounds of
    conventional decoding (which ignore the channel, flipping the error-floor
    mechanism off) finish the job.  Exits early once the array is a product
    codeword.  ``observer(stage, iteration, psi)`` is called after every
    half-iteration when given.
    """
    if schedule.iterations < sr_iters:
        raise ValueError(
            f"schedule covers {schedule.iterations} iterations, need {sr_iters}"
        )
    llr = np.asarray(llr, dtype=float)
    psi = _iterate(
        code, harden(llr), sr_iters, observer,
        weights=(schedule.w_row, schedule.w_col), llr=llr,
    )
    return _iterate(code, psi, plain_iters, observer)


def ibdd_decode(
    code: ProductCode, r: np.ndarray, iters: int = 12, observer=None
) -> np.ndarray:
    """Conventional iterative BDD on a hard-decision array.

    Rows then columns per iteration; decoded component words replace their
    input, failures leave it untouched.  Early exit on a valid codeword.
    """
    return _iterate(code, np.array(r, dtype=np.uint8, copy=True), iters, observer)


def ideal_ibdd_decode(
    code: ProductCode,
    r: np.ndarray,
    transmitted: np.ndarray,
    iters: int = 12,
) -> np.ndarray:
    """Iterative genie decoding: components correct within t, never miscorrect.

    The transmitted array is side information for the genie only; the
    schedule and stopping rule match ``ibdd_decode``.
    """
    tx = np.asarray(transmitted, dtype=np.uint8)
    genie = (tx, np.ascontiguousarray(tx.T))
    return _iterate(code, np.array(r, dtype=np.uint8, copy=True), iters, genie=genie)
