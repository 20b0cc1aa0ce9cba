"""Density evolution for hard-decision iterative decoding with scaled reliability.

Models the generalized-LDPC view of product codes (degree-2 bit nodes, two
component-word constraints per bit) and its spatially-coupled analog for
staircase codes.  Component decoders are bounded-distance decoders, so the
analysis tracks three message types: decoded-in-error, decoded-correct, and
failure.  Miscorrections are accounted for through combinatorial transition
tables derived from the component code's weight enumerator, enumerated or
modeled; the tables are computed in exact rational arithmetic and rounded
once to float.

The per-iteration reliability weights used by the scaled-reliability decoders
fall out of the same recursion as log-ratios of the correct/error transition
probabilities, evaluated at the current message error rate.  Both recursions
advance by one half-step, ``TransitionKernels.step``: that weight, then the
bit-node update at it, with binomial weights from ``math.lgamma``,
``np.log`` and ``np.log1p``.

A half-step makes one pmf call, ``TransitionKernels.eval``, over the rate or
rates it is given: one for the uncoupled recursion, one per window position
for the coupled one.  A single rate takes its two logs from numpy on a Python
float, with x = 0 and x = 1 tested in Python; an array of rates takes them
under ``np.errstate`` and runs ``np.exp`` only on exponents above -746, since
below it exp is +0.0 and numpy's exp is about ten times slower there (NaN
still goes through).  After the pmf, each rate's weight and bit-node update
are Python float arithmetic: the weight from two ``np.log`` calls, the two
Gaussian tails from ``math.erfc``.  Every transcendental stays in numpy,
because numpy's SIMD ``log``, ``log1p`` and ``exp`` differ from ``math``'s in
the last bit on 1,387, 29,588 and 17,476 of 400,000 arguments (uniform in
(0, 1), ``log1p`` at -x, ``exp`` uniform in (-745, 0)), and such a bit can
move a weight.  So every number equals, bit for bit, that of the array-only
half-step kept in ``tests/oracles.py``, while a scalar half-step of the
(255,231,3) code costs about 10 us instead of 23 us and a seven-rate one
(window 6) about 41 us instead of 54 us (2-core x86-64 VM with AVX-512).
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

import numpy as np

from .bch import EXACT_MAX_K, _integer, _real, weight_enumerator_approx, weight_enumerator_exact
from .channel import ChannelParams, make_params, q_float

DEFAULT_WEIGHT_CAP = 64.0
DEFAULT_TARGET = 1e-9
_LOG0 = -1e100  # finite stand-in for log 0 in the pmf exponent, so that 0 * log 0 = 0
_EXP_CUT = -746.0  # exp(v) rounds to +0.0 for every v below about -745.13


@dataclass(frozen=True)
class ComponentProfile:
    """Per-input-error-count outcome tables for one component decoder.

    Index i counts errors among the other n-1 positions of a component word.
    The p-tables condition on the observed bit being in error, the q-tables on
    it being correct; e/c/eps split the outcomes into decoded-in-error,
    decoded-correct, and decoder failure.  Each (e, c, eps) triple sums to one.
    """

    n: int
    t: int
    pe: np.ndarray
    pc: np.ndarray
    peps: np.ndarray
    qe: np.ndarray
    qc: np.ndarray
    qeps: np.ndarray

    def __post_init__(self):
        # profiles are cached and shared (``auto_profile``): no caller may edit one
        for table in (self.pe, self.pc, self.peps, self.qe, self.qc, self.qeps):
            table.flags.writeable = False


def _middle_sums(n, t, counts, i):
    """(pe, qc, pc, qe) numerators for one i, each over n * C(n-1, i).

    Enumerates the decoding distance delta (delta = 0 covers inputs that
    already form a codeword, which the decoder returns unchanged), the
    overlap j between the error pattern and a weight-h codeword, and whether
    bit 0 itself is in error (``own``); ``f`` counts the compatible error
    placements.
    """
    err, cor = [0, 0], [0, 0]  # indexed by own
    for delta in range(t + 1):
        for j in range(delta + 1):
            for own in (0, 1):
                h, rest = i - delta + 2 * j + own, delta - j - own
                if j <= h <= n - 1 and 0 <= rest <= n - h - 1:
                    f = math.comb(h, j) * math.comb(n - h - 1, rest)
                    err[own] += counts[h + 1] * (h + 1) * f
                    cor[own] += counts[h] * (n - h) * f
    return err[0], cor[0], cor[1], err[1]


def component_profile(n: int, t: int, weights) -> ComponentProfile:
    """Build the six outcome tables from a weight distribution.

    ``weights`` holds the n+1 codeword counts by weight, as integers
    (enumerated) or ``Fraction``s (modeled).  They are scaled to integers over
    one common denominator, so every table entry is one exact rational,
    rounded once to float.
    """
    weights = np.asarray(weights, dtype=object)
    if weights.shape != (n + 1,):
        raise ValueError(f"weights must have length {n + 1}")
    fractions = [Fraction(w) for w in weights]
    scale = math.lcm(*(f.denominator for f in fractions))
    counts = [f.numerator * (scale // f.denominator) for f in fractions]

    # fewer than t (bit in error) or at most t (bit correct) errors are
    # always corrected; every other row is summed from the spectrum
    pe, pc, qe, qc = np.zeros(n), np.ones(n), np.zeros(n), np.ones(n)
    for i in range(t, n):
        den = n * math.comb(n - 1, i) * scale
        pe[i], qc_i, pc[i], qe_i = (s / den for s in _middle_sums(n, t, counts, i))
        if i > t:
            qe[i], qc[i] = qe_i, qc_i
    peps = np.maximum(0.0, 1.0 - pe - pc)
    qeps = np.maximum(0.0, 1.0 - qe - qc)
    return ComponentProfile(n=n, t=t, pe=pe, pc=pc, peps=peps, qe=qe, qc=qc, qeps=qeps)


@cache
def auto_profile(code) -> ComponentProfile:
    """Profile for a component code: its exact weight distribution whenever
    enumeration is feasible (k <= EXACT_MAX_K), the binomial model otherwise.

    Built once per code object and shared by every caller, read-only.
    """
    if code.k <= EXACT_MAX_K:
        return component_profile(code.n, code.t, weight_enumerator_exact(code))
    return component_profile(code.n, code.t, weight_enumerator_approx(code))


# ---------------------------------------------------------------------------
# transition functions


class TransitionKernels:
    """Binomially averaged transition functions for a fixed channel.

    Precomputes the outcome kernels so that evaluating all four functions at a
    message error rate x costs one binomial pmf and one matrix product.
    """

    def __init__(self, profile: ComponentProfile, params: ChannelParams):
        p_ch = self._p_ch = params.p_ch
        self._sigma = params.sigma
        self._kernels = np.stack(
            [
                p_ch * profile.pe + (1.0 - p_ch) * profile.qe,
                p_ch * profile.pc + (1.0 - p_ch) * profile.qc,
                profile.qe,
                profile.pc,
            ],
            axis=1,
        )
        self._i = np.arange(profile.n, dtype=np.float64)
        self._rest = (profile.n - 1) - self._i
        lgamma = np.array([math.lgamma(k) for k in range(1, profile.n + 1)])  # at i + 1
        self._logbin = math.lgamma(profile.n) - lgamma - lgamma[::-1]

    def eval(self, x) -> np.ndarray:
        """The transition functions (f_e, f_c, f_qe, f_pc) at message error
        rate(s) x in [0, 1], stacked on the first axis.

        A scalar x gives four scalars, an array of rates four arrays of the
        same shape; the Binomial(n-1, x) weights are exact at x = 0 and 1.
        """
        if np.ndim(x) == 0:
            # one rate: Python guards in place of numpy's error state and clamp
            x = float(x)
            logx = np.log(x) if x != 0.0 else _LOG0
            log1mx = np.log1p(-x) if x != 1.0 else _LOG0
            return np.exp(self._logbin + self._i * logx + self._rest * log1mx) @ self._kernels
        x = np.asarray(x, dtype=np.float64)[..., None]
        with np.errstate(divide="ignore"):
            logx, log1mx = np.maximum(np.log(x), _LOG0), np.maximum(np.log1p(-x), _LOG0)
        exponent = self._logbin + self._i * logx + self._rest * log1mx
        # exp is +0.0 below the cut but far slower there than near 0; NaN stays in
        pmf = np.exp(exponent, out=np.zeros(exponent.shape), where=~(exponent < _EXP_CUT))
        values = pmf @ self._kernels  # one column per transition function
        return values.transpose(-1, *range(values.ndim - 1))

    def step(self, x):
        """One half-iteration at incoming message error rate(s) x: the weight
        log(f_c / f_e) clamped to ``DEFAULT_WEIGHT_CAP``, and the bit-node
        update's outgoing error rate at that weight, each shaped like x
        (two Python floats for a scalar x)."""
        values = self.eval(x)
        if values.ndim == 1:
            return self._update(*values.tolist())
        pairs = [self._update(*rate) for rate in zip(*values.reshape(4, -1).tolist())]
        both = np.array(pairs).reshape(*values.shape[1:], 2)
        return both[..., 0], both[..., 1]

    def _update(self, fe: float, fc: float, fqe: float, fpc: float) -> tuple[float, float]:
        """``step`` at one rate, from its four transition values."""
        if not fc > 0.0:  # f_c vanishes (or is NaN): no weight
            w = 0.0
        elif fe == 0.0:  # f_e vanishes: log(f_c / f_e) is +inf
            w = DEFAULT_WEIGHT_CAP
        else:
            w = min(max(float(np.log(fc) - np.log(fe)), 0.0), DEFAULT_WEIGHT_CAP)
        p_ch, sigma = self._p_ch, self._sigma
        qm = q_float(1.0 / sigma - sigma * w / 2.0)
        qp = q_float(1.0 / sigma + sigma * w / 2.0)
        return w, fqe * (qm - p_ch) + fpc * qp + (1.0 - fpc) * p_ch


# ---------------------------------------------------------------------------
# uncoupled (product-code) recursion


@dataclass
class GldpcDeResult:
    ebn0_db: float
    rate: float
    p_ch: float
    sigma: float
    w_row: np.ndarray
    w_col: np.ndarray
    trajectory: np.ndarray  # message error rate after each half-iteration
    final_x: float
    converged: bool
    improving: bool
    iterations_run: int


def run_gldpc(
    profile: ComponentProfile,
    ebn0_db: float,
    rate: float,
    iterations: int = 1000,
    *,
    stop_early: bool = True,
) -> GldpcDeResult:
    """Run the uncoupled recursion from the channel state.

    Before each half-iteration the weight is the closed-form log-ratio of
    the transition functions at the incoming message error rate.

    With ``stop_early`` the loop ends after the first full iteration (row
    half, then column half) that either converges (the message error rate
    falls below ``DEFAULT_TARGET * 1e-3``) or leaves the rate exactly
    unchanged.  A full iteration depends only on the incoming rate, so at
    such a fixed point every later iteration repeats it: ``final_x``,
    ``converged`` and ``improving`` are those of the full budget, and the
    arrays are exact prefixes of the full run's.  Without ``stop_early``
    all ``iterations`` run.
    """
    iterations = _integer(iterations, "iterations")
    if iterations < 1:
        raise ValueError(f"iteration budget must be at least 1, got {iterations=}")
    params = make_params(ebn0_db, rate)
    kern = TransitionKernels(profile, params)

    x = params.p_ch
    weights: list[float] = []
    traj: list[float] = []
    it = 0
    for it in range(1, iterations + 1):
        x_in = x
        for _ in ("row", "col"):
            w, x = map(float, kern.step(x))
            weights.append(w)
            traj.append(x)
        if stop_early and (x < DEFAULT_TARGET * 1e-3 or x == x_in):
            break
    return GldpcDeResult(
        ebn0_db=ebn0_db, rate=rate, p_ch=params.p_ch, sigma=params.sigma,
        w_row=np.array(weights[0::2]), w_col=np.array(weights[1::2]),
        trajectory=np.array(traj), final_x=x, converged=bool(x < DEFAULT_TARGET),
        improving=bool(x < params.p_ch * (1.0 - 1e-9)), iterations_run=it,
    )


# ---------------------------------------------------------------------------
# spatially-coupled window recursion (u = 2)


def sc_cn_averages(x: np.ndarray, window_start: int, window_size: int) -> np.ndarray:
    """Per-constraint-position neighbor averages with out-of-window terms zeroed.

    Constraint position c in [s, s+W] sees bit positions c-1 and c; positions
    outside [s, s+W-1] contribute zero (decided or not yet received).
    """
    s, w = window_start, window_size
    padded = np.zeros(w + 2)
    padded[1:-1] = x[s : s + w]
    return 0.5 * (padded[:-1] + padded[1:])


@dataclass
class ScDeResult:
    ebn0_db: float
    rate: float
    p_ch: float
    sigma: float
    window: int
    iters_per_slide: int
    emitted: np.ndarray
    schedules: list[np.ndarray]  # per slide, shape (window+1, iters) CN weights
    steady_slide: int | None
    slides_run: int
    converged: bool
    improving: bool


def run_sc_window(
    profile: ComponentProfile,
    ebn0_db: float,
    rate: float,
    window: int,
    iters_per_slide: int,
    *,
    steady_tol: float = 1e-6,
    max_slides: int = 80,
    full_iterations: bool = False,
    fail_fast: bool = True,
) -> ScDeResult:
    """Slide a decoding window along the coupled chain and track convergence.

    Each slide iterates the in-window positions (``full_iterations`` disables
    the early fixed-point break so every slide logs a complete weight
    schedule), then advances by one position, freezing the position it leaves
    behind.  The left end of the chain is terminated by known bits.  Raises
    ValueError, before any recursion runs, on a window or budget that is not
    an integer of at least 1 or a ``steady_tol`` that is not a finite,
    positive real.
    """
    window = _integer(window, "window")
    iters_per_slide = _integer(iters_per_slide, "iters_per_slide")
    max_slides = _integer(max_slides, "max_slides")
    steady_tol = _real(steady_tol, "steady_tol")
    if window < 1:
        raise ValueError(f"window must be at least 1 position, got {window=}")
    if iters_per_slide < 1:
        raise ValueError(f"iteration budget must be at least 1, got {iters_per_slide=}")
    if max_slides < 1:
        raise ValueError(f"slide budget must be at least 1, got {max_slides=}")
    if not (math.isfinite(steady_tol) and steady_tol > 0):
        raise ValueError(f"steady_tol must be finite and positive, got {steady_tol!r}")
    params = make_params(ebn0_db, rate)
    kern = TransitionKernels(profile, params)

    x = np.full(max_slides + window + 2, params.p_ch)
    emitted: list[float] = []
    schedules: list[np.ndarray] = []
    steady_slide: int | None = None
    converged = False
    prev: np.ndarray | None = None
    s = 0
    for s in range(1, max_slides + 1):
        sched = np.zeros((window + 1, iters_per_slide))
        for it in range(iters_per_slide):
            w_cn, contrib = kern.step(sc_cn_averages(x, s, window))
            sched[:, it] = w_cn
            new = 0.5 * (contrib[:-1] + contrib[1:])
            delta = float(np.abs(new - x[s : s + window]).max())
            x[s : s + window] = new
            if not full_iterations and (delta < 1e-17 or new.max() < DEFAULT_TARGET * 1e-6):
                sched = sched[:, : it + 1]
                break
        schedules.append(sched)
        emitted.append(float(x[s]))

        if fail_fast and emitted[-1] >= DEFAULT_TARGET:
            break

        # steady once the weight schedule (full iterations) or else the
        # window's error-rate profile stops changing from slide to slide
        probe = sched if full_iterations else x[s : s + window].copy()
        tol = steady_tol if full_iterations else max(steady_tol, 1e-12)
        if prev is not None and probe.shape == prev.shape and np.max(np.abs(probe - prev)) < tol:
            steady_slide = s
            converged = bool(max(emitted) < DEFAULT_TARGET)
            break
        prev = probe

    return ScDeResult(
        ebn0_db=ebn0_db, rate=rate, p_ch=params.p_ch, sigma=params.sigma, window=window,
        iters_per_slide=iters_per_slide, emitted=np.array(emitted), schedules=schedules,
        steady_slide=steady_slide, slides_run=s, converged=converged,
        improving=bool(emitted and emitted[-1] < params.p_ch * (1.0 - 1e-9)),
    )


# ---------------------------------------------------------------------------
# threshold search


class BracketError(RuntimeError):
    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


# The windowed threshold depends on how long each window may work on its
# positions before sliding, so this budget is part of the sc ensemble's
# definition: 24 update rounds per slide mirror a practical decoder budget of
# 12 iterations, each touching a bit through both of its component codes.
# Letting every window run to its fixed point would instead recover the
# unwindowed coupled-chain threshold.
SC_ITERS_PER_SLIDE = 24
SC_MAX_SLIDES = 400
# slide budget for deriving a decoder's weight schedule (full-iteration mode,
# run until the per-slide schedules stop changing)
SC_SCHEDULE_MAX_SLIDES = 60


def threshold_run(profile: ComponentProfile, ebn0_db: float, rate: float,
                  window: int | None = None) -> GldpcDeResult | ScDeResult:
    """The recursion whose convergence decides the threshold: the uncoupled
    one when ``window`` is None, else the window-decoded coupled chain over
    ``window`` positions with the budgets above."""
    if window is None:
        return run_gldpc(profile, ebn0_db, rate)
    return run_sc_window(profile, ebn0_db, rate, window, SC_ITERS_PER_SLIDE,
                         max_slides=SC_MAX_SLIDES)


def sc_schedule_run(profile: ComponentProfile, ebn0_db: float, rate: float, window: int,
                    iters_per_slide: int) -> ScDeResult:
    """The windowed recursion a decoder's weight schedule is read from: all
    ``iters_per_slide`` rounds of every slide, past any failure."""
    return run_sc_window(profile, ebn0_db, rate, window, iters_per_slide, full_iterations=True,
                         fail_fast=False, max_slides=SC_SCHEDULE_MAX_SLIDES)


def threshold_search(
    ensemble: str,
    profile: ComponentProfile,
    rate: float,
    *,
    tol_db: float = 0.01,
    bracket: tuple[float, float] = (0.0, 16.0),
    window: int | None = None,
) -> float:
    """Bisect ``bracket`` (Eb/N0 in dB) for the smallest value that decodes.

    ``ensemble`` is "gldpc" (uncoupled) or "sc" (window-decoded coupled chain,
    requires ``window``).  Success means that ``threshold_run``'s message
    error rate falls below ``DEFAULT_TARGET`` within its iteration budget.
    The default bracket finds thresholds up to 16 dB.  Raises BracketError
    when the bracket endpoints do not straddle the threshold, and ValueError,
    before any recursion runs, on an unknown ensemble, a ``tol_db`` that is
    not a finite, positive real, a bracket (lo, hi) without lo < hi or with
    an end that is not finite, or an sc ``window`` that is not an integer of
    at least 1.  A ``tol_db`` finer than the float spacing at the threshold
    ends the bisection where lo and hi are adjacent floats.
    """
    if ensemble not in ("gldpc", "sc"):
        raise ValueError(f"unknown ensemble {ensemble!r}")
    tol_db = _real(tol_db, "tol_db")
    if not (math.isfinite(tol_db) and tol_db > 0):
        raise ValueError(f"tol_db must be finite and positive, got {tol_db!r}")
    lo, hi = float(bracket[0]), float(bracket[1])
    if not lo < hi:  # reversed ends would read as a bracket that does not straddle
        raise ValueError(f"bracket must be (lo, hi) with lo < hi, got ({lo:g}, {hi:g})")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"bracket ends must be finite, got ({lo:g}, {hi:g})")
    window = _integer(window, "sc window") if ensemble == "sc" else None
    if window is not None and window < 1:
        raise ValueError(f"sc ensemble needs a window of at least 1 position, got {window=}")

    def success(ebn0: float) -> bool:
        return threshold_run(profile, ebn0, rate, window).converged

    lo_ok, hi_ok = success(lo), success(hi)
    if lo_ok or not hi_ok:
        raise BracketError(
            f"bracket does not straddle the threshold: "
            f"decodes@{lo}dB={lo_ok}, decodes@{hi}dB={hi_ok}",
            {"lo": lo, "hi": hi, "lo_ok": lo_ok, "hi_ok": hi_ok},
        )

    # ends, too, once lo and hi are adjacent floats: mid would repeat one of them
    while hi - lo > tol_db and lo < (mid := 0.5 * (lo + hi)) < hi:
        if success(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)
