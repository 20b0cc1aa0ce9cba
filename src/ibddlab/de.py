"""Density evolution for hard-decision iterative decoding with scaled reliability.

Models the generalized-LDPC view of product codes (degree-2 bit nodes, two
component-word constraints per bit) and its spatially-coupled analog for
staircase codes.  Component decoders are bounded-distance decoders, so the
analysis tracks three message types: decoded-in-error, decoded-correct, and
failure.  Miscorrections are accounted for through combinatorial transition
tables derived from the component code's weight enumerator.

The per-iteration reliability weights used by the scaled-reliability decoders
fall out of the same recursion as log-ratios of the correct/error transition
probabilities, evaluated at the current message error rate.
"""

import math
from dataclasses import dataclass
from functools import cache
from typing import NamedTuple

import numpy as np
from scipy.special import gammaln, xlog1py, xlogy

from .channel import make_params, q_function

# exact integer combinatorics below this block length; log-gamma above
_EXACT_N_LIMIT = 300

DEFAULT_WEIGHT_CAP = 64.0
DEFAULT_TARGET = 1e-9


def _logcomb(a: int, b: int) -> float:
    if b < 0 or a < 0 or b > a:
        return -np.inf
    return float(gammaln(a + 1) - gammaln(b + 1) - gammaln(a - b + 1))


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
    log_weights: np.ndarray

    def __post_init__(self):
        # profiles are cached and shared (``auto_profile``): no caller may edit one
        for table in (self.pe, self.pc, self.peps, self.qe, self.qc, self.qeps, self.log_weights):
            table.flags.writeable = False


def _middle_sums(n, t, i, placements, term):
    """(pe, qc, pc, qe) sums for one i.

    Enumerates the decoding distance delta (delta = 0 covers inputs that
    already form a codeword, which the decoder returns unchanged) and the
    overlap j between the error pattern and a weight-h codeword.
    ``placements(h, j, rest)`` counts the compatible error placements and
    ``term(w, mult, f)`` turns weight w's codewords, the multiplicity and
    that count into one summand.
    """
    pe = qc = pc = qe = 0
    for delta in range(0, t + 1):
        # first j loop: bit 0 off the overlap; second: bit 0 itself in error
        for j in range(0, delta + 1):
            h, rest = i - delta + 2 * j, delta - j
            if 0 <= h <= n - 1 and h - j >= 0 and rest <= n - h - 1:
                f = placements(h, j, rest)
                pe += term(h + 1, h + 1, f)
                qc += term(h, n - h, f)
        for j in range(0, delta):
            h, rest = i - delta + 2 * j + 1, delta - j - 1
            if 0 <= h <= n - 1 and h - j >= 0 and rest <= n - h - 1:
                f = placements(h, j, rest)
                pc += term(h, n - h, f)
                qe += term(h + 1, h + 1, f)
    return pe, qc, pc, qe


def _middle_sums_exact(n, t, counts, i):
    """Integer arithmetic, exact for integer codeword counts."""
    den = n * math.comb(n - 1, i)
    sums = _middle_sums(
        n, t, i,
        lambda h, j, rest: math.comb(h, h - j) * math.comb(n - h - 1, rest),
        lambda w, mult, f: counts[w] * mult * f,
    )
    return tuple(s / den for s in sums)


def _middle_sums_log(n, t, log_w, i):
    """Term-by-term in log space (long codes)."""
    log_den = math.log(n) + _logcomb(n - 1, i)
    return _middle_sums(
        n, t, i,
        lambda h, j, rest: _logcomb(h, h - j) + _logcomb(n - h - 1, rest),
        lambda w, mult, f: (
            math.exp(log_w[w] + math.log(mult) + f - log_den) if log_w[w] > -np.inf else 0.0
        ),
    )


def component_profile(
    n: int,
    t: int,
    weights: np.ndarray | None = None,
    log_weights: np.ndarray | None = None,
) -> ComponentProfile:
    """Build the six outcome tables from a weight distribution.

    Pass either ``weights`` (length n+1 codeword counts, exact or modeled) or
    ``log_weights`` (their logs, -inf marking empty weights).
    """
    if (weights is None) == (log_weights is None):
        raise ValueError("pass exactly one of weights / log_weights")
    exact_counts = None
    if weights is not None:
        weights = np.asarray(weights)
        if weights.shape != (n + 1,):
            raise ValueError(f"weights must have length {n + 1}")
        if n <= _EXACT_N_LIMIT and np.issubdtype(weights.dtype, np.integer):
            exact_counts = [int(w) for w in weights]
        with np.errstate(divide="ignore"):
            log_weights = np.where(weights > 0, np.log(weights.astype(np.float64)), -np.inf)
    else:
        log_weights = np.array(log_weights, dtype=np.float64)
        if log_weights.shape != (n + 1,):
            raise ValueError(f"log_weights must have length {n + 1}")

    pe = np.zeros(n)
    pc = np.zeros(n)
    qe = np.zeros(n)
    qc = np.zeros(n)
    for i in range(n):
        need_p = t <= i <= n - t - 2
        need_q = t + 1 <= i <= n - t - 1
        if need_p or need_q:
            if exact_counts is not None:
                s_pe, s_qc, s_pc, s_qe = _middle_sums_exact(n, t, exact_counts, i)
            else:
                s_pe, s_qc, s_pc, s_qe = _middle_sums_log(n, t, log_weights, i)
        if i <= t - 1:
            pe[i], pc[i] = 0.0, 1.0
        elif need_p:
            pe[i], pc[i] = s_pe, s_pc
        else:
            pe[i], pc[i] = 1.0, 0.0
        if i <= t:
            qe[i], qc[i] = 0.0, 1.0
        elif need_q:
            qe[i], qc[i] = s_qe, s_qc
        else:
            qe[i], qc[i] = 1.0, 0.0
    peps = np.maximum(0.0, 1.0 - pe - pc)
    qeps = np.maximum(0.0, 1.0 - qe - qc)
    return ComponentProfile(
        n=n, t=t, pe=pe, pc=pc, peps=peps, qe=qe, qc=qc, qeps=qeps, log_weights=log_weights
    )


@cache
def auto_profile(code) -> ComponentProfile:
    """Profile for a component code: its exact weight distribution whenever
    enumeration is feasible (k <= EXACT_MAX_K), the binomial model otherwise.

    Built once per code object and shared by every caller, read-only.
    """
    from .bch import EXACT_MAX_K, weight_enumerator_approx, weight_enumerator_exact

    if code.k <= EXACT_MAX_K:
        return component_profile(code.n, code.t, weights=weight_enumerator_exact(code))
    return component_profile(code.n, code.t, log_weights=weight_enumerator_approx(code))


# ---------------------------------------------------------------------------
# transition functions


class TransitionValues(NamedTuple):
    fe: float
    fc: float
    fqe: float
    fpc: float


class TransitionKernels:
    """Binomially averaged transition functions for a fixed channel error rate.

    Precomputes the outcome kernels so that evaluating all four functions at a
    message error rate x costs one binomial pmf and one matrix product.
    """

    def __init__(self, profile: ComponentProfile, p_ch: float):
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
        self._logbin = gammaln(profile.n) - gammaln(self._i + 1) - gammaln(self._rest + 1)

    def eval(self, x) -> TransitionValues:
        """The transition functions at message error rate(s) x in [0, 1].

        A scalar x gives scalar fields, an array of rates gives arrays of the
        same shape; the Binomial(n-1, x) weights are exact at x = 0 and 1.
        """
        x = np.asarray(x, dtype=np.float64)[..., None]
        pmf = np.exp(self._logbin + xlogy(self._i, x) + xlog1py(self._rest, -x))
        values = pmf @ self._kernels  # one column per transition function
        return TransitionValues(*values.transpose(-1, *range(values.ndim - 1)))


def _weights(fc, fe, cap: float):
    """Reliability weight log(f_c / f_e) clamped to [0, cap].

    Saturates at the cap where the error transition vanishes and drops to
    zero where the correct transition does.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        w = np.minimum(np.maximum(np.log(fc) - np.log(fe), 0.0), cap)
    return np.where(fc > 0.0, w, 0.0)


def _vn_update_values(v: TransitionValues, w, p_ch: float, sigma: float):
    qm = q_function(1.0 / sigma - sigma * np.asarray(w) / 2.0)
    qp = q_function(1.0 / sigma + sigma * np.asarray(w) / 2.0)
    return v.fqe * (qm - p_ch) + v.fpc * qp + (1.0 - v.fpc) * p_ch


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
    cap: float = DEFAULT_WEIGHT_CAP,
    target: float = DEFAULT_TARGET,
    stop_early: bool = True,
) -> GldpcDeResult:
    """Run the uncoupled recursion from the channel state.

    Before each half-iteration the weight is the closed-form log-ratio of
    the transition functions at the incoming message error rate.
    """
    params = make_params(ebn0_db, rate)
    p_ch, sigma = params.p_ch, params.sigma
    kern = TransitionKernels(profile, p_ch)

    x = p_ch
    weights: list[float] = []
    traj: list[float] = []
    it = 0
    for it in range(1, iterations + 1):
        for _ in ("row", "col"):
            v = kern.eval(x)
            w = float(_weights(v.fc, v.fe, cap))
            x = float(_vn_update_values(v, w, p_ch, sigma))
            weights.append(w)
            traj.append(x)
        if stop_early and x < target * 1e-3:
            break
    return GldpcDeResult(
        ebn0_db=ebn0_db,
        rate=rate,
        p_ch=p_ch,
        sigma=sigma,
        w_row=np.array(weights[0::2]),
        w_col=np.array(weights[1::2]),
        trajectory=np.array(traj),
        final_x=x,
        converged=bool(x < target),
        improving=bool(x < p_ch * (1.0 - 1e-9)),
        iterations_run=it,
    )


# ---------------------------------------------------------------------------
# spatially-coupled window recursion (u = 2)


def sc_cn_averages(x: np.ndarray, window_start: int, window_size: int) -> np.ndarray:
    """Per-constraint-position neighbor averages with out-of-window terms zeroed.

    Constraint position c in [s, s+W] sees bit positions c-1 and c; positions
    outside [s, s+W-1] contribute zero (decided or not yet received).
    """
    s, w = window_start, window_size
    padded = np.concatenate([[0.0], x[s : s + w], [0.0]])
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
    cap: float = DEFAULT_WEIGHT_CAP,
    target: float = DEFAULT_TARGET,
    steady_tol: float = 1e-6,
    max_slides: int = 80,
    full_iterations: bool = False,
    fail_fast: bool = True,
) -> ScDeResult:
    """Slide a decoding window along the coupled chain and track convergence.

    Each slide iterates the in-window positions (``full_iterations`` disables
    the early fixed-point break so every slide logs a complete weight
    schedule), then advances by one position, freezing the position it leaves
    behind.  The left end of the chain is terminated by known bits.
    """
    params = make_params(ebn0_db, rate)
    p_ch, sigma = params.p_ch, params.sigma
    kern = TransitionKernels(profile, p_ch)

    x = np.full(max_slides + window + 2, p_ch)
    x[0] = 0.0  # known termination; masked out of every window anyway

    emitted: list[float] = []
    schedules: list[np.ndarray] = []
    steady_slide: int | None = None
    converged = False
    prev_sched: np.ndarray | None = None
    prev_profile: np.ndarray | None = None
    s = 0
    for s in range(1, max_slides + 1):
        sched = np.zeros((window + 1, iters_per_slide))
        for it in range(iters_per_slide):
            bavg = sc_cn_averages(x, s, window)
            v = kern.eval(bavg)
            w_cn = _weights(v.fc, v.fe, cap)
            sched[:, it] = w_cn
            contrib = _vn_update_values(v, w_cn, p_ch, sigma)
            new = 0.5 * (contrib[:-1] + contrib[1:])
            delta = float(np.max(np.abs(new - x[s : s + window])))
            x[s : s + window] = new
            if not full_iterations and (delta < 1e-17 or float(np.max(new)) < target * 1e-6):
                sched = sched[:, : it + 1]
                break
        schedules.append(sched)
        emitted.append(float(x[s]))

        if fail_fast and emitted[-1] >= target:
            converged = False
            break

        if full_iterations:
            if prev_sched is not None and sched.shape == prev_sched.shape:
                if float(np.max(np.abs(sched - prev_sched))) < steady_tol:
                    steady_slide = s
                    converged = bool(max(emitted) < target)
                    break
            prev_sched = sched
        else:
            prof = x[s : s + window].copy()
            if prev_profile is not None:
                if float(np.max(np.abs(prof - prev_profile))) < max(steady_tol, 1e-12):
                    steady_slide = s
                    converged = bool(max(emitted) < target)
                    break
            prev_profile = prof

    improving = bool(emitted and emitted[-1] < p_ch * (1.0 - 1e-9))
    return ScDeResult(
        ebn0_db=ebn0_db,
        rate=rate,
        p_ch=p_ch,
        sigma=sigma,
        window=window,
        iters_per_slide=iters_per_slide,
        emitted=np.array(emitted),
        schedules=schedules,
        steady_slide=steady_slide,
        slides_run=s,
        converged=converged,
        improving=improving,
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


def threshold_search(
    ensemble: str,
    profile: ComponentProfile,
    rate: float,
    *,
    tol_db: float = 0.01,
    bracket: tuple[float, float] | None = None,
    window: int | None = None,
) -> float:
    """Bisect Eb/N0 for the smallest value where the recursion decodes.

    ``ensemble`` is "gldpc" (uncoupled) or "sc" (window-decoded coupled chain,
    requires ``window``; ``SC_ITERS_PER_SLIDE`` rounds per slide, at most
    ``SC_MAX_SLIDES`` slides).  Success means the message error rate falls
    below ``DEFAULT_TARGET`` within the iteration budget.  Raises BracketError
    when the bracket endpoints do not straddle the threshold.
    """
    if ensemble not in ("gldpc", "sc"):
        raise ValueError(f"unknown ensemble {ensemble!r}")
    if ensemble == "sc" and not window:
        raise ValueError("sc ensemble needs a window size")

    def success(ebn0: float) -> bool:
        if ensemble == "gldpc":
            return run_gldpc(profile, ebn0, rate).converged
        return run_sc_window(
            profile, ebn0, rate, window, SC_ITERS_PER_SLIDE, max_slides=SC_MAX_SLIDES
        ).converged

    if bracket is None:
        lo, hi = None, None
        prev = 0.5
        prev_ok = success(prev)
        for ebn0 in np.arange(1.0, 13.0, 0.5):
            ok = success(float(ebn0))
            if ok and not prev_ok:
                lo, hi = prev, float(ebn0)
                break
            prev, prev_ok = float(ebn0), ok
        if lo is None:
            raise BracketError(
                "no threshold bracket found in [0.5, 12.5] dB",
                {"ensemble": ensemble, "rate": rate},
            )
    else:
        lo, hi = float(bracket[0]), float(bracket[1])
        lo_ok, hi_ok = success(lo), success(hi)
        if lo_ok or not hi_ok:
            raise BracketError(
                f"bracket does not straddle the threshold: "
                f"decodes@{lo}dB={lo_ok}, decodes@{hi}dB={hi_ok}",
                {"lo": lo, "hi": hi, "lo_ok": lo_ok, "hi_ok": hi_ok},
            )

    while hi - lo > tol_db:
        mid = 0.5 * (lo + hi)
        if success(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# export


def gldpc_profile_json(
    result: GldpcDeResult, n: int, t: int, threshold: float | None = None
) -> dict:
    return {
        "ensemble": "gldpc",
        "n": n,
        "t": t,
        "ebn0_db": result.ebn0_db,
        "rate": result.rate,
        "weights_row": [float(w) for w in result.w_row],
        "weights_col": [float(w) for w in result.w_col],
        "trajectory": [float(v) for v in result.trajectory],
        "converged": bool(result.converged),
        "improving": bool(result.improving),
        "threshold": threshold,
    }


def sc_profile_json(
    result: ScDeResult, n: int, t: int, threshold: float | None = None
) -> dict:
    steady = result.schedules[-1] if result.schedules else np.zeros((result.window + 1, 0))
    return {
        "ensemble": "sc_gldpc",
        "n": n,
        "t": t,
        "ebn0_db": result.ebn0_db,
        "rate": result.rate,
        "window": result.window,
        "weights_row": [[float(v) for v in row] for row in steady],
        "weights_col": [],
        "trajectory": [float(v) for v in result.emitted],
        "steady_slide": result.steady_slide,
        "converged": bool(result.converged),
        "improving": bool(result.improving),
        "threshold": threshold,
    }
