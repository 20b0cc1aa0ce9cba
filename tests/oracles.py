"""Brute-force reference implementations used by several test modules.

Everything here is deliberately written against the *definition* of the
quantity under test (nearest-codeword search, exhaustive error-pattern
enumeration) rather than sharing any code path with the package.
"""

import math

import numpy as np
from scipy.special import gammaln

from ibddlab.channel import q_function


def codebook(code) -> np.ndarray:
    """All 2^k codewords as a (2^k, n) binary matrix."""
    total = 1 << code.k
    ints = np.arange(total, dtype=np.uint32)
    info = ((ints[:, None] >> np.arange(code.k, dtype=np.uint32)) & 1).astype(np.uint8)
    return code.encode(info)


def popcount_table() -> np.ndarray:
    return np.array([bin(v).count("1") for v in range(1 << 16)], dtype=np.uint8)


def pack16(bits: np.ndarray) -> np.ndarray:
    """Pack binary rows of length <= 16 into uint16 integers."""
    weights = (1 << np.arange(bits.shape[1], dtype=np.uint32)).astype(np.uint32)
    return (bits.astype(np.uint32) @ weights).astype(np.uint16)


def brute_force_bdd(code, words: np.ndarray, book=None, pop=None):
    """Radius-t nearest-codeword decoding by exhaustive distance search.

    Returns (decoded, ok); failed rows pass through unchanged.  Asserts the
    in-radius codeword is unique (guaranteed within the packing radius).
    """
    book = codebook(code) if book is None else book
    pop = popcount_table() if pop is None else pop
    packed_book = pack16(book)
    decoded = words.copy()
    ok = np.zeros(len(words), dtype=bool)
    chunk = 4096
    for lo in range(0, len(words), chunk):
        hi = min(lo + chunk, len(words))
        packed = pack16(words[lo:hi])
        dist = pop[np.bitwise_xor(packed[:, None], packed_book[None, :])]
        within = dist <= code.t
        n_within = within.sum(axis=1)
        assert int(n_within.max(initial=0)) <= 1, "radius-t ball holds two codewords"
        sel = n_within == 1
        ok[lo:hi] = sel
        idx = np.argmax(within, axis=1)
        decoded[lo:hi][sel] = book[idx[sel]]
    return decoded, ok


def _berlekamp_massey(field, synd: list[int]) -> tuple[list[int], int]:
    """Minimal LFSR (error locator) generating the syndrome sequence."""
    log = field.log_table
    alog = field.antilog_table
    order = field.order

    c = [1]
    b = [1]
    lfsr_len = 0
    gap = 1
    b_disc = 1
    for i, s in enumerate(synd):
        d = s
        for j in range(1, lfsr_len + 1):
            if j < len(c) and c[j] and synd[i - j]:
                d ^= int(alog[(log[c[j]] + log[synd[i - j]]) % order])
        if d == 0:
            gap += 1
            continue
        coef_log = (log[d] - log[b_disc]) % order
        if 2 * lfsr_len <= i:
            prev = c[:]
            need = len(b) + gap
            if len(c) < need:
                c = c + [0] * (need - len(c))
            for j, bj in enumerate(b):
                if bj:
                    c[j + gap] ^= int(alog[(coef_log + log[bj]) % order])
            lfsr_len = i + 1 - lfsr_len
            b = prev
            b_disc = d
            gap = 1
        else:
            need = len(b) + gap
            if len(c) < need:
                c = c + [0] * (need - len(c))
            for j, bj in enumerate(b):
                if bj:
                    c[j + gap] ^= int(alog[(coef_log + log[bj]) % order])
            gap += 1
    return c, lfsr_len


def _error_positions(code, synd_row) -> np.ndarray | None:
    """Locate errors for a nonzero syndrome, or None when out of decoding range."""
    field = code.field
    locator, lfsr_len = _berlekamp_massey(field, [int(s) for s in synd_row])
    if lfsr_len > code.t:
        return None
    log = field.log_table
    alog = field.antilog_table
    order = field.order
    # evaluate the locator at alpha^(-e) for every field exponent e
    e = np.arange(order, dtype=np.int64)
    acc = np.ones(order, dtype=np.int32)
    for d in range(1, len(locator)):
        cd = locator[d]
        if cd == 0:
            continue
        if d > code.t:
            return None
        acc ^= alog[(int(log[cd]) - e * d) % order]
    roots = np.flatnonzero(acc == 0)
    # every root must be distinct (guaranteed by exponent enumeration), account
    # for the full LFSR length, and land inside the shortened word
    if len(roots) != lfsr_len:
        return None
    positions = code.n - 1 - roots
    if np.any(positions < 0):
        return None
    return positions


def bdd_decode_rows(code, words: np.ndarray):
    """Bounded-distance decoding one row at a time: syndromes from their
    definition, list-based Berlekamp-Massey and a Chien search over every
    field element.  Returns (ternary, decoded, ok) like
    ``bch.bdd_decode_matrix``, the array kernel it is the reference for.
    """
    words = np.ascontiguousarray(words, dtype=np.uint8)
    field = code.field
    # S_j sums alpha^(j * (n-1-p)) over the set positions p
    exps = code.n - 1 - np.arange(code.n)
    powers = field.antilog_table[(np.arange(1, 2 * code.t + 1)[:, None] * exps) % field.order]
    decoded = words.copy()
    ok = np.ones(len(words), dtype=bool)
    for r, word in enumerate(words):
        synd = np.bitwise_xor.reduce(powers[:, word == 1], axis=1)
        if not synd.any():
            continue
        pos = _error_positions(code, synd)
        if pos is None:
            ok[r] = False
        else:
            decoded[r, pos] ^= 1
    ternary = np.where(ok[:, None], 1 - 2 * decoded.astype(np.int8), 0).astype(np.int8)
    return ternary, decoded, ok


def all_words(n: int) -> np.ndarray:
    """Every binary word of length n (n <= 16), one per row."""
    total = 1 << n
    ints = np.arange(total, dtype=np.uint32)
    return ((ints[:, None] >> np.arange(n, dtype=np.uint32)) & 1).astype(np.uint8)


def empirical_transition_tables(code, decode_matrix):
    """Exhaustively measured bit-0 transition probabilities.

    For every error count i among the other n-1 positions, enumerates all
    placements, decodes [b0 | pattern] with ``decode_matrix``, and tallies
    the decoded state of bit 0:

      returns (pe, pc, peps, qe, qc, qeps), each length n, where the p-rows
      condition on bit 0 received in error and the q-rows on bit 0 received
      correctly.  Within each conditioning, e/c/eps = decoded-in-error /
      decoded-correct / decoder-failure fractions.
    """
    n = code.n
    patterns = all_words(n - 1)
    counts_i = patterns.sum(axis=1).astype(np.int64)
    out = []
    for b0 in (1, 0):
        words = np.concatenate(
            [np.full((len(patterns), 1), b0, dtype=np.uint8), patterns], axis=1
        )
        _, dec, ok = decode_matrix(code, words)
        err = ok & (dec[:, 0] == 1)
        cor = ok & (dec[:, 0] == 0)
        fail = ~ok
        denom = np.bincount(counts_i, minlength=n).astype(np.float64)
        e = np.bincount(counts_i, weights=err.astype(float), minlength=n) / denom
        c = np.bincount(counts_i, weights=cor.astype(float), minlength=n) / denom
        eps = np.bincount(counts_i, weights=fail.astype(float), minlength=n) / denom
        out.extend([e, c, eps])
    return tuple(out)


def _logcomb(a: int, b: int) -> float:
    if b < 0 or a < 0 or b > a:
        return -np.inf
    return float(gammaln(a + 1) - gammaln(b + 1) - gammaln(a - b + 1))


def log_space_model_tables(code) -> tuple:
    """(pe, pc, peps, qe, qc, qeps) of the binomial weight model, in floats.

    The model A_h = C(n, h) / 2^(m t) on 2t+1 <= h <= n-2t-1 (A_0 = A_n = 1)
    is kept as logs, and every summand of the outcome sums is formed in log
    space and exponentiated on its own, so nothing is shared with the exact
    rational arithmetic of ``de.component_profile``; the boundary rows follow
    its conventions.
    """
    n, t, m = code.n, code.t, code.field.m
    log_w = np.full(n + 1, -np.inf)
    for h in range(2 * t + 1, n - 2 * t):
        log_w[h] = -m * t * math.log(2.0) + _logcomb(n, h)
    log_w[0] = log_w[n] = 0.0
    pe, pc, qe, qc = (np.zeros(n) for _ in range(4))
    for i in range(n):
        log_den = math.log(n) + _logcomb(n - 1, i)

        def term(w, mult, f):
            return math.exp(log_w[w] + math.log(mult) + f - log_den) if log_w[w] > -np.inf else 0.0

        s_pe = s_qc = s_pc = s_qe = 0.0
        for delta in range(t + 1):
            # first j loop: bit 0 off the overlap; second: bit 0 itself in error
            for j in range(delta + 1):
                h, rest = i - delta + 2 * j, delta - j
                if 0 <= h <= n - 1 and h - j >= 0 and rest <= n - h - 1:
                    f = _logcomb(h, h - j) + _logcomb(n - h - 1, rest)
                    s_pe += term(h + 1, h + 1, f)
                    s_qc += term(h, n - h, f)
            for j in range(delta):
                h, rest = i - delta + 2 * j + 1, delta - j - 1
                if 0 <= h <= n - 1 and h - j >= 0 and rest <= n - h - 1:
                    f = _logcomb(h, h - j) + _logcomb(n - h - 1, rest)
                    s_pc += term(h, n - h, f)
                    s_qe += term(h + 1, h + 1, f)
        if i <= t - 1:
            pe[i], pc[i] = 0.0, 1.0
        elif i <= n - t - 2:
            pe[i], pc[i] = s_pe, s_pc
        else:
            pe[i], pc[i] = 1.0, 0.0
        if i <= t:
            qe[i], qc[i] = 0.0, 1.0
        elif i <= n - t - 1:
            qe[i], qc[i] = s_qe, s_qc
        else:
            qe[i], qc[i] = 1.0, 0.0
    peps = np.maximum(0.0, 1.0 - pe - pc)
    qeps = np.maximum(0.0, 1.0 - qe - qc)
    return pe, pc, peps, qe, qc, qeps


def transition_values(profile, x: float, p_ch: float) -> tuple:
    """(fe, fc, fqe, fpc) at message error rate x by a direct binomial sum.

    Each is a table of ``profile`` averaged over Binomial(n-1, x) error
    counts; fe and fc mix the in-error and correct conditionings at p_ch.
    """
    n = profile.n
    pmf = np.array(
        [math.comb(n - 1, i) * x**i * (1 - x) ** (n - 1 - i) for i in range(n)]
    )
    ke = p_ch * profile.pe + (1 - p_ch) * profile.qe
    kc = p_ch * profile.pc + (1 - p_ch) * profile.qc
    return (
        float(pmf @ ke), float(pmf @ kc), float(pmf @ profile.qe), float(pmf @ profile.pc)
    )


def vn_update(values, w, p_ch: float, sigma: float):
    """Message error rate after one half-iteration with combining weight w:

    fqe (Q(1/sigma - sigma w/2) - p_ch) + fpc Q(1/sigma + sigma w/2) + (1 - fpc) p_ch
    """
    _, _, fqe, fpc = values
    qm = q_function(1.0 / sigma - sigma * np.asarray(w) / 2.0)
    qp = q_function(1.0 / sigma + sigma * np.asarray(w) / 2.0)
    return fqe * (qm - p_ch) + fpc * qp + (1.0 - fpc) * p_ch


def scaling_factor_numeric(
    values, p_ch: float, sigma: float, cap: float = 64.0, grid_points: int = 641
) -> float:
    """Weight chosen by minimizing the one-step updated error rate on a grid.

    Reference for the closed-form log-ratio rule; the two agree to grid
    resolution.
    """
    ws = np.linspace(0.0, cap, grid_points)
    return float(ws[np.argmin(vn_update(values, ws, p_ch, sigma))])


def bootstrap_ber_ci_oneshot(counts, bits_per_frame: int, seed: int, n_boot: int = 1000):
    """The BER bootstrap drawing its whole (n_boot, n) index matrix at once."""
    counts = np.asarray(counts, dtype=np.int64)
    n = len(counts)
    rng = np.random.default_rng([seed, 0xB0075])
    idx = rng.integers(0, n, size=(n_boot, n))
    bers = counts[idx].sum(axis=1) / (n * bits_per_frame)
    lo, hi = np.percentile(bers, [2.5, 97.5])
    return (float(lo), float(hi))


def paired_gap_bootstrap_oneshot(a, b, bits_per_frame: int, seed: int, n_boot: int = 1000):
    """The paired BER-gap bootstrap drawing its whole index matrix at once."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    n = len(a)
    rng = np.random.default_rng([seed, 0xD1FF])
    idx = rng.integers(0, n, size=(n_boot, n))
    gaps = (a[idx].sum(axis=1) - b[idx].sum(axis=1)) / (n * bits_per_frame)
    lo, hi = np.percentile(gaps, [2.5, 97.5])
    return (float(lo), float(hi))
