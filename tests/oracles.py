"""Brute-force reference implementations used by several test modules.

Everything here is deliberately written against the *definition* of the
quantity under test (nearest-codeword search, exhaustive error-pattern
enumeration) rather than sharing any code path with the package.  The
exceptions are the per-frame product loop and the per-stream staircase
window loop: they are the decoder loops the stacked decoders replaced, kept
as their references, and they decode each component matrix through
``component_step`` with the package's BCH kernels and ``combine_decision``.
Likewise ``locate_errors_chien`` is the array error locator that the
table-root kernel replaced, and reads the code's log tables; as
Berlekamp-Massey from step 0 with a Chien search for every t, it now also
checks the closed-form locator that replaced Berlekamp-Massey for t <= 3.
``weight_enumerator_encode`` is the codeword enumerator that the span and
MacWilliams enumerator replaced, and ``frame_stack_per_frame`` is the
per-frame generator loop that the stacked noise draw replaced, with the
package's encoders.  ``syndrome_table_by_patterns`` is the syndrome table
built by enumerating every error pattern of weight <= t, before each code's
table was filled by running its one error locator over every syndrome word;
it keys the patterns by syndrome words packed from ``syndrome_powers``.
``generator_poly_minimal`` and ``parity_matrix`` are the
minimal-polynomial product and the per-element parity loop that the
generator built from the cyclotomic cosets and the packed parity build
replaced, and read the field's log tables.  ``syndromes_oneshot`` is the
one-product syndrome formula that the chunked ``BchCode.syndromes``
replaced, and ``ideal_decode_dense`` the dense genie decoder that the genie's
flip list replaced.  ``run_point_stepwise`` is the point driver that sent each
plan batch to the decoders alone, before batches no stop check separates were
merged into shared calls; it runs the package's engine.  ``threshold_scan``
is the 0.5-dB scan that found ``threshold_search``'s bracket before its
default bracket was bisected like a given one; it runs the package's
``threshold_run``.  ``line_flips``, ``iterate``, ``transposed`` and
``staircase_copies`` are the round loop of both schemes as it was before
the flat-index kernel and the packed syndrome word: item-major words, each
flipped bit an (f, i, j) triple, each line's odd syndromes a row of a
(..., t) int32 array that a flip updates by ``np.bitwise_xor.at`` with its
position's row of odd syndromes; ``kernel_spy`` runs them beside the
package's loop.  ``word_syndromes`` sums a word's odd syndromes from
``syndrome_powers``, and ``pack_syndromes`` and ``unpack_syndromes`` move
them between that layout and the package's int64 syndrome words.
``q_function_scipy`` and ``TransitionKernelsScipy`` are the Q-function and
the transition functions' binomial weights as they were built from scipy's
``erfc``, ``gammaln``, ``xlogy`` and ``xlog1py``, before the package took
them from ``math`` and numpy alone.  ``TransitionKernelsArrays`` and
``weights`` are the density-evolution half-step as it was before ``step``
did its per-rate arithmetic in Python floats: numpy ufuncs over arrays,
with ``exp`` over every pmf term.
"""

import math

import numpy as np
from scipy.special import erfc, gammaln, xlog1py, xlogy

from ibddlab import product, staircase
from ibddlab.bch import BchCode, _locate_errors, bdd_decode_matrix, ideal_decode_matrix
from ibddlab.channel import harden, make_params, q_function
from ibddlab.de import _LOG0, DEFAULT_WEIGHT_CAP, BracketError, TransitionKernels, threshold_run
from ibddlab.product import ProductCode, combine_decision, pc_encode
from ibddlab.sim import N_BOOT, _batch_plan, _build_engine
from ibddlab.staircase import StaircaseCode, WindowConfig, encode_stream


def codebook(code) -> np.ndarray:
    """All 2^k codewords as a (2^k, n) binary matrix."""
    total = 1 << code.k
    ints = np.arange(total, dtype=np.uint32)
    info = ((ints[:, None] >> np.arange(code.k, dtype=np.uint32)) & 1).astype(np.uint8)
    return code.encode(info)


def weight_enumerator_encode(code) -> np.ndarray:
    """Weight distribution by encoding all 2^k information words in chunks:
    the enumerator ``bch.weight_enumerator_exact`` replaced."""
    counts = np.zeros(code.n + 1, dtype=np.int64)
    total = 1 << code.k
    chunk = 1 << 14
    bit_idx = np.arange(code.k, dtype=np.uint32)
    for lo in range(0, total, chunk):
        hi = min(lo + chunk, total)
        ints = np.arange(lo, hi, dtype=np.uint32)
        info = ((ints[:, None] >> bit_idx[None, :]) & 1).astype(np.uint8)
        weights = np.count_nonzero(code.encode(info), axis=1)
        counts += np.bincount(weights, minlength=code.n + 1)
    return counts


def _poly_mul(a: int, b: int) -> int:
    """Product of two GF(2) polynomials held as int bit masks."""
    out = 0
    while b:
        if b & 1:
            out ^= a
        a <<= 1
        b >>= 1
    return out


def _poly_mod(p: int, g: int) -> int:
    dg = g.bit_length() - 1
    while p.bit_length() - 1 >= dg and p:
        p ^= g << (p.bit_length() - 1 - dg)
    return p


def minimal_polynomial(field, exponent: int) -> int:
    """Minimal polynomial over GF(2) of alpha^exponent, as a bit mask: the
    product of (x + alpha^j) over the cyclotomic coset of the exponent,
    multiplied out coefficient by coefficient."""
    log, alog, order = field.log_table, field.antilog_table, field.order
    coset = []
    e = exponent % order
    while e not in coset:
        coset.append(e)
        e = (2 * e) % order
    poly = [1]  # poly[i] = coefficient of x^i, in GF(2^m)
    for j in coset:
        nxt = [0] * (len(poly) + 1)
        for i, c in enumerate(poly):
            if c:
                nxt[i + 1] ^= c
                nxt[i] ^= int(alog[(log[c] + j) % order])
        poly = nxt
    assert set(poly) <= {0, 1}, "minimal polynomial has coefficients outside GF(2)"
    return sum(c << i for i, c in enumerate(poly))


def generator_poly_minimal(field, t: int) -> int:
    """The BCH generator as the product of the distinct minimal polynomials
    of alpha, alpha^3, .., alpha^(2t-1)."""
    generator, seen = 1, set()
    for i in range(1, 2 * t, 2):
        mp = minimal_polynomial(field, i)
        if mp not in seen:
            seen.add(mp)
            generator = _poly_mul(generator, mp)
    return generator


def parity_matrix(code) -> np.ndarray:
    """The (k, n-k) systematic parity bits, one element at a time: row i holds
    x^(n-1-i) mod g, its coefficient of x^(n-k-1-q) in column q."""
    n, k, g = code.n, code.k, code.generator_poly
    nk = n - k
    parity = np.zeros((k, nk), dtype=np.uint8)
    for i in range(k):
        r = _poly_mod(1 << (n - 1 - i), g)
        for q in range(nk):
            parity[i, q] = (r >> (nk - 1 - q)) & 1
    return parity


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


def syndrome_powers(code) -> np.ndarray:
    """Row j-1, column p: alpha^(j * (n-1-p)), the term of S_j at position p."""
    field = code.field
    exps = code.n - 1 - np.arange(code.n)
    return field.antilog_table[(np.arange(1, 2 * code.t + 1)[:, None] * exps) % field.order]


def word_syndromes(code, words) -> np.ndarray:
    """The odd syndromes S_1, S_3, .., S_2t-1 of each row of ``words``,
    (..., t) int32: the XOR of their ``syndrome_powers`` at the set bits."""
    odd = syndrome_powers(code)[::2]
    return np.bitwise_xor.reduce(np.where(np.asarray(words)[..., None, :] == 1, odd, 0), axis=-1)


def pack_syndromes(code, synd) -> np.ndarray:
    """Odd syndromes (..., t) as syndrome words (...,) int64, S_2i+1 in bits
    m*i .. m*i+m-1, the layout of ``BchCode.syndromes``."""
    shifted = np.asarray(synd, dtype=np.int64) << code.field.m * np.arange(code.t)
    return np.bitwise_or.reduce(shifted, axis=-1)


def unpack_syndromes(code, words) -> np.ndarray:
    """Syndrome words (...,) as their odd syndromes (..., t) int32."""
    m = code.field.m
    return (np.asarray(words)[..., None] >> m * np.arange(code.t) & (1 << m) - 1).astype(np.int32)


def syndrome_table_by_patterns(code) -> tuple[np.ndarray, np.ndarray]:
    """The (``_table``, ``_table_ok``) that ``BchCode._build_syndrome_table``
    fills, built here from the error patterns of weight <= t.  Row ``key``
    lists, in increasing order, the positions of the pattern whose syndrome
    word is ``key``, -1 padding; ``ok[key]`` says whether one exists.  Two
    patterns of weight <= t with one key would differ by a nonzero codeword
    of weight <= 2t < d, so each key has at most one.  The key is linear in
    the word: a pattern's key is the XOR of its positions' keys ``kpos``."""
    n, t, m = code.n, code.t, code.field.m
    kpos = np.append(pack_syndromes(code, syndrome_powers(code)[::2].T), 0)  # position n: none
    # every pattern is one t-tuple over 0..n, rising to its last position
    # and then padded with n; there are (n+1)^t <= 2^(m*t) tuples in all
    pats = np.indices((n + 1,) * t).reshape(t, -1).T
    pats = pats[((pats[:, :-1] < pats[:, 1:]) | (pats[:, 1:] == n)).all(axis=1)]
    keys = np.bitwise_xor.reduce(kpos[pats], axis=1)
    table = np.full((1 << m * t, t), -1, dtype=np.min_scalar_type(-n))
    table[keys] = np.where(pats < n, pats, -1)
    ok = np.zeros(1 << m * t, dtype=bool)
    ok[keys] = True
    return table, ok


def syndromes_oneshot(code, words) -> np.ndarray:
    """``BchCode.syndromes`` as one float64 product over the whole stack."""
    counts = np.asarray(words, dtype=np.uint8).astype(np.float64) @ code._synd_bits
    return (counts.astype(np.int64) & 1) @ code._bit_values


def ideal_decode_dense(code, words, transmitted):
    """Row-wise genie decode as dense arrays (ternary, decoded, ok): the
    transmitted row iff within distance t, else the row unchanged."""
    words = np.asarray(words, dtype=np.uint8)
    transmitted = np.asarray(transmitted, dtype=np.uint8)
    ok = np.count_nonzero(words != transmitted, axis=1) <= code.t
    decoded = np.where(ok[:, None], transmitted, words).astype(np.uint8)
    ternary = np.where(ok[:, None], 1 - 2 * transmitted.astype(np.int8), 0).astype(np.int8)
    return ternary, decoded, ok


def bdd_decode_rows(code, words: np.ndarray):
    """Bounded-distance decoding one row at a time: syndromes from their
    definition, list-based Berlekamp-Massey and a Chien search over every
    field element.  Returns (ternary, decoded, ok) like
    ``bch.bdd_decode_matrix``, the array kernel it is the reference for.
    """
    words = np.ascontiguousarray(words, dtype=np.uint8)
    # S_j sums alpha^(j * (n-1-p)) over the set positions p
    powers = syndrome_powers(code)
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


def locate_errors_chien(code: BchCode, synd: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Error positions of every row at once, from the rows' odd syndromes
    ``synd`` (``BchCode.syndromes``): (flip mask, ok).

    The array kernel ``bch._locate_errors`` replaced by syndrome tables
    (m*t <= 18) and closed-form locators and roots (t <= 3), kept as its
    reference: Berlekamp-Massey from step 0, then a Chien search over the n
    in-range positions for every t.  It computes its own even syndromes and Chien
    exponents and otherwise reads only the code's zero-safe log tables.

    Berlekamp-Massey runs on all rows together (Lin & Costello, ch. 6).  The
    syndromes of a binary word satisfy S_2i = S_i^2, so the discrepancy of
    every odd step is zero (Lin & Costello, sec. 6.2): only the t even steps
    run, each shifting ``b`` by x^2 for itself and the skipped step.  ``c``
    is the error locator, ``b`` the locator before the last length change
    times x^(steps since), ``b_log`` that change's discrepancy as a log.  The
    Chien search then evaluates the locator at the n in-range positions
    only, so its roots are the flip mask.  A row is decodable when the LFSR
    length L is at most t, L roots lie in range, and no locator coefficient
    lies above degree t.
    """
    t, order = code.t, code.field.order
    log, alog = code._log, code._alog
    # locator degree d at position p is evaluated at alpha^(-d*(n-1-p))
    chien = (-np.arange(1, t + 1)[:, None] * np.arange(code.n - 1, -1, -1)) % order
    rows, two_t = len(synd), 2 * t
    full = np.zeros((rows, two_t), dtype=np.intp)
    full[:, ::2] = synd
    for j in range(2, two_t + 1, 2):  # S_j = S_(j/2)^2, by doubling its log
        full[:, j - 1] = alog[2 * log[full[:, j // 2 - 1]]]
    synd = full
    # syndrome logs reversed, then 2t zero logs: step r reads the logs of
    # synd[:, r - j] for j = 1..2t (zero where r - j < 0) as one slice
    s_rev = np.full((rows, 2 * two_t), log[0])
    s_rev[:, :two_t] = log[synd[:, ::-1]]
    c = np.zeros((rows, two_t + 1), dtype=np.intp)
    c[:, 0] = 1
    b = np.zeros_like(c)
    b[:, 1] = 1
    b_log = np.zeros(rows, dtype=np.intp)
    length = np.zeros(rows, dtype=np.intp)
    for r in range(0, two_t, 2):
        terms = alog[log[c[:, 1:]] + s_rev[:, two_t - r : 2 * two_t - r]]
        d = synd[:, r] ^ np.bitwise_xor.reduce(terms, axis=1)
        d_log = log[d]
        grow = (d != 0) & (2 * length <= r)
        # c - (d / d_b) b; the log of a zero d zeroes every product
        update = alog[(d_log - b_log + order)[:, None] + log[b]]
        b[:, 2:] = np.where(grow[:, None], c, b)[:, :-2]
        b[:, :2] = 0
        c ^= update
        b_log = np.where(grow, d_log, b_log)
        length = np.where(grow, r + 1 - length, length)
    values = np.bitwise_xor.reduce(alog[log[c[:, 1 : t + 1, None]] + chien], axis=1)
    roots = values == 1  # the locator, 1 + sum of these terms, vanishes
    ok = (length <= t) & (roots.sum(axis=1) == length) & ~c[:, t + 1 :].any(axis=1)
    return roots & ok[:, None], ok


def component_step(comp: BchCode, words, weight=None, llr=None, genie=None) -> np.ndarray:
    """The next binary message for each row of ``words``.

    The genie's verdict when ``genie`` (the transmitted rows) is given, else
    the BDD verdict weighed against ``llr`` by ``combine_decision`` when a
    ``weight`` is given, else the BDD word itself.
    """
    if genie is not None:
        return ideal_decode_dense(comp, words, genie)[1]
    ternary, decoded, _ = bdd_decode_matrix(comp, words)
    if weight is None:
        return decoded
    return combine_decision(ternary, weight, llr)


# ---------------------------------------------------------------------------
# per-frame product decoding: the loop the batched decoders replaced


def _frame_iterate(code, psi, iters, observer=None, weights=None, llr=None, genie=None):
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


def frame_ibdd_sr(code, llr, schedule, sr_iters=10, plain_iters=2, observer=None):
    """One (n, n) frame through ``product.ibdd_sr_decode``'s per-frame loop."""
    llr = np.asarray(llr, dtype=float)
    psi = _frame_iterate(
        code, harden(llr), sr_iters, observer,
        weights=(schedule.w_row, schedule.w_col), llr=llr,
    )
    return _frame_iterate(code, psi, plain_iters, observer)


def frame_ibdd(code, r, iters=12, observer=None):
    """One (n, n) frame through ``product.ibdd_decode``'s per-frame loop."""
    return _frame_iterate(code, np.array(r, dtype=np.uint8, copy=True), iters, observer)


def frame_ideal(code, r, transmitted, iters=12):
    """One (n, n) frame through ``product.ideal_ibdd_decode``'s per-frame loop."""
    tx = np.asarray(transmitted, dtype=np.uint8)
    genie = (tx, np.ascontiguousarray(tx.T))
    return _frame_iterate(code, np.array(r, dtype=np.uint8, copy=True), iters, genie=genie)


# ---------------------------------------------------------------------------
# the (f, i, j) round loop that the flat-index kernel replaced


def line_flips(comp, words, synd, act, weight=None, llr=None, hard=None, genie=None):
    """The verdict rule on lines ``words[f, i]`` of items ``act`` (ascending),
    whose odd syndromes are ``synd[f, i]`` (``word_syndromes``' layout): the
    (f, i, j) of every bit it flips, each once, by ``product.line_flips``'s
    rule."""
    f, i = np.nonzero(synd[act].any(axis=2))
    f, j = act[f], i
    failed = f, i
    if len(f):
        row, j, ok = (_locate_errors(comp, pack_syndromes(comp, synd[f, i])) if genie is None
                      else ideal_decode_matrix(comp, words[f, i], genie[f, i]))
        failed = f[~ok], i[~ok]
        f, i = f[row], i[row]
    if llr is None:  # ibdd or the genie: the verdict is the message
        return f, i, j
    keep = weight > np.abs(llr[f, i, j])
    differ = words != hard if len(act) == len(words) else words[act] != hard[act]
    df, di, dj = np.unravel_index(np.flatnonzero(differ), differ.shape)
    df = act[df]
    line_failed = np.zeros(synd.shape[:2], dtype=bool)
    line_failed[failed] = True
    flip = line_failed[df, di] | ~(weight > np.abs(llr[df, di, dj]))
    return tuple(np.concatenate([a[keep], b[flip]]) for a, b in ((f, df), (i, di), (j, dj)))


def iterate(comp, words, synd, copies, iters, lo, hi, weights=None, llr=None, hard=None,
            genie=None):
    """``product.iterate`` on item-major (S, G, R, n) words and (S, G, R, t)
    odd syndromes: each (line, position) index pair that ``copies(lo, g, s,
    r, c)`` lists for the flipped bits (s, g, r, c) is flipped, and the
    position's odd syndromes XORed into the line's.  The first
    ``len(weights[0])`` rounds are scaled, the rest weight-free, and every
    round runs until all items are codewords: no fixed-point exit."""
    position = syndrome_powers(comp)[::2].T
    scaled = 0 if weights is None else len(weights[0])  # then weight-free rounds
    act = np.arange(len(words))
    for ell in range(iters):
        act = act[synd[act, lo:hi].any(axis=(1, 2, 3))]
        if not len(act):
            return
        for g in range(lo, hi):
            weigh = (weights[g - lo][ell], llr[g], hard[g]) if ell < scaled else (None,) * 3
            s, r, c = line_flips(comp, words[:, g], synd[:, g], act, *weigh,
                                 None if genie is None else genie[g])
            for line, pos in copies(lo, g, s, r, c):
                words[(*line, pos)] ^= 1
                np.bitwise_xor.at(synd, line, position[pos])


def transposed(lo, g, s, r, c):
    """Bit (g, r, c) of a product frame is also bit (1 - g, c, r)."""
    return ((s, g, r), c), ((s, 1 - g, c), r)


def staircase_copies(half, n_blocks):
    """The staircase's ``copies`` for ``iterate``, over pairs 0..n_blocks-1 of
    rows of 2 * ``half`` bits."""

    def copies(lo, p, s, r, c):
        """Bit c of row r of pair p is also in pair p-1 (if c < h) or p+1 (none
        for block N); pair lo's left half, the frozen emitted block, is kept."""
        if p == lo:
            keep = c >= half
            s, r, c = s[keep], r[keep], c[keep]
        left = c < half
        q = np.where(left, p - 1, p + 1)
        keep = q < n_blocks
        line = (np.concatenate([s, s[keep]]),
                np.concatenate([np.full(len(s), p), q[keep]]),
                np.concatenate([r, np.where(left, c, c - half)[keep]]))
        return [(line, np.concatenate([c, np.where(left, r + half, r)[keep]]))]

    return copies


def kernel_spy(monkeypatch, scheme):
    """Run every ``product.iterate`` call of ``scheme`` ("product" or
    "staircase") beside the (f, i, j) oracle loop above.

    On every group call, the package's flips, mapped by the scheme's
    ``copies`` to flat indices into the group-major words, must equal as a
    set the oracle kernel's flips on the same state, mapped by the oracle
    ``copies``.  After each call, the oracle loop run from the call's input,
    with the call's syndrome words unpacked, must leave the same words and
    syndromes.  Returns a list that gains one ``(g, lo, n_groups, partial,
    oracle_c)`` per group call, ``partial`` telling whether only some items
    were active, ``oracle_c`` the oracle's flipped positions.
    """
    real_iterate, real_rule = product.iterate, product.line_flips
    calls, last = [], {}

    def rule(*args):
        last["args"] = args
        return real_rule(*args)

    def spy(comp, words, synd, copies, iters, lo, hi, weights=None, llr=None, hard=None,
            genie=None, observer=None):
        n_groups, n_items, rows, n = words.shape
        old_words = words.swapaxes(0, 1).copy()
        old_synd = unpack_syndromes(comp, synd.swapaxes(0, 1))
        old_copies = transposed if scheme == "product" else staircase_copies(rows, n_groups)

        def checked(lo, g, x):
            got = copies(lo, g, x)
            comp, block, block_synd, act, *rest = last["args"]
            s, r, c = line_flips(comp, block, unpack_syndromes(comp, block_synd), act, *rest)
            want = [((line[1] * n_items + line[0]) * rows + line[2]) * n + pos
                    for line, pos in old_copies(lo, g, s, r, c)]
            np.testing.assert_array_equal(np.sort(got), np.sort(np.concatenate(want)))
            calls.append((g, lo, n_groups, len(act) < n_items, c))
            return got

        real_iterate(comp, words, synd, checked, iters, lo, hi, weights, llr, hard, genie,
                     observer)
        iterate(comp, old_words, old_synd, old_copies, iters, lo, hi, weights, llr, hard, genie)
        np.testing.assert_array_equal(words.swapaxes(0, 1), old_words)
        np.testing.assert_array_equal(synd.swapaxes(0, 1), pack_syndromes(comp, old_synd))

    monkeypatch.setattr(product, "line_flips", rule)
    monkeypatch.setattr(product, "iterate", spy)
    monkeypatch.setattr(staircase, "iterate", spy)
    return calls


# ---------------------------------------------------------------------------
# per-stream staircase window decoding: the loop the stacked decoder replaced


def _pair(blocks, i):
    """The component words [B_i^T, B_{i+1}] joining blocks i and i+1, as rows."""
    return np.ascontiguousarray(np.concatenate([blocks[i].T, blocks[i + 1]], axis=1))


def window_decode(
    code: StaircaseCode,
    llr_blocks,
    cfg: WindowConfig,
    mode: str = "ibdd_sr",
    transmitted=None,
) -> list[np.ndarray]:
    """Sliding-window decode; returns the emitted hard-decision blocks.

    ``llr_blocks`` are the channel LLRs of blocks 1..N (block 0 is the known
    all-zero terminator).  Modes: "ibdd" (plain), "ibdd_sr" (scaled
    reliability, requires ``cfg.schedule``), "ideal" (genie-aided; requires
    the ``transmitted`` blocks).  Emitted blocks are final -- later windows
    treat them as frozen hard values and never write them back.
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
            if all(np.all(comp.syndromes(_pair(hard, i)) == 0) for i in pairs):
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
    return emitted


def tie_grid_llrs(llr, rng, special=0.05) -> np.ndarray:
    """Channel LLRs rounded to the 0.5 grid, with a ``special`` share each of
    +0.0, -0.0, +inf and -inf: with combining weights on the same grid, the
    tie w == |llr|, a zero LLR and a certain channel bit all occur often."""
    llr = np.round(np.asarray(llr, dtype=float) * 2) / 2
    pick = rng.random(llr.shape)
    for q, value in enumerate((0.0, -0.0, np.inf, -np.inf)):
        llr[(pick >= q * special) & (pick < (q + 1) * special)] = value
    return llr


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


def q_function_scipy(x):
    """Gaussian tail probability Q(x) = P(N(0,1) > x)."""
    return 0.5 * erfc(np.asarray(x, dtype=np.float64) / math.sqrt(2.0))


class TransitionKernelsScipy(TransitionKernels):
    """``de.TransitionKernels`` with its binomial weights from scipy's
    ``gammaln``, ``xlogy`` and ``xlog1py``."""

    def __init__(self, profile, params):
        super().__init__(profile, params)
        self._logbin = gammaln(profile.n) - gammaln(self._i + 1) - gammaln(self._rest + 1)

    def eval(self, x) -> np.ndarray:
        """The transition functions (f_e, f_c, f_qe, f_pc) at message error
        rate(s) x in [0, 1], stacked on the first axis.

        A scalar x gives four scalars, an array of rates four arrays of the
        same shape; the Binomial(n-1, x) weights are exact at x = 0 and 1.
        """
        x = np.asarray(x, dtype=np.float64)[..., None]
        pmf = np.exp(self._logbin + xlogy(self._i, x) + xlog1py(self._rest, -x))
        values = pmf @ self._kernels  # one column per transition function
        return values.transpose(-1, *range(values.ndim - 1))


def weights(fc, fe, cap: float):
    """Reliability weight log(f_c / f_e) clamped to [0, cap], elementwise.

    Saturates at the cap where the error transition vanishes and drops to
    zero where the correct transition does.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        w = np.minimum(np.maximum(np.log(fc) - np.log(fe), 0.0), cap)
    return np.where(fc > 0.0, w, 0.0)


class TransitionKernelsArrays(TransitionKernels):
    """``de.TransitionKernels`` with the array-only half-step: log-binomials
    through ``np.vectorize(math.lgamma)``, one ``eval`` path for every shape
    that exponentiates every pmf term, and a ``step`` that takes the weight
    from ``weights`` and the bit-node update from numpy arithmetic on
    ``q_function``."""

    def __init__(self, profile, params):
        super().__init__(profile, params)
        lgamma = np.vectorize(math.lgamma, otypes=[np.float64])
        self._logbin = lgamma(profile.n) - lgamma(self._i + 1) - lgamma(self._rest + 1)

    def eval(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)[..., None]
        with np.errstate(divide="ignore"):
            logx, log1mx = np.maximum(np.log(x), _LOG0), np.maximum(np.log1p(-x), _LOG0)
        pmf = np.exp(self._logbin + self._i * logx + self._rest * log1mx)
        values = pmf @ self._kernels  # one column per transition function
        return values.transpose(-1, *range(values.ndim - 1))

    def step(self, x):
        fe, fc, fqe, fpc = self.eval(x)
        w = weights(fc, fe, DEFAULT_WEIGHT_CAP)
        p_ch, sigma = self._p_ch, self._sigma
        qm = q_function(1.0 / sigma - sigma * w / 2.0)
        qp = q_function(1.0 / sigma + sigma * w / 2.0)
        return w, fqe * (qm - p_ch) + fpc * qp + (1.0 - fpc) * p_ch


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


def threshold_scan(ensemble: str, profile, rate: float, *, tol_db: float = 0.01,
                   window: int | None = None) -> float:
    """Threshold by scanning Eb/N0 from 0.5 dB in 0.5-dB steps for the first
    step from failure to success, then bisecting that step."""
    window = window if ensemble == "sc" else None

    def success(ebn0: float) -> bool:
        return threshold_run(profile, ebn0, rate, window).converged

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

    while hi - lo > tol_db:
        mid = 0.5 * (lo + hi)
        if success(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def bootstrap_ber_ci_oneshot(counts, bits_per_frame: int, seed: int):
    """The BER bootstrap drawing its whole (N_BOOT, n) index matrix at once."""
    counts = np.asarray(counts, dtype=np.int64)
    n = len(counts)
    rng = np.random.default_rng([seed, 0xB0075])
    idx = rng.integers(0, n, size=(N_BOOT, n))
    bers = counts[idx].sum(axis=1) / (n * bits_per_frame)
    lo, hi = np.percentile(bers, [2.5, 97.5])
    return (float(lo), float(hi))


def paired_gap_bootstrap_oneshot(a, b, bits_per_frame: int, seed: int):
    """The paired BER-gap bootstrap drawing its whole index matrix at once."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    n = len(a)
    rng = np.random.default_rng([seed, 0xD1FF])
    idx = rng.integers(0, n, size=(N_BOOT, n))
    gaps = (a[idx].sum(axis=1) - b[idx].sum(axis=1)) / (n * bits_per_frame)
    lo, hi = np.percentile(gaps, [2.5, 97.5])
    return (float(lo), float(hi))


# ---------------------------------------------------------------------------
# Monte-Carlo frame generation


def transmit_normal(bits, params, rng) -> np.ndarray:
    """BI-AWGN LLRs 2y/sigma^2 with y = (1 - 2b) + N(0, sigma^2), drawn by
    ``rng.normal`` and computed out of place."""
    bits = np.asarray(bits, dtype=np.uint8)
    symbols = 1.0 - 2.0 * bits.astype(np.float64)
    y = symbols + rng.normal(0.0, params.sigma, size=bits.shape)
    return 2.0 * y / params.sigma2


def frame_stack_per_frame(cfg, ebn0_db: float, indices) -> tuple:
    """Transmitted bits and LLRs (frames, units, h, w) of a simulation's
    frames ``indices``, one generator per frame: frame i builds
    ``default_rng([cfg.seed, i])``, draws its information bits (random_info
    only) and then one noise array per transmitted unit."""
    component = cfg.component.build()
    if cfg.scheme == "pc":
        code = ProductCode(component)

        def units(rng):
            if cfg.random_info:
                return [pc_encode(code, rng.integers(0, 2, (code.k, code.k), dtype=np.uint8))]
            return [np.zeros((code.n, code.n), dtype=np.uint8)]
    else:
        code = StaircaseCode(component)
        half = code.block_size

        def units(rng):
            if cfg.random_info:
                infos = [rng.integers(0, 2, (half, code.info_cols), dtype=np.uint8)
                         for _ in range(cfg.blocks_per_stream)]
                return encode_stream(code, infos)[1:]
            return [np.zeros((half, half), dtype=np.uint8)] * cfg.blocks_per_stream

    params = make_params(ebn0_db, code.rate)
    tx, llr = [], []
    for index in indices:
        rng = np.random.default_rng([cfg.seed, index])
        frame = units(rng)
        tx.append(frame)
        llr.append([transmit_normal(unit, params, rng) for unit in frame])
    return np.array(tx), np.array(llr)


def run_point_stepwise(cfg, ebn0_db: float, modes=None) -> dict:
    """Per-unit bit-error counts {mode: (units,)} of ``sim.run_point``'s
    frames, found batch by batch: the stop rule is checked after every plan
    batch, and each batch is split into its own decode calls, in one process
    whatever ``cfg.workers``.  Modes whose weights are unavailable are
    left out."""
    engine = _build_engine(cfg, ebn0_db, tuple(modes or cfg.modes))
    counts = {m: [] for m in engine.modes}
    events = dict.fromkeys(engine.modes, 0)
    units_done = next_index = 0
    plan = _batch_plan(engine.units_per_frame)
    while counts:
        if units_done >= cfg.max_frames or all(
            events[m] >= cfg.min_error_events for m in counts
        ):
            break
        frames_left = math.ceil((cfg.max_frames - units_done) / engine.units_per_frame)
        n_frames = min(next(plan), frames_left)
        stop = next_index + n_frames
        size = min(engine.frames_per_call, math.ceil(n_frames / cfg.workers))
        for lo in range(next_index, stop, size):
            fr = engine.run_frames(range(lo, min(lo + size, stop)))
            for m in counts:
                counts[m].append(fr[m].ravel())
                events[m] += int(np.count_nonzero(fr[m]))
        next_index = stop
        units_done += n_frames * engine.units_per_frame
    return {m: np.concatenate(c) for m, c in counts.items()}
