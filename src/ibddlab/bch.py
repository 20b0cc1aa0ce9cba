"""Binary BCH component codes over GF(2^m) with bounded-distance decoding.

Narrow-sense primitive BCH codes of length 2^m - 1, optionally shortened by
removing leading information positions.  The generator polynomial is built
from the field's log/antilog tables as the product of (x + alpha^j) over the
cyclotomic cosets of 1, 3, .., 2t-1 (``generator_poly``), and the systematic
encoder's parity rows are its remainders x^i mod g.  Decoding is
syndrome-based, and a word's syndromes are kept as its t odd ones, S_1,
S_3, .., S_2t-1, since a binary word has S_2i = S_i^2, packed into one int64
syndrome word with S_2i+1 in bits m*i .. m*i+m-1 (so m*t <= 63).  The word
is linear over GF(2) in the bits: it comes from one matrix product with the
bits of ``BchCode.position_keys``, the words of single-bit errors, and a
flip XORs in its position's key.  Each code has one error locator: t <= 3
solves it in closed form (Peterson; at t = 1, or D = S_1^3 + S_3 = 0, a row
holds one error or none) with roots from 2^m-entry cubic tables (Okano &
Imai, IEEE T-C 1987), and t >= 4 runs Berlekamp-Massey and a Chien search.
Codes with m*t <= ``TABLE_MAX_BITS`` cache its answer for every syndrome
word in a 2^(m*t)-row table that the word indexes.  Decoding has exactly three outcomes:
the decoder returns the unique codeword within Hamming distance t of the
input when one exists (which may be a miscorrection), and reports a
failure otherwise.  The kernel ``_locate_errors`` takes the syndrome words
of many rows and returns only the (row, position) pairs of the bits to
flip, none for a zero word, so its cost follows the rows and their errors;
``bdd_decode_matrix`` builds dense words from them, and the genie
``ideal_decode_matrix`` finds such pairs by comparing whole rows.
"""

import math
import operator
from fractions import Fraction

import numpy as np

# Primitive polynomials by field degree, stored as bit masks (bit i = coefficient
# of x^i).  Each is a standard minimum-weight primitive polynomial.
DEFAULT_PRIMITIVE_POLY = {
    2: 0b111,
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1000011,
    7: 0b10001001,
    8: 0b100011101,
    9: 0b1000010001,
    10: 0b10000001001,
    11: 0b100000000101,
    12: 0b1000001010011,
    13: 0b10000000011011,
    14: 0b100010001000011,
    15: 0b1000000000000011,
    16: 0b10001000000001011,
}


class GaloisField:
    """GF(2^m) arithmetic backed by log/antilog tables.

    Elements are ints in [0, 2^m).  ``antilog_table[i]`` holds alpha^i for
    i in [0, 2^m - 1) and ``log_table[x]`` inverts that map (log of zero is
    the sentinel -1).  The field is generated by ``DEFAULT_PRIMITIVE_POLY[m]``.
    """

    def __init__(self, m: int):
        m = _integer(m, "field degree m")
        if not 2 <= m <= 16:
            raise ValueError(f"field degree must be in [2, 16], got {m}")
        self.m = m
        self.order = (1 << m) - 1  # size of the multiplicative group
        self.primitive_poly = DEFAULT_PRIMITIVE_POLY[m]

        log = np.full(1 << m, -1, dtype=np.int32)
        antilog = np.zeros(self.order, dtype=np.int32)
        x = 1
        for i in range(self.order):
            antilog[i] = x
            log[x] = i
            x <<= 1
            if x & (1 << m):
                x ^= self.primitive_poly
        self.log_table = log
        self.antilog_table = antilog

    def __repr__(self):
        return f"GaloisField(m={self.m}, primitive_poly=0x{self.primitive_poly:x})"


# ---------------------------------------------------------------------------
# the generator polynomial, as an int bit mask (bit i = coefficient of x^i)


def generator_poly(field: GaloisField, t: int) -> int:
    """Generator polynomial of the t-error-correcting narrow-sense BCH code
    over ``field``, as a bit mask: the product of (x + alpha^j) over the
    union of the cyclotomic cosets {i 2^s mod (2^m - 1)} of i = 1, 3, ..,
    2t-1.  Each coset holds the roots of one minimal polynomial, and the
    union is closed under squaring, so every coefficient lies in GF(2).
    """
    log, alog, order = field.log_table, field.antilog_table, field.order
    odd = np.arange(1, 2 * t, 2, dtype=np.int64)
    roots = np.unique((odd[:, None] << np.arange(field.m)) % order)
    coef = np.zeros(len(roots) + 1, dtype=np.int32)  # coef[i]: coefficient of x^i
    coef[0] = 1
    for j in roots:  # multiply by (x + alpha^j)
        times_root = np.where(coef != 0, alog[(log[coef] + j) % order], 0)
        times_root[1:] ^= coef[:-1]
        coef = times_root
    return sum(1 << int(i) for i in np.flatnonzero(coef))


# ---------------------------------------------------------------------------
# code construction


# Codes with m*t up to this many packed odd-syndrome bits decode by syndrome
# table: at 18 bits no table exceeds 1.25 MB, and the largest, (511,493,2),
# (63,45,3) and (15,1,4), take 60-110 ms to fill on a 2-core VM, while the
# paper's (255,231,3), at 24 bits, would need 112 MB.
TABLE_MAX_BITS = 18
SYNDROME_CHUNK_BITS = 1 << 16  # bits that BchCode.syndromes casts to float64 at once


class BchCode:
    """A (possibly shortened) narrow-sense primitive BCH code.

    ``n``/``k`` are the effective (shortened) parameters; the parent code has
    length 2^m - 1.  Codewords are laid out as [information | parity].
    """

    def __init__(self, field: GaloisField, t: int, shorten: int = 0):
        t = _integer(t, "t")
        shorten = _integer(shorten, "shorten")
        if t < 1:
            raise ValueError(f"t must be >= 1, got {t}")
        if field.m * t > 63:  # before any table: the syndrome word is one int64
            raise ValueError(f"m*t = {field.m * t} syndrome bits exceed an int64's 63")
        self.field = field
        self.t = t
        self.n_parent = field.order

        self.generator_poly = generator_poly(field, t)
        k_parent = self.n_parent - (self.generator_poly.bit_length() - 1)
        if k_parent <= 0:
            raise ValueError(f"t={t} leaves no information positions at length {self.n_parent}")
        if not 0 <= shorten < k_parent:
            raise ValueError(f"shorten must be in [0, {k_parent}), got {shorten}")
        self.shorten = shorten
        self.n = self.n_parent - shorten
        self.k = k_parent - shorten

        self._build_encoder()
        self._build_decoder_tables()

    # -- construction helpers ------------------------------------------------

    def _build_encoder(self):
        n, k, g = self.n, self.k, self.generator_poly
        nk = n - k
        # systematic parity rows: info position i sits at exponent n-1-i, so its
        # parity contribution is x^(n-1-i) mod g, whose coefficient of x^(nk-1-q)
        # is parity column q.  g has degree nk: x^nk mod g is g - x^nk, and each
        # further power shifts the last one up and reduces it by g at degree nk
        rows = [g ^ (1 << nk)]
        for _ in range(k - 1):
            rows.append((rows[-1] << 1) ^ (g if rows[-1] >> (nk - 1) else 0))
        width = (nk + 7) // 8
        packed = b"".join(r.to_bytes(width, "big") for r in reversed(rows))
        bits = np.unpackbits(np.frombuffer(packed, dtype=np.uint8).reshape(k, width), axis=1)
        self._parity = np.ascontiguousarray(bits[:, 8 * width - nk :])

    def _build_decoder_tables(self):
        n, t, m = self.n, self.t, self.field.m
        order = self.field.order
        alog = self.field.antilog_table
        # position p carries exponent n-1-p: syndrome j sums alpha^(j*(n-1-p)),
        # and the Chien search evaluates locator degree d at alpha^(-d*(n-1-p))
        exps = np.arange(n - 1, -1, -1, dtype=np.int64)
        # entry p: the syndrome word of a single error at position p, which a
        # flip of bit p XORs into its word's
        odd = alog[exps[:, None] * np.arange(1, 2 * t, 2) % order]
        self.position_keys = odd.astype(np.int64) @ (1 << m * np.arange(t))
        # column b: bit b of each key.  float64 counts are exact and take the BLAS
        # path; ``syndromes`` casts SYNDROME_CHUNK_BITS bits at a time (512 KB)
        self._synd_bits = (self.position_keys[:, None] >> np.arange(m * t) & 1).astype(np.float64)
        self._bit_values = 1 << np.arange(m * t, dtype=np.int64)
        # Zero-safe tables for the array decoder: the log of 0 is a sentinel
        # whose sum with any log indexes a 0 in the antilog table, so products
        # need no zero masks.  Genuine logs, one of them offset by up to one
        # ``order``, sum to less than the sentinel.  ``_log[-1]`` is the
        # sentinel too, so the -1 that pads the root tables multiplies to 0.
        zero_log = 3 * order
        self._log = np.append(self.field.log_table, zero_log).astype(np.intp)
        self._log[0] = zero_log
        self._alog = np.zeros(2 * zero_log + order + 1, dtype=np.intp)
        self._alog[:zero_log] = np.resize(alog, zero_log)
        self._square = _field_power(self.field, 2)
        if t > 3:  # the code's one error locator, ``_solver(code, synd)``
            self._solver = _berlekamp_massey
            self._chien = (-np.arange(1, t + 1)[:, None] * exps) % order
        else:  # 2^m entries each, cheap next to any syndrome table
            self._solver = _locate_closed_form
            self._cubic_roots = _cubic_roots(self.field)
            # log sqrt(a) and log sqrt(a)^-3 for a != 0; both 0 at a = 0
            self._half_log = self._log[_field_power(self.field, (order + 1) // 2)]
            self._half_log[0] = 0
            self._cubic_key_log = -3 * self._half_log % order
        self._table = None
        if m * t <= TABLE_MAX_BITS:
            self._build_syndrome_table()

    def _build_syndrome_table(self):
        """Row ``key`` of ``_table`` lists, in increasing order, the positions
        that the code's solver flips for the syndrome word ``key``, -1 padding,
        and ``_table_ok[key]`` its verdict: the table caches the solver's
        answer for every word."""
        words = np.arange(1 << self.field.m * self.t)
        table = np.full((len(words), self.t), -1, dtype=np.min_scalar_type(-self.n))
        ok = np.empty(len(words), dtype=bool)
        step = 1 << 14  # 2^14 x 15 x 4 int64 Chien terms of (15,1,4) take 7.9 MB
        for lo in range(0, len(words), step):
            row, pos, ok[lo : lo + step] = self._solver(self, words[lo : lo + step])
            rising = np.lexsort((pos, row))
            row, pos = row[rising], pos[rising]
            table[lo + row, np.arange(len(row)) - np.searchsorted(row, row)] = pos
        self._table, self._table_ok = table, ok

    # -- public interface ----------------------------------------------------

    def encode(self, info: np.ndarray) -> np.ndarray:
        """Systematic encode: information bits verbatim, parity appended.
        ``info`` must hold only 0 and 1 (else ValueError)."""
        info = np.asarray(_binary(info, "info"), dtype=np.uint8)
        if info.shape[-1] != self.k:
            raise ValueError(f"expected {self.k} information bits, got {info.shape[-1]}")
        parity = (info.astype(np.int32) @ self._parity.astype(np.int32)) & 1
        return np.concatenate([info, parity.astype(np.uint8)], axis=-1)

    def syndromes(self, words: np.ndarray) -> np.ndarray:
        """The syndrome word of each row, (...,) int64: its odd syndromes
        S_1, S_3, .., S_2t-1, with S_2i+1 in bits m*i .. m*i+m-1, zero iff the
        row is a codeword (a binary word has S_2i = S_i^2).  ``words`` must
        hold only 0 and 1 (else ValueError).

        Its bits are one GF(2) matrix product of the row with ``_synd_bits``,
        in row chunks of ``SYNDROME_CHUNK_BITS`` bits: float64 counts are exact
        below 2^53 > n, and their low bits are the word's bits.
        """
        words = np.asarray(_binary(words, "words"), dtype=np.uint8)
        rows = words.reshape(-1, words.shape[-1])  # a row of other than n bits fails matmul
        out = np.empty(len(rows), dtype=np.int64)
        step = SYNDROME_CHUNK_BITS // self.n  # n < 2^16
        for lo in range(0, len(rows), step):
            counts = rows[lo : lo + step].astype(np.float64) @ self._synd_bits
            np.matmul(counts.astype(np.int64) & 1, self._bit_values, out=out[lo : lo + step])
        return out.reshape(words.shape[:-1])

    def __repr__(self):
        return (
            f"BchCode(n={self.n}, k={self.k}, t={self.t}, m={self.field.m}, "
            f"shorten={self.shorten})"
        )


def build_bch(m: int, t: int, shorten: int = 0) -> BchCode:
    return BchCode(GaloisField(m), t, shorten)


def _integer(value, name: str) -> int:
    """``value`` as an int, numpy integers too; ValueError naming ``name``
    for a bool or a non-integer."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return operator.index(value)


def _binary(bits, name):
    """``bits`` as an array, or ValueError unless it holds only 0 and 1, in
    one pass over unsigned bits such as the decoders' uint8 words."""
    bits = np.asarray(bits)
    ok = bits.max(initial=0) <= 1 if bits.dtype.kind in "ub" else ((bits == 0) | (bits == 1)).all()
    if not ok:
        raise ValueError(f"{name} must hold only 0 and 1")
    return bits


def _field_power(field: GaloisField, e: int) -> np.ndarray:
    """x^e for every field element x, indexed by x (e >= 1)."""
    out = field.antilog_table[e * field.log_table.astype(np.int64) % field.order]
    out[0] = 0
    return out


def _cubic_roots(field: GaloisField) -> np.ndarray:
    """Row k lists, in increasing order, the roots w of w^3 + w = k, and row
    2^m + k those of w^3 = k; -1 pads."""
    x = np.arange(field.order + 1)
    cube = _field_power(field, 3)
    keys = np.concatenate([cube ^ x, cube + len(x)])
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    rank = np.arange(len(keys)) - np.searchsorted(keys, keys)
    table = np.full((len(keys), 3), -1, dtype=np.intp)
    table[keys, rank] = order % len(x)
    return table


# ---------------------------------------------------------------------------
# bounded-distance decoding


def _locate_errors(code: BchCode, synd: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Error positions of every row at once, from the rows' syndrome words
    ``synd`` (``BchCode.syndromes``): (row, position, ok).

    ``row`` and ``position`` list the bits to flip, only in decodable rows
    and each bit once; ``ok`` holds the per-row verdict.  This is exact BDD:
    since d >= 2t+1, a syndrome word names at most one error pattern of
    weight <= t, and a word that names none is a failure.

    Each code has one solver, ``BchCode._solver``, which unpacks only the
    words it gets into field elements: ``_locate_closed_form`` for t <= 3 and
    ``_berlekamp_massey`` with a Chien search for t >= 4.  A code with
    m*t <= ``TABLE_MAX_BITS`` reads the solver's answers from its syndrome
    table (``BchCode._build_syndrome_table``), indexed by the syndrome word.
    The bound keeps each table at most 1.25 MB; the paper's (255,231,3), at
    m*t = 24, would need 112 MB.
    """
    if code._table is not None:
        found = code._table[synd]
        row, k = np.nonzero(found >= 0)
        return row, found[row, k], code._table_ok[synd]
    return code._solver(code, synd)


def _locate_closed_form(code: BchCode, synd: np.ndarray) -> tuple[np.ndarray, ...]:
    """``_locate_errors`` for t <= 3: the error locator 1 + c1 x + c2 x^2
    + c3 x^3 in closed form (Peterson 1960; Lin & Costello, ch. 6).  With
    D = S_1^3 + S_3, Newton's identities give c1 = S_1, c3 = D + S_1 c2 and
    c2 = D / S_1 (t = 2) or (S_1^2 S_3 + S_5) / D (t = 3); t = 1 takes D = 0.
    A zero divisor leaves at most one error, at S_1 if any, so the row
    decodes only if the dividend is zero too (for t = 3, S_5 = S_1^5): then c2 = c3 = 0, and a
    row with S_1 = D = 0 but S_5 != 0 fails.  Other rows decode when the
    locator has as many distinct roots in range as its degree, read from the
    cubic tables (``_cubic_roots``; Okano & Imai, "A construction method of
    high-speed decoders using ROM's for BCH and RS codes", IEEE T-C 1987).
    """
    n, order, log, alog = code.n, code.field.order, code._log, code._alog
    c1, s3, s5 = (synd >> code.field.m * i & order for i in range(3))  # S_5 = 0 at t = 2
    c1_sq = code._square[c1]
    d = alog[log[c1_sq] + log[c1]] ^ s3 if code.t > 1 else np.zeros_like(c1)
    top, bottom = (d, c1) if code.t <= 2 else (alog[log[c1_sq] + log[s3]] ^ s5, d)
    # -log % order: the log of 1 / bottom, or 0 at bottom = 0 (where top = 0 unless the row fails)
    c2 = alog[log[top] + -log[bottom] % order]
    c1_c2 = alog[log[c1] + log[c2]]
    # alpha^e, a root of the reversed locator z^3 c(1/z), is position n-1-e,
    # and a root z = 0 (one per degree below 3) has a log of at least n.
    # z = v + c1 turns it into v^3 + p v + D (c1 c2 + c3 = D), and v = sqrt(p) w
    # into w^3 + w = D / sqrt(p)^3 when p != 0, else w^3 = D
    p = c1_sq ^ c2
    w = code._cubic_roots[alog[log[d] + code._cubic_key_log[p]] + ((p == 0) << code.field.m)]
    v = alog[code._half_log[p][:, None] + log[w]]
    exps = np.where(w < 0, log[0], log[v ^ c1[:, None]])
    row, k = np.nonzero(exps < n)
    degree = np.where(d != c1_c2, 3, np.where(c2 != 0, 2, c1 != 0))
    ok = (np.bincount(row, minlength=len(synd)) == degree) & ((bottom != 0) | (top == 0))
    keep = ok[row]
    row, k = row[keep], k[keep]
    return row, n - 1 - exps[row, k], ok


def _berlekamp_massey(code: BchCode, synd: np.ndarray) -> tuple[np.ndarray, ...]:
    """``_locate_errors`` for t >= 4: the error locator c (rows, 2t+1) and
    LFSR length of every row, by Berlekamp-Massey on all rows together (Lin
    & Costello, ch. 6), over S_1..S_2t: the odd ones unpacked from the words
    ``synd``, the even ones built as S_2i = S_i^2.  That identity also makes
    the discrepancy of every odd step zero (Lin & Costello, sec. 6.2): only
    the t even steps run, each shifting ``b`` by x^2 for itself and the
    skipped step.  ``c`` is the error locator, from 1; ``b`` the locator
    before the last length change times x^(steps since), from x; ``b_log``
    that change's discrepancy as a log, from a discrepancy of 1.  A Chien
    search of the n positions follows: a row decodes when its LFSR length L
    is at most t, with L distinct roots in range and no coefficient above x^t.
    """
    t, order = code.t, code.field.order
    log, alog = code._log, code._alog
    # each odd syndrome, then the slot of S_2i
    synd = np.repeat(synd[:, None] >> code.field.m * np.arange(t) & order, 2, axis=1)
    for i in range(1, t + 1):
        synd[:, 2 * i - 1] = code._square[synd[:, i - 1]]
    rows, two_t = synd.shape
    c = np.zeros((rows, two_t + 1), dtype=np.intp)
    c[:, 0] = 1
    b = np.zeros_like(c)
    b[:, 1] = 1
    b_log = length = np.zeros(rows, dtype=np.intp)
    # syndrome logs reversed, then 2t zero logs: step r reads the logs of
    # synd[:, r - j] for j = 1..2t (zero where r - j < 0) as one slice
    s_rev = np.full((rows, 2 * two_t), log[0])
    s_rev[:, :two_t] = log[synd[:, ::-1]]
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
    values = np.bitwise_xor.reduce(alog[log[c[:, 1 : t + 1, None]] + code._chien], axis=1)
    row, pos = np.nonzero(values == 1)  # the locator, 1 + sum of these terms, vanishes
    ok = (length <= t) & (np.bincount(row, minlength=rows) == length) & ~c[:, t + 1 :].any(1)
    keep = ok[row]
    return row[keep], pos[keep], ok


def bdd_decode_matrix(
    code: BchCode, words: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-wise bounded-distance decode.

    Returns (ternary, decoded, ok): ``ternary`` holds the {+1, 0, -1} decoder
    messages (all-zero rows mark failures), ``decoded`` the updated words
    (failed rows are passed through unchanged), ``ok`` the per-row success
    flags, from one locator call on all rows.  ``words`` must hold only 0 and 1 (else ValueError).
    """
    words = np.ascontiguousarray(_binary(words, "words"), dtype=np.uint8)
    if words.ndim != 2 or words.shape[1] != code.n:
        raise ValueError(f"expected shape (rows, {code.n})")
    row, pos, ok = _locate_errors(code, code.syndromes(words))
    decoded = words.copy()
    decoded[row, pos] ^= 1
    ternary = np.where(ok[:, None], 1 - 2 * decoded.astype(np.int8), 0).astype(np.int8)
    return ternary, decoded, ok


def ideal_decode_matrix(code: BchCode, words: np.ndarray,
                        transmitted: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-wise genie decode of the rows of ``words`` (..., n), numbered through
    the stack, as the flips (row, position, ok) of ``_locate_errors``: a row within
    distance t of its transmitted row returns to it, others fail.  A codeword stays
    (it is its transmitted row or 2t+1 from it); the package never reads ``ok``."""
    row, pos = np.divmod(np.flatnonzero(np.asarray(words, dtype=np.uint8) != transmitted), code.n)
    ok = np.bincount(row, minlength=np.size(words) // code.n) <= code.t
    keep = ok[row]
    return row[keep], pos[keep], ok


# ---------------------------------------------------------------------------
# weight enumerators


# the exact enumerator serves codes up to this dimension
EXACT_MAX_K = 24


def weight_enumerator_exact(code: BchCode) -> np.ndarray:
    """Exact weight distribution, from the smaller of the code's 2^k words
    and its dual's 2^(n-k) words.

    The span of the generator matrix [I | P] or of the parity-check matrix
    [P^T | I] is enumerated as bit-packed words; the dual's distribution
    gives the code's by the MacWilliams identity (MacWilliams & Sloane,
    ch. 5), summed in Python ints.  Refuses k beyond ``EXACT_MAX_K``.
    """
    n, k = code.n, code.k
    if k > EXACT_MAX_K:
        raise ValueError(
            f"exact enumeration needs k <= {EXACT_MAX_K}, got k={k}; "
            "use weight_enumerator_approx for long codes"
        )
    eye = np.eye(min(k, n - k), dtype=np.uint8)
    if k <= n - k:
        return _span_weights(np.concatenate([eye, code._parity], axis=1))
    dual = [int(b) for b in _span_weights(np.concatenate([code._parity.T, eye], axis=1))]
    # A_j = 2^-(n-k) sum_i B_i K_j(i), K_j(i) = sum_s (-1)^s C(i, s) C(n-i, j-s)
    counts = []
    for j in range(n + 1):
        total = sum(b * sum((-1) ** s * math.comb(i, s) * math.comb(n - i, j - s)
                            for s in range(min(i, j) + 1))
                    for i, b in enumerate(dual) if b)
        counts.append(total >> (n - k))
    return np.array(counts, dtype=np.int64)


def _span_weights(gen: np.ndarray) -> np.ndarray:
    """Weight distribution of the 2^d words spanned by the d rows of ``gen``:
    two half spans of bit-packed uint64 words, XORed in chunks."""
    n = gen.shape[1]
    packed = np.packbits(gen, axis=1, bitorder="little")
    packed = np.pad(packed, ((0, 0), (0, -n // 8 % 8))).view("<u8")
    halves = []
    for rows in np.array_split(packed, 2):
        span = np.zeros((1, packed.shape[1]), dtype=np.uint64)
        for g in rows:
            span = np.concatenate([span, span ^ g])
        halves.append(span)
    low, high = halves
    counts = np.zeros(n + 1, dtype=np.int64)
    chunk = max(1, (1 << 18) // len(low))
    for lo in range(0, len(high), chunk):
        words = high[lo : lo + chunk, None] ^ low[None]
        counts += np.bincount(np.bitwise_count(words).sum(axis=-1).ravel(), minlength=n + 1)
    return counts


def weight_enumerator_approx(code: BchCode) -> list[Fraction]:
    """Binomial-with-rate-penalty model of a BCH weight distribution.

    A_h = C(n, h) / 2^(m*t) on 2t+1 <= h <= n-2t-1, A_0 = A_n = 1, and 0
    elsewhere (the true spectrum vanishes below the design distance), each as
    an exact ``Fraction``.
    """
    n, t, m = code.n, code.t, code.field.m
    out = [Fraction(math.comb(n, h), 1 << (m * t)) if 2 * t < h < n - 2 * t else Fraction(0)
           for h in range(n + 1)]
    out[0] = out[n] = Fraction(1)
    return out
