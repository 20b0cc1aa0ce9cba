"""Binary BCH component codes over GF(2^m) with bounded-distance decoding.

Narrow-sense primitive BCH codes of length 2^m - 1, optionally shortened by
removing leading information positions.  Decoding is syndrome-based
(Berlekamp-Massey plus Chien search) and has exactly three outcomes: the
decoder returns the unique codeword within Hamming distance t of the input
when one exists (which may be a miscorrection), and reports a failure
otherwise.  The decoders take a bit matrix and decode all of its rows in one
array computation, so the iterative array decoders stay vectorised.
"""

import math
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


class FieldConstructionError(ValueError):
    """Raised for a field degree outside the supported range."""


class CodeConstructionError(ValueError):
    """Raised when the requested code parameters are inconsistent."""


class GaloisField:
    """GF(2^m) arithmetic backed by log/antilog tables.

    Elements are ints in [0, 2^m).  ``antilog_table[i]`` holds alpha^i for
    i in [0, 2^m - 1) and ``log_table[x]`` inverts that map (log of zero is
    the sentinel -1).  The field is generated by ``DEFAULT_PRIMITIVE_POLY[m]``.
    """

    def __init__(self, m: int):
        if not 2 <= m <= 16:
            raise FieldConstructionError(f"field degree must be in [2, 16], got {m}")
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

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return int(self.antilog_table[(self.log_table[a] + self.log_table[b]) % self.order])

    def pow_alpha(self, e: int) -> int:
        """alpha^e for any integer exponent."""
        return int(self.antilog_table[e % self.order])

    def __repr__(self):
        return f"GaloisField(m={self.m}, primitive_poly=0x{self.primitive_poly:x})"


# ---------------------------------------------------------------------------
# polynomial helpers over GF(2), polynomials as int bit masks


def _poly_mod(p: int, g: int) -> int:
    dg = g.bit_length() - 1
    while p.bit_length() - 1 >= dg and p:
        p ^= g << (p.bit_length() - 1 - dg)
    return p


def _poly_mul(a: int, b: int) -> int:
    out = 0
    while b:
        if b & 1:
            out ^= a
        a <<= 1
        b >>= 1
    return out


def _minimal_polynomial(field: GaloisField, exponent: int) -> int:
    """Minimal polynomial over GF(2) of alpha^exponent, as a bit mask."""
    order = field.order
    coset = []
    e = exponent % order
    while e not in coset:
        coset.append(e)
        e = (2 * e) % order
    # multiply out prod_{j in coset} (x + alpha^j) with coefficients in GF(2^m)
    poly = [1]  # coefficient list, poly[i] = coeff of x^i
    for j in coset:
        root = field.pow_alpha(j)
        nxt = [0] * (len(poly) + 1)
        for i, c in enumerate(poly):
            if c == 0:
                continue
            nxt[i + 1] ^= c
            nxt[i] ^= field.mul(c, root)
        poly = nxt
    mask = 0
    for i, c in enumerate(poly):
        if c not in (0, 1):
            raise CodeConstructionError("minimal polynomial has coefficients outside GF(2)")
        if c:
            mask |= 1 << i
    return mask


# ---------------------------------------------------------------------------
# code construction


class BchCode:
    """A (possibly shortened) narrow-sense primitive BCH code.

    ``n``/``k`` are the effective (shortened) parameters; the parent code has
    length 2^m - 1.  Codewords are laid out as [information | parity].
    """

    def __init__(self, field: GaloisField, t: int, shorten: int = 0):
        if t < 1:
            raise CodeConstructionError(f"t must be >= 1, got {t}")
        self.field = field
        self.t = t
        self.n_parent = field.order

        generator = 1
        seen: set[int] = set()
        for i in range(1, 2 * t, 2):
            mp = _minimal_polynomial(field, i)
            if mp not in seen:
                seen.add(mp)
                generator = _poly_mul(generator, mp)
        self.generator_poly = generator
        deg_g = generator.bit_length() - 1
        k_parent = self.n_parent - deg_g
        if k_parent <= 0:
            raise CodeConstructionError(
                f"t={t} leaves no information positions at length {self.n_parent}"
            )
        if not 0 <= shorten < k_parent:
            raise CodeConstructionError(
                f"shorten must be in [0, {k_parent}), got {shorten}"
            )
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
        # parity contribution is x^(n-1-i) mod g
        rows = []
        cur = _poly_mod(1 << nk, g)
        for _ in range(k):
            rows.append(cur)
            cur = _poly_mod(cur << 1, g)
        parity = np.zeros((k, nk), dtype=np.uint8)
        for i in range(k):
            r = rows[k - 1 - i]
            for q in range(nk):
                parity[i, q] = (r >> (nk - 1 - q)) & 1
        self._parity = parity

    def _build_decoder_tables(self):
        n, t = self.n, self.t
        order = self.field.order
        alog = self.field.antilog_table
        # position p carries exponent n-1-p: syndrome j sums alpha^(j*(n-1-p)),
        # and the Chien search evaluates locator degree d at alpha^(-d*(n-1-p))
        exps = np.arange(n - 1, -1, -1, dtype=np.int64)
        self._synd_pow = alog[(np.arange(1, 2 * t + 1)[:, None] * exps) % order]
        self._chien = (-np.arange(1, t + 1)[:, None] * exps) % order
        # Zero-safe tables for the array decoder: the log of 0 is a sentinel
        # whose sum with any log indexes a 0 in the antilog table, so products
        # need no zero masks.  Genuine logs, one of them offset by up to one
        # ``order``, sum to less than the sentinel.
        zero_log = 3 * order
        self._log = self.field.log_table.astype(np.intp)
        self._log[0] = zero_log
        self._alog = np.zeros(2 * zero_log + order + 1, dtype=np.intp)
        self._alog[:zero_log] = np.resize(alog, zero_log)

    # -- public interface ----------------------------------------------------

    def encode(self, info: np.ndarray) -> np.ndarray:
        """Systematic encode: information bits verbatim, parity appended."""
        info = np.asarray(info, dtype=np.uint8)
        if info.shape[-1] != self.k:
            raise ValueError(f"expected {self.k} information bits, got {info.shape[-1]}")
        parity = (info.astype(np.int32) @ self._parity.astype(np.int32)) & 1
        return np.concatenate([info, parity.astype(np.uint8)], axis=-1)

    def syndromes(self, words: np.ndarray) -> np.ndarray:
        """Syndromes S_1..S_2t for each row; all zero iff the row is a codeword."""
        words = np.asarray(words, dtype=np.uint8)
        contrib = np.where(words[..., None, :] != 0, self._synd_pow, 0)
        return np.bitwise_xor.reduce(contrib, axis=-1)

    def is_codeword(self, words: np.ndarray) -> np.ndarray | bool:
        return ~self.syndromes(words).any(axis=-1)

    def __repr__(self):
        return (
            f"BchCode(n={self.n}, k={self.k}, t={self.t}, m={self.field.m}, "
            f"shorten={self.shorten})"
        )


def build_bch(m: int, t: int, shorten: int = 0) -> BchCode:
    return BchCode(GaloisField(m), t, shorten)


# ---------------------------------------------------------------------------
# bounded-distance decoding


def _locate_errors(code: BchCode, synd: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Error positions of every row of ``synd`` at once: (flip mask, ok).

    Berlekamp-Massey runs its 2t steps on all rows together (Lin & Costello,
    ch. 6).  ``c`` is the error locator, ``b`` the locator before the last
    length change times x^(steps since), ``b_log`` that change's discrepancy
    as a log.  The Chien search then evaluates the locator at the n in-range
    positions only, so its roots are the flip mask.  A row is decodable when
    the LFSR length L is at most t, L roots lie in range, and no locator
    coefficient lies above degree t.
    """
    t, order = code.t, code.field.order
    log, alog = code._log, code._alog
    rows, two_t = synd.shape
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
    for r in range(two_t):
        terms = alog[log[c[:, 1:]] + s_rev[:, two_t - r : 2 * two_t - r]]
        d = synd[:, r] ^ np.bitwise_xor.reduce(terms, axis=1)
        d_log = log[d]
        grow = (d != 0) & (2 * length <= r)
        # c - (d / d_b) b; the log of a zero d zeroes every product
        update = alog[(d_log - b_log + order)[:, None] + log[b]]
        b[:, 1:] = np.where(grow[:, None], c, b)[:, :-1]
        b[:, 0] = 0
        c ^= update
        b_log = np.where(grow, d_log, b_log)
        length = np.where(grow, r + 1 - length, length)
    values = np.bitwise_xor.reduce(alog[log[c[:, 1 : t + 1, None]] + code._chien], axis=1)
    roots = values == 1  # the locator, 1 + sum of these terms, vanishes
    ok = (length <= t) & (roots.sum(axis=1) == length) & ~c[:, t + 1 :].any(axis=1)
    return roots & ok[:, None], ok


def bdd_decode_matrix(
    code: BchCode, words: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-wise bounded-distance decode.

    Returns (ternary, decoded, ok): ``ternary`` holds the {+1, 0, -1} decoder
    messages (all-zero rows mark failures), ``decoded`` the updated words
    (failed rows are passed through unchanged), ``ok`` the per-row success
    flags.
    """
    words = np.ascontiguousarray(words, dtype=np.uint8)
    if words.ndim != 2 or words.shape[1] != code.n:
        raise ValueError(f"expected shape (rows, {code.n})")
    synd = code.syndromes(words)
    dirty = np.flatnonzero(synd.any(axis=1))
    decoded = words.copy()
    ok = np.ones(len(words), dtype=bool)
    if len(dirty):
        flips, ok[dirty] = _locate_errors(code, synd[dirty])
        decoded[dirty] ^= flips
    ternary = np.where(ok[:, None], 1 - 2 * decoded.astype(np.int8), 0).astype(np.int8)
    return ternary, decoded, ok


def ideal_decode_matrix(
    code: BchCode, words: np.ndarray, transmitted: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-wise genie decode: return the transmitted row iff within distance t."""
    words = np.asarray(words, dtype=np.uint8)
    transmitted = np.asarray(transmitted, dtype=np.uint8)
    dist = np.count_nonzero(words != transmitted, axis=1)
    ok = dist <= code.t
    decoded = np.where(ok[:, None], transmitted, words).astype(np.uint8)
    ternary = np.where(ok[:, None], 1 - 2 * transmitted.astype(np.int8), 0).astype(np.int8)
    return ternary, decoded, ok


# ---------------------------------------------------------------------------
# weight enumerators


# enumerating 2^k codewords stays affordable up to this dimension
EXACT_MAX_K = 24


def weight_enumerator_exact(code: BchCode) -> np.ndarray:
    """Exact weight distribution by enumerating all 2^k codewords.

    Refuses k beyond ``EXACT_MAX_K`` (the full enumeration is exponential in k).
    """
    if code.k > EXACT_MAX_K:
        raise ValueError(
            f"exact enumeration needs k <= {EXACT_MAX_K}, got k={code.k}; "
            "use weight_enumerator_approx for long codes"
        )
    counts = np.zeros(code.n + 1, dtype=np.int64)
    total = 1 << code.k
    chunk = 1 << 14
    bit_idx = np.arange(code.k, dtype=np.uint32)
    for lo in range(0, total, chunk):
        hi = min(lo + chunk, total)
        ints = np.arange(lo, hi, dtype=np.uint32)
        info = ((ints[:, None] >> bit_idx[None, :]) & 1).astype(np.uint8)
        words = code.encode(info)
        weights = np.count_nonzero(words, axis=1)
        counts += np.bincount(weights, minlength=code.n + 1)
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
