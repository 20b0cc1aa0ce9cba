"""Binary BCH component codes over GF(2^m) with bounded-distance decoding.

Narrow-sense primitive BCH codes of length 2^m - 1, optionally shortened by
removing leading information positions.  Decoding is syndrome-based
(Berlekamp-Massey plus Chien search) and has exactly three outcomes: the
decoder returns the unique codeword within Hamming distance t of the input
when one exists (which may be a miscorrection), and reports a failure
otherwise.  The decoders work row-wise on bit matrices so the iterative
array decoders can stay vectorised.
"""

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
    """Raised when a field table cannot be built from the given polynomial."""


class CodeConstructionError(ValueError):
    """Raised when the requested code parameters are inconsistent."""


class GaloisField:
    """GF(2^m) arithmetic backed by log/antilog tables.

    Elements are ints in [0, 2^m).  ``antilog_table[i]`` holds alpha^i for
    i in [0, 2^m - 1) and ``log_table[x]`` inverts that map (log of zero is
    the sentinel -1).
    """

    def __init__(self, m: int, primitive_poly: int | None = None):
        if not 2 <= m <= 16:
            raise FieldConstructionError(f"field degree must be in [2, 16], got {m}")
        if primitive_poly is None:
            primitive_poly = DEFAULT_PRIMITIVE_POLY[m]
        if primitive_poly.bit_length() != m + 1:
            raise FieldConstructionError(
                f"polynomial 0x{primitive_poly:x} does not have degree {m}"
            )
        if primitive_poly & 1 == 0:
            raise FieldConstructionError("polynomial must have a nonzero constant term")

        self.m = m
        self.order = (1 << m) - 1  # size of the multiplicative group
        self.primitive_poly = primitive_poly

        log = np.full(1 << m, -1, dtype=np.int32)
        antilog = np.zeros(self.order, dtype=np.int32)
        x = 1
        for i in range(self.order):
            if log[x] != -1:
                # the powers of alpha repeated early: not a primitive polynomial
                raise FieldConstructionError(
                    f"0x{primitive_poly:x} is not primitive over GF(2^{m})"
                )
            antilog[i] = x
            log[x] = i
            x <<= 1
            if x & (1 << m):
                x ^= primitive_poly
        if x != 1:
            raise FieldConstructionError(
                f"0x{primitive_poly:x} is not primitive over GF(2^{m})"
            )
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
        self._exact_enum: np.ndarray | None = None

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
        # syndrome powers: position p carries exponent n-1-p, syndrome j uses alpha^(j*(n-1-p))
        exps = np.arange(n - 1, -1, -1, dtype=np.int64)
        synd = np.empty((2 * t, n), dtype=np.int32)
        for j in range(1, 2 * t + 1):
            synd[j - 1] = alog[((j * exps) % order).astype(np.int64)]
        self._synd_pow = synd
        # Chien exponents: value exponent of alpha^(-e*d) for locator degree d
        e = np.arange(order, dtype=np.int64)
        chien = np.empty((t, order), dtype=np.int64)
        for d in range(1, t + 1):
            chien[d - 1] = (-(e * d)) % order
        self._chien_exp = chien

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
        flat = np.atleast_2d(words)
        contrib = np.where(flat[:, None, :].astype(bool), self._synd_pow[None, :, :], 0)
        synd = np.bitwise_xor.reduce(contrib, axis=2)
        if words.ndim == 1:
            return synd[0]
        return synd

    def is_codeword(self, words: np.ndarray) -> np.ndarray | bool:
        synd = self.syndromes(words)
        ok = ~np.any(synd != 0, axis=-1)
        return ok

    def __repr__(self):
        return (
            f"BchCode(n={self.n}, k={self.k}, t={self.t}, m={self.field.m}, "
            f"shorten={self.shorten})"
        )


def build_bch(m: int, t: int, shorten: int = 0) -> BchCode:
    return BchCode(GaloisField(m), t, shorten)


# ---------------------------------------------------------------------------
# bounded-distance decoding


def _berlekamp_massey(field: GaloisField, synd: list[int]) -> tuple[list[int], int]:
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


def _error_positions(code: BchCode, synd_row: np.ndarray) -> np.ndarray | None:
    """Locate errors for a nonzero syndrome, or None when out of decoding range."""
    field = code.field
    locator, lfsr_len = _berlekamp_massey(field, [int(s) for s in synd_row])
    if lfsr_len > code.t:
        return None
    log = field.log_table
    alog = field.antilog_table
    order = field.order
    # evaluate the locator at alpha^(-e) for every field exponent e
    acc = np.ones(order, dtype=np.int32)
    for d in range(1, len(locator)):
        cd = locator[d]
        if cd == 0:
            continue
        if d > code.t:
            return None
        acc ^= alog[(int(log[cd]) + code._chien_exp[d - 1]) % order]
    roots = np.flatnonzero(acc == 0)
    # every root must be distinct (guaranteed by exponent enumeration), account
    # for the full LFSR length, and land inside the shortened word
    if len(roots) != lfsr_len:
        return None
    positions = code.n - 1 - roots
    if np.any(positions < 0):
        return None
    return positions


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
    dirty = np.any(synd != 0, axis=1)
    decoded = words.copy()
    ok = np.ones(len(words), dtype=bool)
    for r in np.flatnonzero(dirty):
        pos = _error_positions(code, synd[r])
        if pos is None:
            ok[r] = False
        else:
            decoded[r, pos] ^= 1
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
    if code._exact_enum is not None:
        return code._exact_enum.copy()
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
    code._exact_enum = counts
    return counts.copy()


def weight_enumerator_approx(code: BchCode) -> np.ndarray:
    """Binomial-with-rate-penalty model of a BCH weight distribution, as logs.

    log A_h for A_h = 2^(-m*t) * C(n, h) on 2t+1 <= h <= n-2t-1, A_0 = A_n = 1,
    and -inf elsewhere (the true spectrum vanishes below the design distance).
    """
    from scipy.special import gammaln

    n, t, m = code.n, code.t, code.field.m
    h = np.arange(n + 1, dtype=np.float64)
    logc = gammaln(n + 1) - gammaln(h + 1) - gammaln(n - h + 1)
    out = np.full(n + 1, -np.inf)
    lo, hi = 2 * t + 1, n - 2 * t - 1
    if lo <= hi:
        sel = slice(lo, hi + 1)
        out[sel] = -m * t * np.log(2.0) + logc[sel]
    out[0] = 0.0
    out[n] = 0.0
    return out
