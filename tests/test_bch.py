"""Component-code tests: field/code construction, encoding, and the
bounded-distance decoder checked against a brute-force nearest-codeword
oracle."""

import math
import time
import tracemalloc

import numpy as np
import pytest

import oracles
from ibddlab import bch
from ibddlab.bch import (
    DEFAULT_PRIMITIVE_POLY,
    CodeConstructionError,
    FieldConstructionError,
    GaloisField,
    bdd_decode_matrix,
    build_bch,
    ideal_decode_matrix,
    weight_enumerator_approx,
    weight_enumerator_exact,
)
from ibddlab.product import ProductCode, ibdd_decode

# ---------------------------------------------------------------------------
# construction


@pytest.mark.parametrize(
    "m,t,shorten,n,k",
    [
        (4, 1, 0, 15, 11),
        (4, 2, 0, 15, 7),
        (5, 2, 1, 30, 20),
        (8, 3, 0, 255, 231),
        (8, 3, 1, 254, 230),
    ],
)
def test_code_parameters(m, t, shorten, n, k):
    code = build_bch(m, t, shorten=shorten)
    assert code.n == n
    assert code.k == k
    assert code.t == t
    assert code.n_parent == 2**m - 1


def test_known_generator_polys(code_15_11, code_15_7):
    # x^4 + x + 1 for the single-error code, degree 8 product of the
    # minimal polynomials of alpha and alpha^3 for the double-error code.
    assert code_15_11.generator_poly == 0b10011
    assert code_15_7.generator_poly == 0b111010001


def test_generator_matches_minimal_polynomial_oracle():
    """The generator from the cyclotomic cosets equals the product of the
    distinct minimal polynomials for every field degree and every t <= 8
    that leaves information positions."""
    checked = 0
    for m in sorted(DEFAULT_PRIMITIVE_POLY):
        field = GaloisField(m)
        for t in range(1, 9):
            want = oracles.generator_poly_minimal(field, t)
            if want.bit_length() - 1 >= field.order:  # k <= 0
                continue
            assert bch.generator_poly(field, t) == want, (m, t)
            checked += 1
    assert checked == 107  # every (m, t) pair with k > 0


@pytest.mark.parametrize(
    "fixture", ["code_15_11", "code_15_7", "code_30_20", "code_255_231", "code_254_230"]
)
def test_parity_matches_oracle(fixture, request):
    code = request.getfixturevalue(fixture)
    parity = oracles.parity_matrix(code)
    assert code._parity.dtype == parity.dtype and np.array_equal(code._parity, parity)


def test_bad_construction_raises():
    with pytest.raises(CodeConstructionError):
        build_bch(4, 0)
    with pytest.raises(CodeConstructionError):
        build_bch(4, 1, shorten=11)  # would leave k <= 0
    for m in (1, 17):
        with pytest.raises(FieldConstructionError):
            GaloisField(m)


def test_construction_takes_integers():
    """m, t and shorten may be numpy integers, and a bool or a non-integer
    is refused naming its parameter, never read as a number."""
    code = build_bch(np.int64(4), np.uint8(2), shorten=np.int32(1))
    assert (code.n, code.k, code.t, code.field.m) == (14, 6, 2, 4)
    assert all(type(v) is int for v in (code.n, code.k, code.t, code.field.m, code.shorten))
    for m, t, shorten, error, name in [
        (4, 1, True, CodeConstructionError, "shorten"),
        (4, 2.0, 0, CodeConstructionError, "t"),
        (4, True, 0, CodeConstructionError, "t"),
        (4.0, 1, 0, FieldConstructionError, "m"),
        (np.True_, 1, 0, FieldConstructionError, "m"),
        ("4", 1, 0, FieldConstructionError, "m"),
    ]:
        with pytest.raises(error, match=f"{name} must be an integer"):
            build_bch(m, t, shorten=shorten)


def test_syndrome_word_must_fit_int64():
    """A code whose t odd syndromes take more than 63 bits is refused before
    any table is built; (255,199,7), at 56 bits, still builds and decodes
    through the top field element of its words."""
    with pytest.raises(CodeConstructionError, match="m\\*t = 64"):
        build_bch(16, 4)
    code = build_bch(8, 7)
    assert code.position_keys.max() >> 48 and code.position_keys.max() < 1 << 56
    rng = np.random.default_rng(56)
    sent = code.encode(rng.integers(0, 2, (50, code.k), dtype=np.uint8))
    words = sent.copy()
    for row in words:
        row[rng.choice(code.n, 7, replace=False)] ^= 1
    _, decoded, ok = bdd_decode_matrix(code, words)
    assert ok.all()
    np.testing.assert_array_equal(decoded, sent)


@pytest.mark.parametrize("m", sorted(DEFAULT_PRIMITIVE_POLY))
def test_default_polynomials_are_primitive(m):
    """alpha's powers run through all 2^m - 1 nonzero elements before repeating."""
    assert sorted(GaloisField(m).antilog_table.tolist()) == list(range(1, 1 << m))


# ---------------------------------------------------------------------------
# encoding


def test_encode_systematic_and_linear(code_15_7, rng):
    k = code_15_7.k
    info = rng.integers(0, 2, size=(8, k), dtype=np.uint8)
    words = code_15_7.encode(info)
    assert words.shape == (8, code_15_7.n)
    np.testing.assert_array_equal(words[:, :k], info)
    # linearity: encode(a ^ b) == encode(a) ^ encode(b)
    a, b = info[0], info[1]
    np.testing.assert_array_equal(
        code_15_7.encode(a ^ b), code_15_7.encode(a) ^ code_15_7.encode(b)
    )
    assert np.all(code_15_7.is_codeword(words))


def test_unit_info_rows_are_codewords(code_15_11):
    eye = np.eye(code_15_11.k, dtype=np.uint8)
    words = code_15_11.encode(eye)
    assert np.all(code_15_11.is_codeword(words))
    # the all-zero word encodes to all zeros
    z = code_15_11.encode(np.zeros(code_15_11.k, dtype=np.uint8))
    assert not z.any()


def test_shortened_embeds_into_parent(code_30_20):
    parent = build_bch(5, 2)
    rng = np.random.default_rng(7)
    info = rng.integers(0, 2, size=(6, code_30_20.k), dtype=np.uint8)
    words = code_30_20.encode(info)
    embedded = np.concatenate(
        [np.zeros((6, 1), dtype=np.uint8), words], axis=1
    )
    assert np.all(parent.is_codeword(embedded))


def test_syndromes_zero_iff_codeword(code_15_7, rng):
    word = code_15_7.encode(rng.integers(0, 2, size=code_15_7.k, dtype=np.uint8))
    assert not code_15_7.syndromes(word).any()
    word[3] ^= 1
    assert code_15_7.syndromes(word).any()


# ---------------------------------------------------------------------------
# decoding vs brute-force oracle


@pytest.mark.parametrize("fixture", ["code_15_11", "code_15_7"])
def test_bdd_matches_oracle_sampled(fixture, request, rng):
    code = request.getfixturevalue(fixture)
    words = rng.integers(0, 2, size=(2000, code.n), dtype=np.uint8)
    want_dec, want_ok = oracles.brute_force_bdd(code, words)
    tern, got_dec, got_ok = bdd_decode_matrix(code, words)
    np.testing.assert_array_equal(got_ok, want_ok)
    np.testing.assert_array_equal(got_dec[want_ok], want_dec[want_ok])
    # failed rows pass through untouched
    np.testing.assert_array_equal(got_dec[~want_ok], words[~want_ok])
    # ternary map: +1 where decoded bit is 0, -1 where 1, 0 on failure
    assert set(np.unique(tern)) <= {-1, 0, 1}
    np.testing.assert_array_equal(tern[~want_ok], 0)
    np.testing.assert_array_equal(tern[want_ok], 1 - 2 * got_dec[want_ok].astype(np.int8))


# (m, t, shorten) of the codes the array kernel is checked on against the
# row-by-row oracle
KERNEL_CODES = [(4, 1, 0), (4, 2, 0), (5, 2, 1), (8, 3, 0), (8, 3, 1), (8, 4, 0), (10, 3, 0)]


@pytest.mark.parametrize("m,t,shorten", KERNEL_CODES)
def test_syndromes_are_the_odd_syndromes(m, t, shorten):
    """``syndromes`` packs S_1, S_3, .., S_2t-1 of the row oracle's powers
    into one (...,) int64 word, S_2i+1 in bits m*i .. m*i+m-1, and a flip
    XORs in its position's word of ``position_keys``."""
    code = build_bch(m, t, shorten=shorten)
    words = (np.random.default_rng([m, t, shorten]).random((3, 40, code.n)) < 0.1).astype(np.uint8)
    odd = oracles.word_syndromes(code, words)
    synd = code.syndromes(words)
    assert synd.shape == (3, 40) and synd.dtype == np.int64
    np.testing.assert_array_equal(synd, oracles.pack_syndromes(code, odd))
    np.testing.assert_array_equal(oracles.unpack_syndromes(code, synd), odd)
    assert code.position_keys.shape == (code.n,) and code.position_keys.dtype == np.int64
    want = oracles.pack_syndromes(code, oracles.syndrome_powers(code)[::2].T)
    np.testing.assert_array_equal(code.position_keys, want)


@pytest.mark.parametrize("fixture", ["code_15_11", "code_30_20", "code_255_231"])
def test_chunked_syndromes_match_oneshot(fixture, request):
    """``syndromes`` works in chunks of at most SYNDROME_CHUNK_BITS bits, and
    equals the one-product formula bit for bit: at row counts on and around
    the chunk boundaries, for one row, and for a (B, 2, n, n) frame stack
    that spans several chunks.  Rows of the wrong length are refused."""
    code = request.getfixturevalue(fixture)
    n = code.n
    chunk = bch.SYNDROME_CHUNK_BITS // n
    rng = np.random.default_rng(n)
    shapes = [(rows, n) for rows in (0, 1, chunk - 1, chunk, chunk + 1, 2 * chunk + 1)]
    for shape in shapes + [(n,), (chunk // (2 * n) + 2, 2, n, n)]:
        words = rng.integers(0, 2, shape, dtype=np.uint8)
        synd = code.syndromes(words)
        assert synd.shape == shape[:-1] and synd.dtype == np.int64
        np.testing.assert_array_equal(synd, oracles.syndromes_oneshot(code, words))
        want = oracles.pack_syndromes(code, oracles.word_syndromes(code, words))
        np.testing.assert_array_equal(synd, want)
    with pytest.raises(ValueError):
        code.syndromes(np.zeros((2, 2 * n), dtype=np.uint8))  # not four rows of n


@pytest.mark.parametrize("m,t,shorten", KERNEL_CODES)
def test_bdd_kernel_matches_row_oracle(m, t, shorten):
    """Random rows up to p = 1/2, and codewords with t+1..t+3 errors (the
    miscorrection and failure cases), decode exactly as the scalar
    Berlekamp-Massey and Chien search do one row at a time."""
    code = build_bch(m, t, shorten=shorten)
    rng = np.random.default_rng([m, t, shorten])
    noisy = [(rng.random((300, code.n)) < p).astype(np.uint8) for p in (0.02, 0.05, 0.2, 0.5)]
    sent = code.encode(rng.integers(0, 2, size=(300, code.k), dtype=np.uint8))
    for errors in range(t + 1, t + 4):
        words = sent.copy()
        for row in words:
            row[rng.choice(code.n, errors, replace=False)] ^= 1
        noisy.append(words)
    words = np.concatenate(noisy)
    for got, want in zip(bdd_decode_matrix(code, words), oracles.bdd_decode_rows(code, words)):
        np.testing.assert_array_equal(got, want)


# KERNEL_CODES, two shortened t = 3 codes whose parent field holds far more
# roots than positions, (223,193) from length 1023 and (300,252) from 65535,
# (1023,1003), a t = 2 code too long for a syndrome table, two shortened
# t = 2 codes, (523,503) from length 1023 and (535,503) from 65535, and
# three more Berlekamp-Massey codes, (62,38,4), (127,92,5) and the shortened
# (245,197,6)
LOCATOR_CODES = [*KERNEL_CODES, (10, 3, 800), (16, 3, 65235), (10, 2, 0), (10, 2, 500),
                 (16, 2, 65000), (6, 4, 1), (7, 5, 0), (8, 6, 10)]


@pytest.mark.parametrize("m,t,shorten", LOCATOR_CODES)
def test_locate_errors_matches_chien_oracle(m, t, shorten):
    """The syndrome table (m*t <= 18), the table roots (t <= 3) or the
    package's Berlekamp-Massey (t >= 4) give the flipped bits and verdicts
    of the Berlekamp-Massey and Chien search oracle on every dirty row, each
    bit listed once: random rows up to p = 1/2, and codewords with 1..t+2
    errors."""
    code = build_bch(m, t, shorten=shorten)
    rng = np.random.default_rng([m, t, shorten, 1])
    noisy = [(rng.random((500, code.n)) < p).astype(np.uint8) for p in (0.005, 0.02, 0.1, 0.5)]
    sent = code.encode(rng.integers(0, 2, size=(300, code.k), dtype=np.uint8))
    for errors in range(1, t + 3):
        words = sent.copy()
        for row in words:
            row[rng.choice(code.n, errors, replace=False)] ^= 1
        noisy.append(words)
    words = np.concatenate(noisy)
    synd, odd = code.syndromes(words), oracles.word_syndromes(code, words)
    np.testing.assert_array_equal(synd, oracles.pack_syndromes(code, odd))
    row, pos, ok = bch._locate_errors(code, synd[synd != 0])
    flips, want_ok = oracles.locate_errors_chien(code, odd[synd != 0])
    assert len(set(zip(row.tolist(), pos.tolist()))) == len(row)  # each bit once
    got = np.zeros_like(flips)
    got[row, pos] = True
    np.testing.assert_array_equal(got, flips)
    np.testing.assert_array_equal(ok, want_ok)


@pytest.mark.parametrize("m,t,shorten", [(4, 1, 0), (4, 2, 0), (5, 2, 1), (6, 3, 0), (6, 3, 1)])
def test_syndrome_table_exhaustive(m, t, shorten):
    """One word per coset, zero outside the parity positions: the syndrome
    table gives the flipped bits and verdicts of Berlekamp-Massey with a
    Chien search on every coset, and decodes exactly the cosets of the
    error patterns of weight <= t."""
    code = build_bch(m, t, shorten=shorten)
    assert m * t <= bch.TABLE_MAX_BITS and code._table is not None
    assert code._table.nbytes + code._table_ok.nbytes <= 4 << 20
    r = code.n - code.k
    decoded = 0
    for lo in range(0, 1 << r, 1 << 14):
        words = np.zeros((min(1 << 14, (1 << r) - lo), code.n), dtype=np.uint8)
        words[:, code.k :] = np.arange(lo, lo + len(words))[:, None] >> np.arange(r) & 1
        synd, odd = code.syndromes(words), oracles.word_syndromes(code, words)
        np.testing.assert_array_equal(synd, oracles.pack_syndromes(code, odd))
        row, pos, ok = bch._locate_errors(code, synd)
        flips, want_ok = oracles.locate_errors_chien(code, odd)
        got = np.zeros_like(flips)
        got[row, pos] = True
        np.testing.assert_array_equal(got, flips)
        np.testing.assert_array_equal(ok, want_ok)
        decoded += int(ok.sum())
    assert decoded == sum(math.comb(code.n, w) for w in range(t + 1))


def test_syndrome_table_only_within_bound():
    """The paper's (255,231,3), at m*t = 24, has no syndrome table."""
    assert build_bch(8, 3)._table is None
    assert build_bch(9, 2)._table is not None  # (511,493), at the bound
    assert build_bch(10, 2)._table is None


# (m, t, shorten) of table-decoded t = 2 and 3 codes, (15,5,3), (31,16,3),
# (63,45,3), (62,44,3), (15,7,2), (31,21,2), (63,51,2) and (30,20,2)
CLOSED_FORM_TABLE_CODES = [(4, 3, 0), (5, 3, 0), (6, 3, 0), (6, 3, 1), (4, 2, 0), (5, 2, 0),
                           (6, 2, 0), (5, 2, 1)]


# with the t = 1 codes (15,11), (12,8) and (155,147), and the t = 4 (15,1)
@pytest.mark.parametrize(
    "m,t,shorten", [*CLOSED_FORM_TABLE_CODES, (4, 1, 0), (4, 1, 3), (8, 1, 100), (4, 4, 0)]
)
def test_closed_form_matches_syndrome_table(m, t, shorten):
    """Over every syndrome word, those no word has included, the code's
    syndrome table and its solver (the closed form for t <= 3, else
    Berlekamp-Massey) equal the table that enumerates the error patterns of
    weight <= t, each bit once."""
    code = build_bch(m, t, shorten=shorten)
    table, table_ok = oracles.syndrome_table_by_patterns(code)
    assert code._table.dtype == table.dtype
    np.testing.assert_array_equal(code._table, table)
    np.testing.assert_array_equal(code._table_ok, table_ok)
    solve = bch._locate_closed_form if t <= 3 else bch._berlekamp_massey
    row, pos, ok = solve(code, np.arange(1 << m * t))
    want_row, k = np.nonzero(table >= 0)
    want = want_row * code.n + table[want_row, k]
    np.testing.assert_array_equal(ok, table_ok)
    np.testing.assert_array_equal(np.sort(row * code.n + pos), want)


@pytest.mark.parametrize("m,t", [(16, 1), (9, 2), (6, 3)])
def test_small_t_table_never_enters_berlekamp_massey(m, t, monkeypatch):
    """The largest t <= 3 syndrome tables, (65535,65519,1), (511,493,2) and
    (63,45,3), fill in closed form: with Berlekamp-Massey refused each builds
    in under 0.5 s, and never holds 32 MB (a Chien search over the 65535
    positions of one 2^14-word chunk would take 8.6 GB)."""
    def refuse(code, synd):
        raise AssertionError("Berlekamp-Massey reached")

    monkeypatch.setattr(bch, "_berlekamp_massey", refuse)
    t0 = time.perf_counter()
    assert build_bch(m, t)._table is not None
    wall = time.perf_counter() - t0
    tracemalloc.start()  # traced apart: tracing slows the encoder's int loop
    try:
        build_bch(m, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert wall < 0.5, wall
    assert peak < 32 << 20, peak


@pytest.mark.long
@pytest.mark.parametrize("fixture", ["code_255_231", "code_254_230"])
def test_closed_form_exhaustive_full_size(fixture, request):
    """Over all 2^24 syndrome words of the paper's components, the closed
    form accepts exactly as many as there are error patterns of weight <= 3,
    and each accepted row flips at most 3 distinct in-range bits whose
    syndromes, packed from the row oracle's powers, sum to the row's.  Since
    d >= 7 gives each such pattern its own syndrome, the decoder is exact
    BDD."""
    code = request.getfixturevalue(fixture)
    n, step = code.n, 1 << 16
    position = oracles.pack_syndromes(code, oracles.syndrome_powers(code)[::2].T)
    accepted = 0
    for lo in range(0, 1 << 24, step):
        synd = np.arange(lo, lo + step)
        row, pos, ok = bch._locate_closed_form(code, synd)
        assert ok[row].all() and (np.diff(row) >= 0).all() and ((0 <= pos) & (pos < n)).all()
        # rows ascend, so a row's flips are at most 3 adjacent entries, all distinct
        assert not (row[3:] == row[:-3]).any()
        for gap in (1, 2):
            assert (pos[gap:] != pos[:-gap])[row[gap:] == row[:-gap]].all()
        firsts = np.flatnonzero(np.diff(row, prepend=-1))
        flipped = np.zeros_like(synd)
        flipped[row[firsts]] = np.bitwise_xor.reduceat(position[pos], firsts)
        np.testing.assert_array_equal(flipped[ok], synd[ok])
        accepted += int(ok.sum())
    assert accepted == sum(math.comb(n, w) for w in range(4))


def test_paper_codes_never_enter_berlekamp_massey(code_255_231, code_254_230, monkeypatch):
    """The paper's t = 3 components, in rows and in a product frame, find
    every error locator in closed form and never take a Berlekamp-Massey
    step, while a t = 4 code does; only t >= 4 codes build Chien exponents."""
    calls = []
    run = bch._berlekamp_massey
    monkeypatch.setattr(bch, "_berlekamp_massey",
                        lambda code, synd: calls.append(code.t) or run(code, synd))
    rng = np.random.default_rng(7)
    t4 = build_bch(8, 4)
    for code in (code_255_231, code_254_230, t4):
        words = (rng.random((300, code.n)) < 0.02).astype(np.uint8)
        assert bdd_decode_matrix(code, words)[2].any()
    frame = (rng.random((255, 255)) < 0.01).astype(np.uint8)
    ibdd_decode(ProductCode(code_255_231), frame, iters=4)
    assert calls == [4]
    assert not hasattr(code_255_231, "_chien") and not hasattr(code_254_230, "_chien")
    assert hasattr(t4, "_chien") and not hasattr(t4, "_cubic_roots")


def _field_mul(field, a, b):
    """Elementwise product of arrays of field elements."""
    log = field.log_table.astype(np.int64)
    prod = field.antilog_table[(log[a] + log[b]) % field.order]
    return np.where((a == 0) | (b == 0), 0, prod)


@pytest.mark.parametrize("m", sorted(DEFAULT_PRIMITIVE_POLY))
def test_root_tables_exhaustive(m):
    """Every root listed under a key of the cubic tables solves that key's
    equation, and every field element is listed under the key its own value
    gives; the listed roots rise within a row and precede the -1 padding."""
    field = GaloisField(m)
    x = np.arange(1 << m)
    cube = _field_mul(field, _field_mul(field, x, x), x)
    cubic = bch._cubic_roots(field)
    assert cubic.shape == (2 << m, 3)
    for table, value, own_key in (
        (cubic[: 1 << m], lambda w: _field_mul(field, _field_mul(field, w, w), w) ^ w, cube ^ x),
        (cubic[1 << m :], lambda w: _field_mul(field, _field_mul(field, w, w), w), cube),
    ):
        listed = table >= 0
        assert (value(np.where(listed, table, 0)) == x[:, None])[listed].all()
        assert (table[own_key] == x[:, None]).any(axis=1).all()
        assert ((table[:, 1:] > table[:, :-1]) | ~listed[:, 1:]).all()
        assert (listed[:, :-1] | ~listed[:, 1:]).all()


def _decodes_to_sent(code, positions):
    """Each row of ``positions`` (error positions; -1 for none) added to one
    codeword decodes back to it."""
    rng = np.random.default_rng(code.n)
    sent = code.encode(rng.integers(0, 2, size=code.k, dtype=np.uint8))
    for lo in range(0, len(positions), 4096):
        pos = positions[lo : lo + 4096]
        words = np.zeros((len(pos), code.n + 1), dtype=np.uint8)  # column n absorbs -1
        for col in pos.T:
            words[np.arange(len(pos)), col] ^= 1
        words = words[:, : code.n] ^ sent
        _, dec, ok = bdd_decode_matrix(code, words)
        assert ok.all()
        assert (dec == sent).all()


@pytest.mark.parametrize("fixture", ["code_255_231", "code_254_230"])
def test_bdd_kernel_corrects_every_double_error(fixture, request):
    code = request.getfixturevalue(fixture)
    i, j = np.triu_indices(code.n + 1, k=1)  # j = n stands for no second error
    positions = np.stack([i, np.where(j == code.n, -1, j)], axis=1)
    positions = np.concatenate([[[-1, -1]], positions])  # and the error-free word
    _decodes_to_sent(code, positions)


@pytest.mark.parametrize("fixture", ["code_255_231", "code_254_230"])
def test_bdd_kernel_corrects_triple_errors(fixture, request):
    code = request.getfixturevalue(fixture)
    rng = np.random.default_rng(3)
    draws = rng.integers(0, code.n, size=(210_000, 3))
    distinct = (draws[:, 0] != draws[:, 1]) & (draws[:, 0] != draws[:, 2]) & (
        draws[:, 1] != draws[:, 2]
    )
    positions = draws[distinct][:200_000]
    assert len(positions) == 200_000
    _decodes_to_sent(code, positions)


# (m, t, shorten) of the three locator paths: syndrome table, closed form
# beyond the table, Berlekamp-Massey
ZERO_WORD_CODES = {"table": [(4, 1, 0), (5, 2, 1)], "closed-form": [(7, 3, 0), (8, 3, 0)],
                   "berlekamp-massey": [(5, 5, 0), (6, 4, 0), (8, 6, 10)]}


@pytest.mark.parametrize("path,m,t,shorten",
                         [(p, *c) for p, codes in ZERO_WORD_CODES.items() for c in codes])
def test_locate_errors_zero_words_are_ok_and_unflipped(path, m, t, shorten):
    """A zero syndrome word gets ``ok`` and no flip on every locator path,
    alone or among nonzero words, whose flips and verdicts are those they get
    without the zero words."""
    code = build_bch(m, t, shorten=shorten)
    assert path == ("table" if code._table is not None
                    else "closed-form" if t <= 3 else "berlekamp-massey")
    row, pos, ok = bch._locate_errors(code, np.zeros(7, dtype=np.int64))
    assert len(row) == len(pos) == 0
    assert ok.shape == (7,) and ok.all()
    rng = np.random.default_rng([m, t, shorten])
    sent = code.encode(rng.integers(0, 2, (60, code.k), dtype=np.uint8))
    for r, dist in enumerate([0, 1, t, t + 1, t + 2] * 12):
        sent[r, rng.choice(code.n, dist, replace=False)] ^= 1
    synd = code.syndromes(sent)
    dirty = np.flatnonzero(synd)
    assert 0 < len(dirty) < len(synd)
    row, pos, ok = bch._locate_errors(code, synd)
    want_row, want_pos, want_ok = bch._locate_errors(code, synd[dirty])
    assert ok[synd == 0].all()
    np.testing.assert_array_equal(ok[dirty], want_ok)
    np.testing.assert_array_equal(row, dirty[want_row])
    np.testing.assert_array_equal(pos, want_pos)


@pytest.mark.parametrize("m,t,shorten", [(4, 1, 0), (5, 2, 1), (8, 3, 0), (6, 4, 0)])
def test_bdd_decode_matrix_zero_rows_and_no_rows(m, t, shorten):
    """All-zero rows decode to themselves with ``ok`` and all-+1 messages,
    and a (0, n) array gives (0, n), (0, n) and (0,) results."""
    code = build_bch(m, t, shorten=shorten)
    ternary, decoded, ok = bdd_decode_matrix(code, np.zeros((5, code.n), dtype=np.uint8))
    np.testing.assert_array_equal(ternary, np.ones((5, code.n), dtype=np.int8))
    np.testing.assert_array_equal(decoded, np.zeros((5, code.n), dtype=np.uint8))
    np.testing.assert_array_equal(ok, np.ones(5, dtype=bool))
    ternary, decoded, ok = bdd_decode_matrix(code, np.zeros((0, code.n), dtype=np.uint8))
    assert (ternary.shape, decoded.shape, ok.shape) == ((0, code.n), (0, code.n), (0,))
    assert (ternary.dtype, decoded.dtype, ok.dtype) == (np.int8, np.uint8, bool)


@pytest.mark.parametrize("shape", [(15,), (2, 14), (2, 16), (1, 2, 15)])
def test_bdd_decode_matrix_refuses_shape(code_15_7, shape):
    with pytest.raises(ValueError, match=r"expected shape \(rows, 15\)"):
        bdd_decode_matrix(code_15_7, np.zeros(shape, dtype=np.uint8))


@pytest.mark.parametrize("length", [6, 8, 15])
def test_encode_refuses_wrong_length(code_15_7, length):
    with pytest.raises(ValueError, match=f"expected 7 information bits, got {length}"):
        code_15_7.encode(np.zeros((2, length), dtype=np.uint8))


def test_perfect_code_never_fails(code_15_11, rng):
    words = rng.integers(0, 2, size=(500, 15), dtype=np.uint8)
    _, _, ok = bdd_decode_matrix(code_15_11, words)
    assert ok.all()


def test_bdd_single_and_double_flip(code_15_7, rng):
    tx = code_15_7.encode(rng.integers(0, 2, size=code_15_7.k, dtype=np.uint8))
    for flips in ([2], [1, 9]):
        rx = tx.copy()
        rx[flips] ^= 1
        _, dec, ok = bdd_decode_matrix(code_15_7, rx[None, :])
        assert ok[0]
        np.testing.assert_array_equal(dec[0], tx)
    # weight-3 pattern exceeds t=2: either fails or lands on a different codeword
    rx = tx.copy()
    rx[[0, 5, 11]] ^= 1
    _, dec, ok = bdd_decode_matrix(code_15_7, rx[None, :])
    if ok[0]:
        assert not np.array_equal(dec[0], tx)
        assert code_15_7.is_codeword(dec[0])


def test_bdd_ternary_scalar_outcomes(code_15_7):
    zero = np.zeros((1, 15), dtype=np.uint8)
    tern, _, ok = bdd_decode_matrix(code_15_7, zero)
    assert ok[0]
    np.testing.assert_array_equal(tern[0], np.ones(15, dtype=np.int8))


@pytest.mark.parametrize("bad", [2, 3, 257, -1, 0.5])
def test_bit_inputs_reject_non_binary(code_15_7, bad):
    """Words and information rows hold bits, whatever their dtype: a row
    holding a 2 is not decoded as a codeword with message -3, an int64 257
    does not wrap to 1, and 3s are not encoded into a word of 3s."""
    words = np.zeros((2, code_15_7.n), dtype=np.asarray(bad).dtype)
    words[1, 4] = bad
    info = np.full(code_15_7.k, bad)
    for call in (lambda: bdd_decode_matrix(code_15_7, words), lambda: code_15_7.encode(info)):
        with pytest.raises(ValueError, match="only 0 and 1"):
            call()


@pytest.mark.parametrize("bad", [2, 257, -1, np.uint8(2)], ids=["2", "257", "-1", "uint8-2"])
def test_syndromes_reject_non_binary(code_15_7, bad):
    """``syndromes`` and both codeword checks refuse any entry but 0 and 1,
    whatever the dtype: a word of 2s is not a codeword with zero syndromes,
    and 257 does not count as 1."""
    word = np.full(code_15_7.n, bad)
    frame = np.full((code_15_7.n, code_15_7.n), bad)
    for call in (lambda: code_15_7.syndromes(word), lambda: code_15_7.is_codeword(word),
                 lambda: ProductCode(code_15_7).is_codeword(frame)):
        with pytest.raises(ValueError, match="only 0 and 1"):
            call()


def test_ideal_decoder_genie(code_15_7, rng):
    """The genie flips a row within t back to its transmitted row and leaves a
    row beyond t alone, never miscorrecting it; rows of a stack count through
    it."""
    tx = code_15_7.encode(rng.integers(0, 2, size=(4, code_15_7.k), dtype=np.uint8))
    rx = tx.copy()
    rx[0, [1, 4]] ^= 1          # within t: restored
    rx[1, [0, 3, 7]] ^= 1       # weight 3 > t: must NOT miscorrect
    row, pos, ok = ideal_decode_matrix(code_15_7, rx, tx)
    np.testing.assert_array_equal(row, [0, 0])
    np.testing.assert_array_equal(pos, [1, 4])
    np.testing.assert_array_equal(ok, [True, False, True, True])
    # a stack's rows are numbered through it
    stacked = ideal_decode_matrix(code_15_7, rx.reshape(2, 2, -1), tx.reshape(2, 2, -1))
    for a, b in zip(stacked, (row, pos, ok)):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("fixture", ["code_15_7", "code_255_231"])
def test_ideal_flips_match_dense_oracle(fixture, request, rng):
    """Applied to the rows, the genie's flips give the dense oracle's decoded
    rows, with its verdicts, for rows at distance 0, t and t+1 from the
    transmitted rows and for random rows; each flip is one bit of a decoded row."""
    code = request.getfixturevalue(fixture)
    tx = code.encode(rng.integers(0, 2, (40, code.k), dtype=np.uint8))
    rx = tx.copy()
    for r, dist in enumerate([0, code.t, code.t + 1] * 10):
        rx[r, rng.choice(code.n, dist, replace=False)] ^= 1
    rx[30:] = rng.integers(0, 2, (10, code.n), dtype=np.uint8)
    row, pos, ok = ideal_decode_matrix(code, rx, tx)
    _, decoded, want_ok = oracles.ideal_decode_dense(code, rx, tx)
    np.testing.assert_array_equal(ok, want_ok)
    np.testing.assert_array_equal(ok[:30], [True, True, False] * 10)
    assert ok[row].all() and len(set(zip(row.tolist(), pos.tolist()))) == len(row)
    rx[row, pos] ^= 1
    np.testing.assert_array_equal(rx, decoded)


# ---------------------------------------------------------------------------
# weight enumerators


def test_exact_enumerator_hamming15(code_15_11):
    counts = weight_enumerator_exact(code_15_11)
    expected = np.zeros(16, dtype=np.int64)
    expected[[0, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 15]] = [
        1, 35, 105, 168, 280, 435, 435, 280, 168, 105, 35, 1,
    ]
    np.testing.assert_array_equal(counts, expected)
    assert counts.sum() == 2**11


def test_exact_enumerator_bch_15_7(code_15_7):
    counts = weight_enumerator_exact(code_15_7)
    assert counts[0] == 1 and counts[15] == 1
    assert counts[1:5].sum() == 0  # nothing below the design distance
    np.testing.assert_array_equal(counts[[5, 6, 7, 8, 9, 10]], [18, 30, 15, 15, 30, 18])
    assert counts.sum() == 2**7


@pytest.mark.parametrize("m,t,shorten", [
    (4, 1, 0), (4, 2, 0), (4, 3, 0), (5, 2, 1), (5, 3, 0), (5, 2, 5), (6, 1, 40),
    (6, 10, 0), (7, 9, 56), (7, 9, 62), (8, 3, 230),
])
def test_exact_enumerator_matches_codeword_enumeration(m, t, shorten):
    """Both branches, the code's own span (k <= n - k, here up to n = 71,
    two packed words) and the dual's span with the MacWilliams transform
    (k > n - k), count what encoding every information word counts."""
    code = build_bch(m, t, shorten=shorten)
    want = oracles.weight_enumerator_encode(code)
    np.testing.assert_array_equal(weight_enumerator_exact(code), want)


def test_exact_enumerator_refuses_long(code_255_231):
    with pytest.raises(ValueError):
        weight_enumerator_exact(code_255_231)


def test_approx_enumerator(code_255_231):
    from fractions import Fraction

    a = weight_enumerator_approx(code_255_231)
    assert len(a) == 256 and all(isinstance(v, Fraction) for v in a)
    assert a[0] == 1 and a[255] == 1  # A_0 = A_n = 1
    assert a[code_255_231.t * 2] == 0 and a[255 - 2 * 3] == 0  # below design distance
    assert a[7] == Fraction(math.comb(255, 7), 2**24)  # first modeled weight
    assert a[100] == Fraction(math.comb(255, 100), 2**24)
