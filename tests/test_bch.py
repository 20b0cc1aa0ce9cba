"""Component-code tests: field/code construction, encoding, and the
bounded-distance decoder checked against a brute-force nearest-codeword
oracle."""

import numpy as np
import pytest

import oracles
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


def test_bad_construction_raises():
    with pytest.raises(CodeConstructionError):
        build_bch(4, 0)
    with pytest.raises(CodeConstructionError):
        build_bch(4, 1, shorten=11)  # would leave k <= 0
    for m in (1, 17):
        with pytest.raises(FieldConstructionError):
            GaloisField(m)


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


def test_ideal_decoder_genie(code_15_7, rng):
    tx = code_15_7.encode(rng.integers(0, 2, size=(4, code_15_7.k), dtype=np.uint8))
    rx = tx.copy()
    rx[0, [1, 4]] ^= 1          # within t: restored
    rx[1, [0, 3, 7]] ^= 1       # weight 3 > t: must NOT miscorrect
    tern, dec, ok = ideal_decode_matrix(code_15_7, rx, tx)
    np.testing.assert_array_equal(dec[0], tx[0])
    np.testing.assert_array_equal(dec[1], rx[1])  # untouched, never miscorrected
    assert ok[0] and not ok[1]
    assert tern[1].sum() == 0 and np.all(tern[1] == 0)
    np.testing.assert_array_equal(tern[0], 1 - 2 * tx[0].astype(np.int8))


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


def test_exact_enumerator_refuses_long(code_255_231):
    with pytest.raises(ValueError):
        weight_enumerator_exact(code_255_231)


def test_approx_enumerator(code_255_231):
    import math
    from fractions import Fraction

    a = weight_enumerator_approx(code_255_231)
    assert len(a) == 256 and all(isinstance(v, Fraction) for v in a)
    assert a[0] == 1 and a[255] == 1  # A_0 = A_n = 1
    assert a[code_255_231.t * 2] == 0 and a[255 - 2 * 3] == 0  # below design distance
    assert a[7] == Fraction(math.comb(255, 7), 2**24)  # first modeled weight
    assert a[100] == Fraction(math.comb(255, 100), 2**24)
