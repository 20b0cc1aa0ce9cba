"""BI-AWGN channel model: parameters, LLR generation, hard decisions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ibddlab.channel import harden, make_params, noise_to_llr, q_float, transmit


def test_q_function_reference_values():
    """The Gaussian tail Q is ``q_float``, one Python float at a time."""
    assert type(q_float(1.0)) is float
    assert q_float(0.0) == pytest.approx(0.5, abs=1e-15)
    assert q_float(1.0) == pytest.approx(0.158655253931457, abs=1e-12)
    assert q_float(-1.0) == pytest.approx(1 - 0.158655253931457, abs=1e-12)


def test_q_function_matches_scipy_oracle():
    """math.erfc agrees with scipy's erfc to 1e-13 relative wherever Q is at
    least 1e-290, one value at a time."""
    x = np.linspace(-5.0, 40.0, 4501)
    got, want = np.array([q_float(v) for v in x.tolist()]), oracles.q_function_scipy(x)
    normal = want >= 1e-290
    assert normal.sum() > 4000
    np.testing.assert_allclose(got[normal], want[normal], rtol=1e-13, atol=0)
    assert np.all((got[~normal] >= 0) & (got[~normal] < 1e-289))


def test_array_q_oracle_maps_q_float():
    """The oracles' array Q keeps the shape of its argument and is q_float
    at every element."""
    x = np.linspace(-5.0, 40.0, 4501)
    assert np.array_equal(oracles.q_function(x), [q_float(v) for v in x.tolist()])
    assert oracles.q_function(x).dtype == np.float64
    assert np.ndim(oracles.q_function(1.0)) == 0
    assert np.ndim(oracles.q_function(np.float64(-2.0))) == 0
    assert oracles.q_function(np.full((2, 3), 0.5)).shape == (2, 3)


def test_params_at_zero_db_rate_half():
    p = make_params(0.0, 0.5)
    assert p.sigma2 == pytest.approx(1.0, abs=1e-14)
    assert p.sigma == pytest.approx(1.0, abs=1e-14)
    assert p.p_ch == pytest.approx(q_float(1.0), abs=1e-14)


@pytest.mark.parametrize("ebn0_db", [-3.0, 0.0, 4.18, 10.0])
def test_p_ch_is_q_float_of_inverse_sigma(ebn0_db):
    p = make_params(ebn0_db, 1 - 2 * 24 / 255)
    assert type(p.p_ch) is float and p.p_ch == q_float(1.0 / p.sigma)


@pytest.mark.parametrize("ebn0_db", [float("nan"), float("inf"), -float("inf")])
def test_params_reject_non_finite_ebn0(ebn0_db):
    with pytest.raises(ValueError, match="finite"):
        make_params(ebn0_db, 0.5)


@pytest.mark.parametrize("ebn0_db", [3082.4, 3082.6, 4000.0, -3090.0, -3100.0, -3300.0, -4000.0])
def test_params_reject_ebn0_without_finite_positive_variance(ebn0_db):
    """Beyond about +-3080 dB sigma^2 overflows, underflows to zero or
    divides by zero, or the LLR scale 2/sigma^2 overflows (3082.4 dB: sigma^2
    is the subnormal 5.75e-309): a ValueError naming Eb/N0, not an
    OverflowError, a ZeroDivisionError, an infinite sigma^2 or infinite LLRs."""
    with pytest.raises(ValueError, match="Eb/N0"):
        make_params(ebn0_db, 0.5)


def test_params_reject_overflowing_llr_scale_at_high_rate():
    """At rate 0.9, 3077 dB gives sigma^2 = 1.1e-308, finite and positive,
    but 2/sigma^2 overflows, so ``transmit`` would return +-inf."""
    with pytest.raises(ValueError, match="Eb/N0 of 3077.0 dB"):
        make_params(3077.0, 0.9)


@pytest.mark.parametrize("ebn0_db", [3079.0, -3080.0])
def test_params_keep_extreme_finite_variance(ebn0_db):
    """The extremes still accepted keep finite LLRs: at 3079 dB, 2/sigma^2
    is 1.59e308."""
    params = make_params(ebn0_db, 0.5)
    assert math.isfinite(params.sigma2) and params.sigma2 > 0.0
    llr = transmit(np.array([0, 1, 0, 1]), params, np.random.default_rng(7))
    assert np.isfinite(llr).all()


@settings(max_examples=500, deadline=None)
@given(ebn0_db=st.floats(allow_nan=False, allow_infinity=False),
       rate=st.floats(min_value=0.0, max_value=1.0, exclude_min=True))
def test_params_refuse_or_give_finite_llrs(ebn0_db, rate):
    """For any finite Eb/N0 and any rate in (0, 1], ``make_params`` raises
    ValueError or ``transmit`` returns finite LLRs (and warns of no overflow)."""
    try:
        params = make_params(ebn0_db, rate)
    except ValueError:
        return
    llr = transmit(np.array([0, 1] * 8), params, np.random.default_rng(5))
    assert np.isfinite(llr).all()


@pytest.mark.parametrize("rate", [0.0, -0.5, 1.5, float("nan")])
def test_params_reject_rate_outside_unit_interval(rate):
    with pytest.raises(ValueError, match=r"rate must be in \(0, 1\]"):
        make_params(3.0, rate)


def test_p_ch_monotone_in_snr():
    rate = 0.7573  # (231/255)^2
    vals = [make_params(e, rate).p_ch for e in np.arange(0.0, 8.0, 0.5)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert 0 < vals[-1] < vals[0] < 0.5


def test_transmit_shape_and_determinism():
    params = make_params(3.0, 0.5)
    bits = np.zeros((4, 6), dtype=np.uint8)
    llr1 = transmit(bits, params, np.random.default_rng(99))
    llr2 = transmit(bits, params, np.random.default_rng(99))
    assert llr1.shape == bits.shape
    np.testing.assert_array_equal(llr1, llr2)
    # different seed, different noise
    llr3 = transmit(bits, params, np.random.default_rng(100))
    assert not np.array_equal(llr1, llr3)


def test_transmit_matches_normal_draws():
    """transmit draws sigma * standard normal and applies the LLR formula in
    place: bit for bit what rng.normal(0, sigma) and the out-of-place
    formula give on the same stream."""
    params = make_params(3.7, 0.6)
    bits = np.random.default_rng(1).integers(0, 2, (40, 50), dtype=np.uint8)
    got = transmit(bits, params, np.random.default_rng(7))
    want = oracles.transmit_normal(bits, params, np.random.default_rng(7))
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def test_noise_to_llr_in_place():
    params = make_params(2.0, 0.5)
    noise = np.random.default_rng(3).standard_normal((3, 4))
    bits = np.zeros((3, 4), dtype=np.uint8)
    bits[1] = 1
    want = 2.0 * ((1.0 - 2.0 * bits) + params.sigma * noise) / params.sigma2
    out = noise_to_llr(noise, bits, params)
    assert out is noise
    np.testing.assert_array_equal(out, want)
    # random bits: every entry exactly as the formula, on both BPSK points
    rng = np.random.default_rng(4)
    noise = rng.standard_normal((4, 160, 160))
    bits = rng.integers(0, 2, noise.shape, dtype=np.uint8)
    want = 2.0 * ((1.0 - 2.0 * bits) + params.sigma * noise) / params.sigma2
    np.testing.assert_array_equal(noise_to_llr(noise, bits, params), want)


def test_transmit_llr_statistics():
    # for an all-zero word the LLR mean is +2/sigma^2 and the hardening
    # error rate approaches p_ch
    params = make_params(2.0, 0.5)
    bits = np.zeros(200_000, dtype=np.uint8)
    llr = transmit(bits, params, np.random.default_rng(5))
    assert llr.mean() == pytest.approx(2.0 / params.sigma2, rel=0.02)
    assert harden(llr).mean() == pytest.approx(params.p_ch, rel=0.05)
    # ones land on the opposite BPSK point
    llr_ones = transmit(np.ones_like(bits), params, np.random.default_rng(5))
    assert llr_ones.mean() == pytest.approx(-2.0 / params.sigma2, rel=0.02)
    assert (harden(llr_ones) == 0).mean() == pytest.approx(params.p_ch, rel=0.05)


def test_harden_conventions():
    llr = np.array([-2.5, -1e-300, 0.0, 1e-300, 3.0])
    np.testing.assert_array_equal(harden(llr), [1, 1, 0, 0, 0])
    assert harden(llr).dtype == np.uint8


def test_harden_rejects_nan():
    with pytest.raises(ValueError, match="NaN"):
        harden(np.array([np.nan, -1.0]))
    # infinities are known bits, not errors
    np.testing.assert_array_equal(harden(np.array([np.inf, -np.inf])), [0, 1])
