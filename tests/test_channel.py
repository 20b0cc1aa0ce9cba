"""BI-AWGN channel model: parameters, LLR generation, hard decisions."""

import numpy as np
import pytest

from ibddlab.channel import harden, make_params, q_function, transmit


def test_q_function_reference_values():
    assert q_function(0.0) == pytest.approx(0.5, abs=1e-15)
    assert q_function(1.0) == pytest.approx(0.158655253931457, abs=1e-12)
    assert q_function(-1.0) == pytest.approx(1 - 0.158655253931457, abs=1e-12)


def test_params_at_zero_db_rate_half():
    p = make_params(0.0, 0.5)
    assert p.sigma2 == pytest.approx(1.0, abs=1e-14)
    assert p.sigma == pytest.approx(1.0, abs=1e-14)
    assert p.p_ch == pytest.approx(q_function(1.0), abs=1e-14)


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
