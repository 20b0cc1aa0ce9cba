"""Binary-input AWGN channel with LLR output.

Bits map to antipodal symbols (0 -> +1, 1 -> -1); the noise variance follows
from Eb/N0 and the code rate as sigma^2 = (2 * R * 10^(EbN0_dB/10))^-1.
``noise_to_llr`` holds the LLR formula; ``transmit`` and the simulation
engine, which draws a whole stack of frames at once, both go through it.
Q(x) comes from the standard library's ``math.erfc``, one value at a time
(``q_float``).
"""

import math
from dataclasses import dataclass

import numpy as np

_SQRT2 = math.sqrt(2.0)


def q_float(v: float) -> float:
    """Gaussian tail probability Q(v) of one float, as a Python float."""
    return 0.5 * math.erfc(v / _SQRT2)


_Q = np.frompyfunc(q_float, 1, 1)


def q_function(x):
    """Gaussian tail probability Q(x) = P(N(0,1) > x), elementwise, in x's shape."""
    return np.asarray(_Q(x), dtype=np.float64)[()]


@dataclass(frozen=True)
class ChannelParams:
    ebn0_db: float
    rate: float
    sigma2: float

    @property
    def sigma(self) -> float:
        return math.sqrt(self.sigma2)

    @property
    def p_ch(self) -> float:
        """Hard-decision crossover probability Q(1/sigma)."""
        return float(q_function(1.0 / self.sigma))


def make_params(ebn0_db: float, rate: float) -> ChannelParams:
    """Channel at ``ebn0_db`` for a code of ``rate``.  Raises ValueError on a
    rate outside (0, 1] and on an Eb/N0 that is not finite or so far out
    (beyond about +-3080 dB) that sigma^2 is not a finite positive float or
    the LLR scale 2/sigma^2 is not finite."""
    if not math.isfinite(ebn0_db):
        raise ValueError(f"Eb/N0 must be finite, got {ebn0_db}")
    if not 0.0 < rate <= 1.0:
        raise ValueError(f"rate must be in (0, 1], got {rate}")
    try:
        sigma2 = 1.0 / (2.0 * rate * 10.0 ** (ebn0_db / 10.0))
    except (OverflowError, ZeroDivisionError):
        sigma2 = math.nan
    if not (math.isfinite(sigma2) and sigma2 > 0.0 and math.isfinite(2.0 / sigma2)):
        raise ValueError(f"Eb/N0 of {ebn0_db} dB gives no finite, positive noise variance "
                         "with finite LLRs")
    return ChannelParams(ebn0_db=ebn0_db, rate=rate, sigma2=sigma2)


def noise_to_llr(noise: np.ndarray, bits: np.ndarray, params: ChannelParams) -> np.ndarray:
    """Overwrite standard normal draws ``noise`` (float64) with the channel
    LLRs 2y/sigma^2 of ``bits``, where y = s + sigma * z and s = 1 - 2b, and
    return it.

    Works in place, with no float temporaries.  The operations are those of
    ``2.0 * (s + rng.normal(0.0, sigma)) / sigma2`` on the same draws, so the
    LLRs are bit-identical to it.
    """
    noise *= params.sigma
    symbols = np.array(bits, dtype=np.int8)  # a copy: s = 1 - 2b as int8
    symbols *= -2
    symbols += 1
    noise += symbols  # x + (-1) is x - 1.0 exactly
    noise *= 2.0
    noise /= params.sigma2
    return noise


def transmit(bits: np.ndarray, params: ChannelParams, rng: np.random.Generator) -> np.ndarray:
    """Send bits over the channel and return the per-bit channel LLRs 2y/sigma^2."""
    bits = np.asarray(bits, dtype=np.uint8)
    return noise_to_llr(rng.standard_normal(bits.shape), bits, params)


def harden(llr: np.ndarray) -> np.ndarray:
    """Hard decision: positive LLR -> 0, negative -> 1, exact zero -> 0.

    Raises ValueError on NaN, which has no sign to decide; +-inf is a known bit.
    """
    llr = np.asarray(llr)
    if np.isnan(llr).any():
        raise ValueError("NaN channel LLR")
    return (llr < 0).astype(np.uint8)
