"""Binary-input AWGN channel with LLR output.

Bits map to antipodal symbols (0 -> +1, 1 -> -1); the noise variance follows
from Eb/N0 and the code rate as sigma^2 = (2 * R * 10^(EbN0_dB/10))^-1.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc

_SQRT2 = math.sqrt(2.0)


def q_function(x):
    """Gaussian tail probability Q(x) = P(N(0,1) > x)."""
    return 0.5 * erfc(np.asarray(x, dtype=np.float64) / _SQRT2)


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
    if not 0.0 < rate <= 1.0:
        raise ValueError(f"rate must be in (0, 1], got {rate}")
    ebn0 = 10.0 ** (ebn0_db / 10.0)
    sigma2 = 1.0 / (2.0 * rate * ebn0)
    return ChannelParams(ebn0_db=ebn0_db, rate=rate, sigma2=sigma2)


def transmit(bits: np.ndarray, params: ChannelParams, rng: np.random.Generator) -> np.ndarray:
    """Send bits over the channel and return the per-bit channel LLRs 2y/sigma^2."""
    bits = np.asarray(bits, dtype=np.uint8)
    symbols = 1.0 - 2.0 * bits.astype(np.float64)
    y = symbols + rng.normal(0.0, params.sigma, size=bits.shape)
    return 2.0 * y / params.sigma2


def harden(llr: np.ndarray) -> np.ndarray:
    """Hard decision: positive LLR -> 0, negative -> 1, exact zero -> 0.

    Raises ValueError on NaN, which has no sign to decide; +-inf is a known bit.
    """
    llr = np.asarray(llr)
    if np.isnan(llr).any():
        raise ValueError("NaN channel LLR")
    return (llr < 0).astype(np.uint8)
