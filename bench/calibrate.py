"""Calibration kernel: a fixed piece of work that measures how fast the machine runs now.

A shared 2-vCPU VM changes speed by 15-30 % from one second to the next,
and a process's CPU time drifts with its wall time, so raw frames/s of one
commit do not repeat from run to run there.  The benchmark
therefore samples this kernel throughout every timed block (``Speedometer``)
and reports each block's time as it would be on a machine that runs the
kernel at ``NOMINAL_RATE`` units per second (see ``adjust``).

The kernel mimics the mix of the decoders' hot paths -- a masked XOR-reduce
over a bit matrix (syndromes), a scalar table-driven loop indexing numpy
arrays (Berlekamp-Massey), vector table lookups over the field (Chien search)
and a few calls on tiny arrays (per-call overhead on short codes) -- so that
a slower host slows it by the same share.  It is frozen benchmark code: no
change to ibddlab can change its speed.
"""

import signal
import time

import numpy as np

NOMINAL_RATE = 1000.0  # units/s; the speed that adjusted figures refer to

_rng = np.random.default_rng(20190209)
_ORDER = 255
_ALOG = _rng.permutation(np.arange(1, 256, dtype=np.int32))
_LOG = np.zeros(256, dtype=np.int32)
_LOG[_ALOG] = np.arange(255, dtype=np.int32)
_POW = _rng.integers(1, 256, (6, 255), dtype=np.int32)
_CHIEN = _rng.integers(0, 255, (3, 255)).astype(np.int64)
_BIG = (_rng.random((24, 255)) < 0.012).astype(np.uint8)
_SMALL = (_rng.random((15, 15)) < 0.05).astype(np.uint8)
_SMALL_POW = _rng.integers(1, 16, (2, 15), dtype=np.int32)


def unit() -> int:
    """One unit of calibration work (about 1 ms); returns a checksum."""
    contrib = np.where(_BIG[:, None, :].astype(bool), _POW[None, :, :], 0)
    synd = np.bitwise_xor.reduce(contrib, axis=2)
    total = 0
    for row in synd:
        s = [int(v) for v in row]
        c = [1, 0, 0, 0]
        for i in range(6):
            d = s[i]
            for j in range(1, 4):
                if c[j] and s[i - j]:
                    d ^= int(_ALOG[(_LOG[c[j]] + _LOG[s[i - j]]) % _ORDER])
            if d:
                c[1 + i % 3] ^= int(_ALOG[(_LOG[d] + 3) % _ORDER])
        acc = np.ones(_ORDER, dtype=np.int32)
        for d in range(1, 4):
            if c[d]:
                acc ^= _ALOG[(int(_LOG[c[d]]) + _CHIEN[d - 1]) % _ORDER]
        total += len(np.flatnonzero(acc == 0))
    for _ in range(8):
        small = np.bitwise_xor.reduce(
            np.where(_SMALL[:, None, :].astype(bool), _SMALL_POW[None], 0), axis=2
        )
        total += int(np.any(small != 0, axis=1).sum())
        total += int(np.where(small[:, :1] != 0, _SMALL, _SMALL.T).sum())
    return total


class Speedometer:
    """Samples the kernel once on entry, every ``period`` seconds inside, and once on exit.

    The samples inside the block run from a SIGALRM handler, between two
    bytecodes of whatever the block is doing; their time is taken out of the
    block's.  ``work_s`` is the block's wall time without them, ``rate`` the
    kernel's speed over all samples, and ``on_sample(seconds)`` is told of
    each sample taken inside, so that a span clock can cut it out too.
    """

    def __init__(self, period: float = 0.04, on_sample=None):
        self.period = period
        self.on_sample = on_sample
        self.sampled_s = 0.0
        self.units = 0
        self.work_s = 0.0
        self._inside_s = 0.0

    def _sample(self, *_signal) -> float:
        t0 = time.perf_counter()
        unit()
        took = time.perf_counter() - t0
        self.sampled_s += took
        self.units += 1
        return took

    def _tick(self, *_signal) -> None:
        took = self._sample()
        self._inside_s += took
        if self.on_sample is not None:
            self.on_sample(took)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._sample()
        self._t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        self.work_s = time.perf_counter() - self._t0 - self._inside_s
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    @property
    def rate(self) -> float:
        """Calibration units per second over this block's samples."""
        return self.units / self.sampled_s


def adjust(seconds: float, cal_rate: float) -> float:
    """Seconds measured at ``cal_rate`` expressed at NOMINAL_RATE."""
    return seconds * cal_rate / NOMINAL_RATE
