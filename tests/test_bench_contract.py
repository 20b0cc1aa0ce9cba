"""The program surface the benchmark's tracer and checks rely on.

``bench/spans.py`` wraps functions of ibddlab by name and reports a metric as
null when its target is gone, and ``bench/run.py`` checks the component
decoder's result arrays.  These tests fail when a refactor breaks either.
"""

import sys
from pathlib import Path

import numpy as np

from ibddlab.bch import bdd_decode_matrix

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

from spans import Tracer  # noqa: E402


def test_every_traced_function_exists():
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.missing == {}
    finally:
        tracer.uninstall()


def test_bdd_decode_matrix_result_arrays(code_15_7, rng):
    words = rng.integers(0, 2, size=(9, code_15_7.n), dtype=np.uint8)
    ternary, decoded, ok = bdd_decode_matrix(code_15_7, words)
    assert ternary.dtype == np.int8 and ternary.shape == words.shape
    assert decoded.dtype == np.uint8 and decoded.shape == words.shape
    assert ok.dtype == np.bool_ and ok.shape == (len(words),)
