"""Shared fixtures: component codes and DE profiles are expensive to build,
so they are constructed once per session and shared read-only."""

import numpy as np
import pytest

from ibddlab.bch import build_bch
from ibddlab.de import auto_profile


@pytest.fixture(scope="session")
def code_15_11():
    return build_bch(4, 1)


@pytest.fixture(scope="session")
def code_15_7():
    return build_bch(4, 2)


@pytest.fixture(scope="session")
def code_30_20():
    return build_bch(5, 2, shorten=1)


@pytest.fixture(scope="session")
def code_63_51():
    return build_bch(6, 2)


@pytest.fixture(scope="session")
def code_255_231():
    return build_bch(8, 3)


@pytest.fixture(scope="session")
def code_254_230():
    return build_bch(8, 3, shorten=1)


@pytest.fixture(scope="session")
def prof_15_11(code_15_11):
    return auto_profile(code_15_11)


@pytest.fixture(scope="session")
def prof_15_7(code_15_7):
    return auto_profile(code_15_7)


@pytest.fixture(scope="session")
def prof_30_20(code_30_20):
    return auto_profile(code_30_20)


@pytest.fixture(scope="session")
def prof_255_231(code_255_231):
    return auto_profile(code_255_231)


@pytest.fixture(scope="session")
def prof_254_230(code_254_230):
    return auto_profile(code_254_230)


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)
