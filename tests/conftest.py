import mpmath as mp
import numpy as np
import pytest

from rbeta.core import VerificationRecord

mp.mp.dps = 35


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def compare(pair, tol) -> VerificationRecord:
    """The record a suite builds from two routes ``pair`` at ``tol``."""
    return VerificationRecord.compare("", {}, *pair, tol)


def mpc(z) -> complex:
    return complex(z)


def mp_gamma(z: complex) -> complex:
    return complex(mp.gamma(mp.mpc(z.real, z.imag)))


def mp_dilog(z: complex) -> complex:
    return complex(mp.polylog(2, mp.mpc(z.real, z.imag)))
