import tracemalloc

import numpy as np
import pytest

from blockadesim.cloud import CloudSpec
from blockadesim.core import PhysicalParams, convert_c6_atomic_units

# Magnitude of a repulsive Rydberg-pair van der Waals coefficient, in
# atomic units, and the drive/cloud settings the strong-drive tests use.
C6_AU = 1.7e19
STRONG_DRIVE_HZ = 210e3
WEAK_DRIVE_HZ = 42e3

# Isotropic rms radius chosen so 1.5e7 atoms give a peak density of
# exactly 8.2e19 m^-3.
SIGMA_REF = 2.26465752498e-5
N_ATOMS_REF = 1.5e7


def traced_peak(call):
    """tracemalloc peak of call(), in bytes; an exception from call propagates."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="session")
def c6():
    return convert_c6_atomic_units(C6_AU)


@pytest.fixture(scope="session")
def strong_params(c6):
    return PhysicalParams.from_hz(STRONG_DRIVE_HZ, c6)


@pytest.fixture(scope="session")
def weak_params(c6):
    return PhysicalParams.from_hz(WEAK_DRIVE_HZ, c6)


@pytest.fixture(scope="session")
def reference_cloud():
    return CloudSpec.isotropic(N_ATOMS_REF, SIGMA_REF)


@pytest.fixture
def rng():
    return np.random.default_rng(20260825)
