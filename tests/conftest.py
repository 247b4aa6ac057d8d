import contextlib
import dataclasses
import tracemalloc

import numpy as np
import pytest

import blockadesim.exact
from blockadesim import errors
from blockadesim.cloud import CloudSpec, SuperatomEnsemble, peak_density
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


def density_at(spec, point):
    """The cloud's density n0 exp(-sum_i (x_i / sigma_i)**2 / 2), in m^-3, at
    one point (shape (3,)) or many (shape (..., 3)): the oracle that the
    partition's cell sizes are checked against."""
    point = np.asarray(point, dtype=float)
    assert point.shape[-1] == 3
    exponent = -0.5 * ((point / np.array(spec.sigma)) ** 2).sum(axis=-1)
    value = peak_density(spec) * np.exp(exponent)
    return float(value) if value.ndim == 0 else value


def entry_ensemble(n_per, weight, centers=None):
    """A SuperatomEnsemble built from per-entry sizes: each entry its own
    class, so its size table is as long as its entries. ``centers``
    defaults to the origin for every entry."""
    n_per = np.asarray(n_per, dtype=float)
    centers = np.zeros((n_per.size, 3)) if centers is None else np.asarray(centers, dtype=float)
    weight = np.asarray(weight, dtype=float)
    return SuperatomEnsemble(
        n_per, np.arange(n_per.size), weight, lambda: [*centers.T, n_per, weight]
    )


def gathered_columns(ensemble):
    """The ensemble's ensemble.csv columns as plain arrays, each coded pair
    (table, codes) gathered as table[codes]."""
    return [
        column[0][column[1]] if isinstance(column, tuple) else np.asarray(column)
        for column in ensemble.columns()
    ]


def cell_centers(ensemble):
    """Each entry's (x, y, z) cell centre, shape (len, 3), gathered from
    the ensemble's coded ensemble.csv columns."""
    return np.column_stack(gathered_columns(ensemble)[:3])


def gaussian_atoms(seed, count, sigma):
    """A positions file's text: ``count`` atoms of a Gaussian cloud of rms
    radius ``sigma``, drawn by README's recipe and written by repr."""
    coords = np.random.default_rng(seed).standard_normal((count, 3)) * sigma
    return "".join(" ".join(map(repr, row)) + "\n" for row in coords.tolist())


def package_errors():
    """Every BlockadeSimError subclass that errors.py defines, by name."""
    return sorted(
        (value for value in vars(errors).values()
         if isinstance(value, type) and issubclass(value, errors.BlockadeSimError)
         and value is not errors.BlockadeSimError),
        key=lambda error: error.__name__,
    )


@pytest.fixture
def force_chebyshev(monkeypatch):
    """``with force_chebyshev():`` makes evolve() plan the Chebyshev
    expansion, whatever route the cost rule picks; the exact CLI summary
    reports the plan evolve() ran."""
    plan = blockadesim.exact.plan_propagation

    def chebyshev(hamiltonian, time_grid):
        return dataclasses.replace(plan(hamiltonian, time_grid), route="chebyshev")

    @contextlib.contextmanager
    def forced():
        with monkeypatch.context() as patch:
            patch.setattr(blockadesim.exact, "plan_propagation", chebyshev)
            yield

    return forced


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
