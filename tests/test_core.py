"""Unit algebra, the C6 conversion and the two blockade radii.

Numeric targets marked "frozen" were computed with a 50-digit mpmath
implementation of the same formulas and are pinned here to guard against
silent regressions in unit handling.
"""

import math

import numpy as np
import scipy.optimize

import pytest
from hypothesis import given
from hypothesis import strategies as st

from blockadesim.constants import HBAR, TWO_PI
from blockadesim.core import (
    MEMORY_LIMIT_BYTES,
    PhysicalParams,
    angular_from_hz,
    blockade_radius_collective,
    blockade_radius_simple,
    convert_c6_atomic_units,
    require_memory,
)
from blockadesim.errors import InvalidParameterError, SizeCapError
from blockadesim.exact import (
    AtomPositions,
    build_hamiltonian,
    evolve,
    restricted_basis,
    rydberg_number,
)

from conftest import C6_AU, STRONG_DRIVE_HZ

positive_floats = st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False)


# --- frequency conversions ---------------------------------------------------


@given(positive_floats)
def test_angular_is_two_pi_times_hz(f):
    assert angular_from_hz(f) == pytest.approx(TWO_PI * f, rel=1e-15)


# --- C6 conversion ------------------------------------------------------------


def test_one_atomic_unit_of_c6():
    assert convert_c6_atomic_units(1.0) == pytest.approx(9.57343644227288e-80, rel=1e-12)


def test_reference_coefficient():
    assert convert_c6_atomic_units(C6_AU) == pytest.approx(1.6274841951863897e-60, rel=1e-12)


def test_attractive_sign_convention_dropped():
    assert convert_c6_atomic_units(-C6_AU) == convert_c6_atomic_units(C6_AU)


def test_zero_c6_rejected():
    with pytest.raises(InvalidParameterError):
        convert_c6_atomic_units(0.0)


# --- simple blockade radius ---------------------------------------------------


def test_simple_radius_strong_drive(strong_params):
    r = blockade_radius_simple(strong_params)
    assert r == pytest.approx(4.764385664851e-6, rel=1e-10)  # frozen
    assert 4e-6 < r < 6e-6  # the few-micron scale of the experiment


def test_simple_radius_drive_scaling(strong_params, c6):
    # omega0 * 64 shrinks the radius by exactly 2
    stronger = PhysicalParams(strong_params.omega0 * 64.0, c6)
    assert blockade_radius_simple(stronger) == pytest.approx(
        blockade_radius_simple(strong_params) / 2.0, rel=1e-12
    )


@given(positive_floats)
def test_simple_radius_c6_scaling(strong_params, k):
    scaled = PhysicalParams(strong_params.omega0, strong_params.c6 * k**6)
    assert blockade_radius_simple(scaled) == pytest.approx(
        k * blockade_radius_simple(strong_params), rel=1e-9
    )


# --- collective blockade radius ------------------------------------------------


def test_collective_radius_reference_conditions(strong_params):
    r, n_per = blockade_radius_collective(strong_params, 8.2e19)
    assert r == pytest.approx(2.36235609903192e-6, rel=1e-10)  # frozen
    assert n_per == pytest.approx(4528.33503859976, rel=1e-10)  # frozen


def test_collective_self_consistency(strong_params):
    r, n_per = blockade_radius_collective(strong_params, 8.2e19)
    lhs = strong_params.c6 / r**6
    rhs = HBAR * math.sqrt(n_per) * strong_params.omega0
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_collective_reduces_to_simple_at_single_atom(strong_params):
    # at the density that packs exactly one atom per simple sphere the
    # collective enhancement vanishes and both radii coincide
    r_simple = blockade_radius_simple(strong_params)
    density = 3.0 / (4.0 * math.pi * r_simple**3)
    r, n_per = blockade_radius_collective(strong_params, density)
    assert n_per == pytest.approx(1.0, rel=1e-12)
    assert r == pytest.approx(r_simple, rel=1e-12)


def test_collective_density_scaling(strong_params):
    r1, n1 = blockade_radius_collective(strong_params, 8.2e19)
    r2, n2 = blockade_radius_collective(strong_params, 2 * 8.2e19)
    assert r2 / r1 == pytest.approx(2.0 ** (-1.0 / 15.0), rel=1e-12)
    assert n2 / n1 == pytest.approx(2.0 ** (4.0 / 5.0), rel=1e-12)


def test_collective_rejects_nonpositive_density(strong_params):
    with pytest.raises(InvalidParameterError):
        blockade_radius_collective(strong_params, 0.0)
    with pytest.raises(InvalidParameterError):
        blockade_radius_collective(strong_params, np.array([8.2e19, 0.0, 1e18]))


def test_collective_accepts_density_arrays(strong_params):
    densities = np.array([8.2e19, 2.8e18, 1e15])
    radii, n_per = blockade_radius_collective(strong_params, densities)
    assert radii.shape == n_per.shape == (3,)
    for density, r, n in zip(densities, radii, n_per):
        r_one, n_one = blockade_radius_collective(strong_params, float(density))
        assert (r, n) == (pytest.approx(r_one, rel=1e-15), pytest.approx(n_one, rel=1e-15))


def test_collective_smaller_than_simple_in_dense_cloud(strong_params):
    # sqrt(N) broadening shrinks the sphere whenever it holds many atoms
    r, n_per = blockade_radius_collective(strong_params, 8.2e19)
    assert n_per > 1.0
    assert r < blockade_radius_simple(strong_params)


def test_collective_radius_collapses_the_exact_two_cluster_crossover(strong_params, rng):
    """Cross-layer oracle: two clusters of M atoms at d = x r_c(M), with
    r_c from blockade_radius_collective at the density whose n_per is M.
    The exact mean excitation over 200 collective periods rises from 1/2
    (one merged superatom) to 1 (two independent ones) on one curve in x.

    The spread over M = 1, 4, 16 at x = 0.5, 1.2 and 2.0 was at most 6e-5,
    0.018 and 1.2e-4 over twelve other seeds; 0.025 bounds all three. The
    ends stayed within 3.3e-4 of 1/2 and 1. An exponent of -1/6 in place of
    -1/12 puts M = 16 at x = 0.95 when x = 1.2: its mean falls to 0.68.
    """
    r_b = blockade_radius_simple(strong_params)
    xs = np.array([0.5, 0.85, 1.0, 1.2, 2.0])
    means = []
    for m in (1, 4, 16):
        # n_per is a power of the density, so its root in log density is
        # found by the same function the cloud partition calls
        log_density = scipy.optimize.brentq(
            lambda v: math.log(blockade_radius_collective(strong_params, math.exp(v))[1] / m),
            math.log(1e10), math.log(1e30), xtol=1e-14,
        )
        r_c, n_per = blockade_radius_collective(strong_params, math.exp(log_density))
        assert n_per == pytest.approx(m, rel=1e-12)
        # each cluster's rms radius is 0.02 r_b: every pair inside it is
        # blockaded and dropped by the restricted basis, which keeps (M + 1)**2 states
        offsets = rng.standard_normal((2 * m, 3)) * 0.02 * r_b / math.sqrt(3.0)
        period = TWO_PI / (math.sqrt(m) * strong_params.omega0)
        t = np.linspace(0.0, 200.0 * period, 4001)
        row = []
        for x in xs:
            coords = offsets + np.repeat([[0.0, 0.0, 0.0], [x * r_c, 0.0, 0.0]], m, axis=0)
            positions = AtomPositions(coords)
            basis = restricted_basis(positions, 0.3 * r_c)
            assert basis.n_states == (m + 1) ** 2
            h = build_hamiltonian(positions, basis, strong_params.omega0, strong_params.c6)
            row.append(rydberg_number(evolve(h, t)).mean())
        means.append(row)
    means = np.array(means)
    assert np.all(np.abs(means[:, 0] - 0.5) < 1e-3)
    assert np.all(np.abs(means[:, -1] - 1.0) < 1e-3)
    assert np.all(np.diff(means[:, 1:4], axis=1) > 0.0)
    collapse = means[:, [0, 3, 4]]
    assert np.all(collapse.max(axis=0) - collapse.min(axis=0) < 0.025)


# --- parameter validation ------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(omega0=0.0, c6=1e-60),
        dict(omega0=-1.0, c6=1e-60),
        dict(omega0=1e6, c6=0.0),
        dict(omega0=1e6, c6=math.nan),
        dict(omega0=math.inf, c6=1e-60),
        dict(omega0=math.nan, c6=1e-60),
        dict(omega0=1e6, c6=math.inf),
    ],
)
def test_physical_params_validation(kwargs):
    with pytest.raises(InvalidParameterError):
        PhysicalParams(**kwargs)


def test_from_hz_is_angular(c6):
    params = PhysicalParams.from_hz(STRONG_DRIVE_HZ, c6)
    assert params.omega0 == pytest.approx(TWO_PI * STRONG_DRIVE_HZ, rel=1e-15)


def test_require_memory_refuses_over_the_limit_and_non_finite_estimates():
    require_memory(float(MEMORY_LIMIT_BYTES), "at the limit")
    for nbytes in (MEMORY_LIMIT_BYTES + 1.0, math.inf, math.nan):
        with pytest.raises(SizeCapError, match="memory cap"):
            require_memory(nbytes, "a step")
