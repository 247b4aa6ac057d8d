"""Unit algebra, two-photon reduction and the two blockade radii.

Numeric targets marked "frozen" were computed with a 50-digit mpmath
implementation of the same formulas and are pinned here to guard against
silent regressions in unit handling.
"""

import math

import numpy as np

import pytest
from hypothesis import given
from hypothesis import strategies as st

from blockadesim.constants import HBAR, TWO_PI
from blockadesim.core import (
    MEMORY_LIMIT_BYTES,
    PhysicalParams,
    TwoPhotonDrive,
    angular_from_hz,
    blockade_radius_collective,
    blockade_radius_simple,
    convert_c6_atomic_units,
    hz_from_angular,
    require_memory,
    two_photon_rabi,
)
from blockadesim.errors import InvalidParameterError, SizeCapError

from conftest import C6_AU, STRONG_DRIVE_HZ

positive_floats = st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False)


# --- frequency conversions ---------------------------------------------------


def test_hz_round_trip():
    assert hz_from_angular(angular_from_hz(210e3)) == pytest.approx(210e3, rel=1e-15)


@given(positive_floats)
def test_angular_is_two_pi_times_hz(f):
    assert angular_from_hz(f) == pytest.approx(TWO_PI * f, rel=1e-15)


# --- two-photon Rabi frequency ----------------------------------------------


def test_strong_drive_reduction():
    # 9.7 MHz and 21 MHz legs, 478 MHz detuned: frozen 213075.3138... Hz,
    # which is the quoted 210 kHz within rounding.
    drive = TwoPhotonDrive.from_hz(9.7e6, 21e6, 478e6)
    f0 = hz_from_angular(two_photon_rabi(drive))
    assert f0 == pytest.approx(213075.31380753138, rel=1e-12)
    assert f0 == pytest.approx(210e3, rel=0.02)


def test_weak_drive_reduction():
    drive = TwoPhotonDrive.from_hz(2.0e6, 21e6, 478e6)
    f0 = hz_from_angular(two_photon_rabi(drive))
    assert f0 == pytest.approx(43933.05439330544, rel=1e-12)
    assert f0 == pytest.approx(42e3, rel=0.05)


def test_zero_leg_gives_zero_drive():
    assert two_photon_rabi(TwoPhotonDrive.from_hz(0.0, 21e6, 478e6)) == 0.0


def test_zero_detuning_rejected():
    with pytest.raises(InvalidParameterError):
        TwoPhotonDrive.from_hz(9.7e6, 21e6, 0.0)


def test_negative_leg_rejected():
    with pytest.raises(InvalidParameterError):
        TwoPhotonDrive.from_hz(-9.7e6, 21e6, 478e6)


@given(positive_floats)
def test_two_photon_bilinear_in_first_leg(k):
    base = two_photon_rabi(TwoPhotonDrive.from_hz(3e6, 21e6, 478e6))
    scaled = two_photon_rabi(TwoPhotonDrive.from_hz(3e6 * k, 21e6, 478e6))
    assert scaled == pytest.approx(k * base, rel=1e-12)


@given(positive_floats)
def test_two_photon_inverse_in_detuning(k):
    base = two_photon_rabi(TwoPhotonDrive.from_hz(3e6, 21e6, 478e6))
    scaled = two_photon_rabi(TwoPhotonDrive.from_hz(3e6, 21e6, 478e6 * k))
    assert scaled == pytest.approx(base / k, rel=1e-12)


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


def test_kappa_scales_radii_linearly(strong_params, c6):
    fudged = PhysicalParams(strong_params.omega0, c6, kappa=1.3)
    assert blockade_radius_simple(fudged) == pytest.approx(
        1.3 * blockade_radius_simple(strong_params), rel=1e-12
    )
    r0, _ = blockade_radius_collective(strong_params, 8.2e19)
    r1, _ = blockade_radius_collective(fudged, 8.2e19)
    assert r1 == pytest.approx(1.3 * r0, rel=1e-12)


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


# --- parameter validation ------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(omega0=0.0, c6=1e-60),
        dict(omega0=-1.0, c6=1e-60),
        dict(omega0=1e6, c6=0.0),
        dict(omega0=1e6, c6=1e-60, gamma_dephase=-1.0),
        dict(omega0=1e6, c6=1e-60, kappa=0.0),
        dict(omega0=math.inf, c6=1e-60),
        dict(omega0=math.nan, c6=1e-60),
        dict(omega0=1e6, c6=math.inf),
        dict(omega0=1e6, c6=1e-60, gamma_dephase=math.inf),
        dict(omega0=1e6, c6=1e-60, kappa=math.inf),
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
