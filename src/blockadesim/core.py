"""Driving and interaction parameters: Rabi algebra and blockade radii.

Unit conventions, applied everywhere in the package:

* Boundary values (constructor arguments ending in ``_hz``, config files,
  quoted experimental numbers) are ordinary frequencies in Hz, i.e. the
  omega/2pi a lab would report.
* Internal attributes and all formulas are angular frequencies in rad/s.
* The van der Waals coefficient is stored as a positive magnitude in
  J m^6; the interaction is treated as repulsive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import BOHR_RADIUS, HARTREE, HBAR, TWO_PI
from .errors import InvalidParameterError, SizeCapError

__all__ = [
    "TwoPhotonDrive",
    "PhysicalParams",
    "angular_from_hz",
    "hz_from_angular",
    "two_photon_rabi",
    "convert_c6_atomic_units",
    "blockade_radius_simple",
    "blockade_radius_collective",
    "validate_time_grid",
    "MEMORY_LIMIT_BYTES",
    "require_memory",
]

# the one size limit: every benchmark input estimates under 50 MB, while a
# 20-atom full basis (about 1.2 GB of Hamiltonian) is refused unenumerated
MEMORY_LIMIT_BYTES = 2**30


def angular_from_hz(f: float) -> float:
    """Convert an ordinary frequency in Hz to rad/s."""
    return TWO_PI * f


def hz_from_angular(omega: float) -> float:
    """Convert an angular frequency in rad/s to Hz."""
    return omega / TWO_PI


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise InvalidParameterError(message)


def require_memory(nbytes: float, what: str) -> None:
    """Raise SizeCapError unless ``nbytes``, the float estimate made before
    ``what`` allocates, fits MEMORY_LIMIT_BYTES; inf and NaN are refused."""
    if not nbytes <= MEMORY_LIMIT_BYTES:
        raise SizeCapError(
            f"{what} needs about {nbytes:.3g} bytes, over the memory cap of {MEMORY_LIMIT_BYTES}"
        )


def validate_time_grid(time_grid) -> np.ndarray:
    """Return the grid as a float array; it must be a non-empty, finite,
    strictly increasing 1-D sequence starting at or after 0."""
    t = np.asarray(time_grid, dtype=float)
    _require(t.ndim == 1 and t.size >= 1, "time grid must be a non-empty 1-D array")
    _require(bool(np.all(np.isfinite(t))), "time grid must be finite")
    _require(t[0] >= 0.0, "time grid must start at or after 0")
    _require(bool(np.all(np.diff(t) > 0.0)), "time grid must be strictly increasing")
    return t


@dataclass(frozen=True)
class TwoPhotonDrive:
    """Parameters of a two-step drive through a far-detuned intermediate level.

    Attributes are angular (rad/s): ``omega1`` and ``omega2`` are the single
    photon Rabi frequencies of the two legs, ``delta`` the detuning from the
    intermediate level. Use :meth:`from_hz` with lab values.
    """

    omega1: float
    omega2: float
    delta: float

    def __post_init__(self) -> None:
        _require(self.omega1 >= 0.0, "omega1 must be non-negative")
        _require(self.omega2 >= 0.0, "omega2 must be non-negative")
        _require(self.delta != 0.0, "intermediate-state detuning must be nonzero")

    @classmethod
    def from_hz(cls, omega1_hz: float, omega2_hz: float, delta_hz: float) -> "TwoPhotonDrive":
        return cls(
            omega1=angular_from_hz(omega1_hz),
            omega2=angular_from_hz(omega2_hz),
            delta=angular_from_hz(delta_hz),
        )


def two_photon_rabi(drive: TwoPhotonDrive) -> float:
    """Effective two-photon Rabi frequency omega1*omega2/(2*delta), in rad/s.

    Valid in the adiabatic-elimination regime delta >> omega1, omega2. The
    sign follows delta; magnitude is what matters downstream.
    """
    return drive.omega1 * drive.omega2 / (2.0 * drive.delta)


def convert_c6_atomic_units(c6_au: float) -> float:
    """Convert a van der Waals coefficient from atomic units to J m^6.

    One atomic unit of C6 is E_h * a_0^6. The sign of the input is dropped:
    the package models the repulsive case and stores magnitudes. Zero is
    rejected because a vanishing C6 makes the blockade radii meaningless
    (non-interacting problems set c6=0 on the Hamiltonian directly).
    """
    if c6_au == 0.0:
        raise InvalidParameterError("C6 must be nonzero")
    return abs(c6_au) * HARTREE * BOHR_RADIUS**6


@dataclass(frozen=True)
class PhysicalParams:
    """Drive and interaction parameters of a blockade problem.

    omega0
        Ground-Rydberg Rabi frequency of a single atom, rad/s.
    c6
        Van der Waals coefficient magnitude, J m^6.
    gamma_dephase
        Phenomenological damping rate of superatom oscillations, 1/s.
    kappa
        Dimensionless prefactor on the blockade radii (packing fudge
        factor; scales both radius formulas linearly). Default 1.
    """

    omega0: float
    c6: float
    gamma_dephase: float = 0.0
    kappa: float = 1.0

    def __post_init__(self) -> None:
        # chained comparisons with inf also reject NaN
        _require(0.0 < self.omega0 < math.inf, "omega0 must be positive and finite")
        _require(0.0 < self.c6 < math.inf, "c6 must be positive and finite")
        _require(
            0.0 <= self.gamma_dephase < math.inf,
            "gamma_dephase must be non-negative and finite",
        )
        _require(0.0 < self.kappa < math.inf, "kappa must be positive and finite")

    @classmethod
    def from_hz(
        cls,
        omega0_hz: float,
        c6: float,
        gamma_dephase: float = 0.0,
        kappa: float = 1.0,
    ) -> "PhysicalParams":
        """Build from an ordinary frequency in Hz; c6 already in J m^6."""
        return cls(
            omega0=angular_from_hz(omega0_hz),
            c6=c6,
            gamma_dephase=gamma_dephase,
            kappa=kappa,
        )


def blockade_radius_simple(params: PhysicalParams) -> float:
    """Distance at which the pair interaction equals the single-atom drive.

    r_b = kappa * (C6 / (hbar * omega0))**(1/6). Inside r_b a second
    excitation is shifted out of resonance by more than the linewidth of
    the drive, so a sphere of this radius hosts at most one excitation.
    """
    return params.kappa * (params.c6 / (HBAR * params.omega0)) ** (1.0 / 6.0)


def blockade_radius_collective(params: PhysicalParams, local_density):
    """Self-consistent blockade radius when the drive is collectively enhanced.

    The sqrt(N) enhancement of the Rabi frequency inside a blockade sphere
    enlarges the effective linewidth, which in turn grows the sphere. With
    N = n * (4pi/3) * r**3 the fixed point of

        C6 / r**6 = hbar * sqrt(N) * omega0

    has the closed form

        r = kappa * (C6 / (hbar*omega0))**(2/15) * (4pi*n/3)**(-1/15)

    Returns ``(radius, n_per)`` where ``n_per`` is the atom count of the
    resulting sphere at the given density: floats for a scalar density,
    arrays for an array of densities (every one must be positive). At
    kappa=1 the pair satisfies the fixed-point relation to machine
    precision; kappa scales the radius linearly on top of it.
    """
    local_density = np.asarray(local_density, dtype=float)
    _require(bool(np.all(local_density > 0.0)), "local density must be positive")
    x = params.c6 / (HBAR * params.omega0)
    shell = 4.0 * math.pi / 3.0 * local_density
    radius = params.kappa * x ** (2.0 / 15.0) * shell ** (-1.0 / 15.0)
    n_per = local_density * (4.0 * math.pi / 3.0) * radius**3
    if radius.ndim == 0:
        return float(radius), float(n_per)
    return radius, n_per
