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
    "PhysicalParams",
    "angular_from_hz",
    "convert_c6_atomic_units",
    "blockade_radius_simple",
    "blockade_radius_collective",
    "validate_time_grid",
    "MEMORY_LIMIT_BYTES",
    "require_memory",
]

# the one size limit: every benchmark input estimates under 50 MB, while a
# 20-atom full basis evolved over 60 times (about 1.27 GB of trajectory and
# Hamiltonian) is refused unenumerated
MEMORY_LIMIT_BYTES = 2**30


def angular_from_hz(f: float) -> float:
    """Convert an ordinary frequency in Hz to rad/s."""
    return TWO_PI * f


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

    The drive is resonant and undamped in every model.
    """

    omega0: float
    c6: float

    def __post_init__(self) -> None:
        # chained comparisons with inf also reject NaN
        _require(0.0 < self.omega0 < math.inf, "omega0 must be positive and finite")
        _require(0.0 < self.c6 < math.inf, "c6 must be positive and finite")
        # the blockade radii divide by hbar * omega0 and take roots of the ratio
        hbar_omega = HBAR * self.omega0
        _require(
            hbar_omega > 0.0 and 0.0 < self.c6 / hbar_omega < math.inf,
            f"c6 / (hbar omega0) must be positive and finite in float64, got "
            f"c6 = {self.c6!r} J m^6, omega0 = {self.omega0!r} rad/s",
        )

    @classmethod
    def from_hz(cls, omega0_hz: float, c6: float) -> "PhysicalParams":
        """Build from an ordinary frequency in Hz; c6 already in J m^6."""
        return cls(omega0=angular_from_hz(omega0_hz), c6=c6)


def blockade_radius_simple(params: PhysicalParams) -> float:
    """Distance at which the pair interaction equals the single-atom drive.

    r_b = (C6 / (hbar * omega0))**(1/6). Inside r_b a second
    excitation is shifted out of resonance by more than the linewidth of
    the drive, so a sphere of this radius hosts at most one excitation.
    """
    return (params.c6 / (HBAR * params.omega0)) ** (1.0 / 6.0)


def blockade_radius_collective(params: PhysicalParams, local_density):
    """Self-consistent blockade radius when the drive is collectively enhanced.

    The sqrt(N) enhancement of the Rabi frequency inside a blockade sphere
    enlarges the effective linewidth, which in turn grows the sphere. With
    N = n * (4pi/3) * r**3 the fixed point of

        C6 / r**6 = hbar * sqrt(N) * omega0

    has the closed form

        r = (C6 / (hbar*omega0))**(2/15) * (4pi*n/3)**(-1/15)

    Returns ``(radius, n_per)`` where ``n_per`` is the atom count of the
    resulting sphere at the given density: floats for a scalar density,
    arrays for an array of densities (every one must be positive).
    """
    local_density = np.asarray(local_density, dtype=float)
    _require(bool(np.all(local_density > 0.0)), "local density must be positive")
    x = params.c6 / (HBAR * params.omega0)
    with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN, refused below
        shell = 4.0 * math.pi / 3.0 * local_density
        radius = x ** (2.0 / 15.0) * shell ** (-1.0 / 15.0)
        n_per = local_density * (4.0 * math.pi / 3.0) * radius**3
    _require(
        bool(np.all(n_per < math.inf)),
        f"local density {np.max(local_density):.3g} m^-3 overflows float64 in 4 pi n / 3 or"
        f" in the atom count of its sphere at c6 / (hbar omega0) = {x:.3g} m^6",
    )
    if radius.ndim == 0:
        return float(radius), float(n_per)
    return radius, n_per
