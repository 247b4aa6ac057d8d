"""Exact quantum dynamics of a handful of interacting two-level atoms.

Each atom is a ground/excited two-level system at a fixed position (frozen
gas: no motion during the pulse). Basis states are bitmasks over atoms,
bit i set meaning atom i excited. The Hamiltonian, in units of rad/s
(i.e. H/hbar throughout), is

    H = (omega0/2) * sum_i x_i  +  sum_{i<j} (c6 / (hbar * r_ij**6)) * n_i * n_j

with x_i the bit-flip (Pauli x) on atom i and n_i the excitation number:
the drive is resonant, as in the superatom model.

Two basis choices are supported: the full 2**M product basis, and a
restricted basis keeping only configurations with no two excited atoms
closer than a given radius (the independent sets of the proximity graph).
The restriction is what makes clusters of ~20 fully blockaded atoms
tractable: a mutually blockaded cluster needs only M+1 states.

H is real and symmetric. evolve() propagates the ground state (no atom
excited, basis index 0), where every run starts, to every time of a grid
at once, by one Chebyshev expansion of exp(-i H t) in the sparse matrix
or, for stiff clusters whose expansion would need too many terms, by one
dense eigendecomposition; plan_propagation() picks the cheaper. Both
routes sum in real arithmetic, the real and imaginary parts of each time
in a pair of rows, interleaved in place at the end into the complex
trajectory: a QuantumState of one state per time. The observables give
one value per time.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .constants import HBAR
from .core import require_memory, validate_time_grid
from .errors import InputFileError, InvalidParameterError, SizeCapError, read_lines

# scipy is imported inside the three functions that use it, so importing
# this module, and the cloud, scaling and fit commands with it, loads numpy only
if TYPE_CHECKING:
    import scipy.sparse

__all__ = [
    "AtomPositions",
    "Basis",
    "Hamiltonian",
    "QuantumState",
    "full_basis",
    "restricted_basis",
    "build_hamiltonian",
    "PropagationPlan",
    "plan_propagation",
    "evolve",
    "rydberg_number",
    "w_state_fidelity",
    "MAX_ATOMS",
]

MAX_ATOMS = 63  # bit i of an int64 bitmask is atom i

# basis plus build_hamiltonian() peaked at 24 and 29 B per nonzero on the
# benchmark's 14-atom full and 20-atom restricted bases (tracemalloc); 56
# still refuses a 20-atom full basis unenumerated, as core's limit states
_BUILD_BYTES_PER_NONZERO = 56.0
# states per block of the pair-shift sum in build_hamiltonian()
_DIAGONAL_ROWS = 1024

# the Chebyshev series is cut where its Bessel coefficients fall below
# unit roundoff; its real vectors are summed into the trajectory's
# (Re, Im) rows _BLOCK at a time, and its coefficients transformed
# _COEFFICIENT_ROWS times at a time
_UNIT_ROUNDOFF = 2.0**-53
# every row of a trajectory is checked to have norm 1 within this, and
# evolve() refuses phases less accurate than it
_NORM_TOLERANCE = 1e-6
_MAX_TERMS = 2**30
_BLOCK = 16
_COEFFICIENT_ROWS = 16


@dataclass(frozen=True)
class AtomPositions:
    """Fixed atom coordinates in meters, shape (M, 3)."""

    coords: np.ndarray

    def __post_init__(self) -> None:
        coords = np.array(self.coords, dtype=float)
        if coords.ndim != 2 or coords.shape[1] != 3 or coords.shape[0] < 1:
            raise InvalidParameterError(
                f"positions must have shape (M, 3) with M >= 1, got {coords.shape}"
            )
        if not np.all(np.isfinite(coords)):
            raise InvalidParameterError("positions must be finite")
        # no pair's squared distance exceeds the sum of the squared per-axis
        # spans; Python floats overflow to inf without a warning
        spans = [float(hi) - float(lo) for lo, hi in zip(coords.min(axis=0), coords.max(axis=0))]
        if not sum(span * span for span in spans) < np.inf:
            raise InvalidParameterError(
                "positions spread over {:.3g}, {:.3g} and {:.3g} m per axis: their "
                "squared distances overflow float64".format(*spans)
            )
        # zero distance means identical rows, so a sort finds it in
        # M log M instead of an M x M distance matrix
        order = np.lexsort(coords.T)
        same = np.all(coords[order[1:]] == coords[order[:-1]], axis=1)
        if np.any(same):
            k = int(np.flatnonzero(same)[0])
            i, j = sorted((int(order[k]), int(order[k + 1])))
            raise InvalidParameterError(f"atoms {i} and {j} are coincident")
        coords.setflags(write=False)
        object.__setattr__(self, "coords", coords)

    def __len__(self) -> int:
        return self.coords.shape[0]

    def pairwise_distances(self) -> np.ndarray:
        diff = self.coords[:, None, :] - self.coords[None, :, :]
        return np.sqrt((diff**2).sum(axis=-1))

    @classmethod
    def from_text(cls, path: str) -> "AtomPositions":
        """Parse a whitespace-separated positions file.

        One atom per line, three coordinates in meters. Blank lines and
        text after ``#`` are ignored. Malformed lines raise InputFileError
        citing the line number. The file is read a line at a time, and
        SizeCapError refuses the first atom past MAX_ATOMS unread beyond it.
        """
        rows = []
        for lineno, raw in enumerate(read_lines(path, InputFileError), start=1):
            text = raw.split("#", 1)[0].strip()
            if not text:
                continue
            if len(rows) == MAX_ATOMS:
                raise SizeCapError(
                    f"{path}, line {lineno}: atom {MAX_ATOMS + 1} exceeds the int64 "
                    f"bitmask cap of {MAX_ATOMS}"
                )
            parts = text.split()
            if len(parts) != 3:
                raise InputFileError(
                    f"{path}, line {lineno}: expected 3 coordinates, got {len(parts)}"
                )
            try:
                rows.append([float(p) for p in parts])
            except ValueError as exc:
                raise InputFileError(f"{path}, line {lineno}: {exc}") from exc
        if not rows:
            raise InputFileError(f"{path}: no atom positions found")
        try:
            return cls(np.array(rows))
        except InvalidParameterError as exc:
            raise InputFileError(f"{path}: {exc}") from exc


class Basis:
    """An ordered set of bitmask states over ``n_atoms`` atoms.

    States are int64 bitmasks in ascending numeric order, so index 0 is
    always the vacuum; with no restriction radius the basis is full.
    ``parents[k]`` is the index of state k with its highest excited atom
    de-excited (-1 for the vacuum): the flip that made k. Immutable by
    convention.
    """

    def __init__(
        self,
        n_atoms: int,
        states: np.ndarray,
        parents: np.ndarray,
        restriction_radius: float | None = None,
    ):
        self.n_atoms = n_atoms
        self.states = np.asarray(states, dtype=np.int64)
        self.parents = np.asarray(parents, dtype=np.int32)
        self.restriction_radius = restriction_radius
        self.popcounts = np.bitwise_count(self.states).astype(np.float64)
        self.singles = np.flatnonzero(self.popcounts == 1)

    @property
    def kind(self) -> str:
        return "full" if self.restriction_radius is None else "restricted"

    @property
    def n_states(self) -> int:
        return self.states.shape[0]

    def __repr__(self) -> str:
        return f"Basis(kind={self.kind!r}, n_atoms={self.n_atoms}, n_states={self.n_states})"


def _require_basis_memory(n_states: float, n_atoms: int) -> None:
    """SizeCapError past MAX_ATOMS, or if the Hamiltonian of the states, at
    n_atoms + 1 nonzeros each, would exceed the memory limit."""
    if n_atoms > MAX_ATOMS:
        raise SizeCapError(f"{n_atoms} atoms exceed the int64 bitmask cap of {MAX_ATOMS}")
    nbytes = n_states * (n_atoms + 1) * _BUILD_BYTES_PER_NONZERO
    require_memory(nbytes, f"a basis of {n_states:.3g} states over {n_atoms} atoms")


def full_basis(n_atoms: int) -> Basis:
    """All 2**M product states, ascending; checked before enumerating."""
    if n_atoms < 1:
        raise InvalidParameterError("need at least one atom")
    _require_basis_memory(1.0, n_atoms)  # the atom cap, before 2.0**M overflows
    _require_basis_memory(2.0**n_atoms, n_atoms)
    parents = np.concatenate([[-1], *(np.arange(2**i) for i in range(n_atoms))])
    return Basis(n_atoms, np.arange(2**n_atoms, dtype=np.int64), parents)


def restricted_basis(positions: AtomPositions, radius: float) -> Basis:
    """States with no two excited atoms closer than ``radius``.

    Pairs at separation strictly below the radius are treated as
    blockaded; a radius below the minimum pairwise distance therefore
    reproduces the full basis. One ascending sweep adds atom i to each state
    that excites none of its partners below i, checking each step first,
    and records each new state's parent.
    """
    if not radius >= 0.0:  # a NaN radius would blockade no pair
        raise InvalidParameterError(
            f"restriction radius must be non-negative, got {radius}"
        )
    m = len(positions)
    _require_basis_memory(1.0, m)  # the atom cap, before the M x M distances
    close = positions.pairwise_distances() < radius
    states = np.zeros(1, dtype=np.int64)
    parents = np.full(1, -1, dtype=np.int32)
    for i in range(m):
        partners = sum(1 << int(j) for j in np.flatnonzero(close[i, :i]))
        free = np.flatnonzero((states & partners) == 0)
        _require_basis_memory(float(states.size + free.size), m)
        states = np.concatenate([states, states[free] | (1 << i)])
        parents = np.concatenate([parents, free.astype(np.int32)])
    return Basis(m, states, parents, radius)


class Hamiltonian:
    """Sparse symmetric Hamiltonian over a basis, in rad/s."""

    def __init__(self, basis: Basis, matrix: scipy.sparse.csr_matrix):
        self.basis = basis
        self.matrix = matrix

    @property
    def dim(self) -> int:
        return self.basis.n_states

    @functools.cached_property
    def scales(self) -> tuple[float, float, float]:
        """(low, high, coupling), computed once and held as three floats:
        the spectrum lies in [low, high] (Gershgorin's discs), and coupling
        is the smallest stored off-diagonal |H_ij| (inf if there is none)."""
        magnitude = abs(self.matrix)
        diag = self.matrix.diagonal()
        radii = np.asarray(magnitude.sum(axis=1)).ravel() - np.abs(diag)
        low, high = float((diag - radii).min()), float((diag + radii).max())
        rows = np.repeat(
            np.arange(self.dim, dtype=magnitude.indices.dtype), np.diff(magnitude.indptr)
        )
        np.copyto(magnitude.data, np.inf, where=magnitude.indices == rows)
        return low, high, float(np.min(magnitude.data, initial=np.inf))


def _pair_shifts(positions: AtomPositions, c6: float, states: np.ndarray) -> np.ndarray:
    """sum_{i<j} c6 / (hbar r_ij**6) n_i n_j of each state: half of
    occ . shifts . occ, over (_DIAGONAL_ROWS, M) blocks of occupations.
    InvalidParameterError if any state's shift overflows float64."""
    dist = positions.pairwise_distances()
    np.fill_diagonal(dist, np.inf)
    bits = np.arange(len(positions))
    total = np.empty(states.shape)
    # an overflowing shift or sum ends as inf or NaN, refused below
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        shifts = c6 / (HBAR * dist**6)  # zero on the diagonal
        for start in range(0, states.size, _DIAGONAL_ROWS):
            block = slice(start, start + _DIAGONAL_ROWS)
            occ = ((states[block, None] >> bits) & 1).astype(np.float64)
            total[block] = 0.5 * np.einsum("si,si->s", occ @ shifts, occ)
    if not np.all(np.isfinite(total)):
        raise InvalidParameterError(
            f"pair shifts of c6 = {c6:.3g} J m^6 at {dist.min():.3g} m overflow float64"
        )
    return total


def _flip_pattern(basis: Basis) -> tuple[np.ndarray, np.ndarray]:
    """int32 (indices, indptr) of the canonical CSR pattern that joins each
    state to itself and to the states one flip away, found with no search.

    Row k of a (D, 2M + 1) table holds, ascending, k with atom j de-excited
    (column M - 1 - j), k itself (column M) and k with atom j excited
    (column M + 1 + j), or -1 where that state is not in the basis. Atom
    i's states, from its single excitation to atom i + 1's, are their
    parents plus atom i, so each takes its parent's row mapped to those
    states plus atom i: -1 where atom i's partners blockade one (never a
    lower partner: a subset of an independent set is independent).
    """
    m, dim = basis.n_atoms, basis.n_states
    table = np.full((dim, 2 * m + 1), -1, dtype=np.int32)
    table[0, m] = 0
    ends = np.append(basis.singles[1:], dim).tolist()
    for i, (start, stop) in enumerate(zip(basis.singles.tolist(), ends)):
        parents = basis.parents[start:stop]
        children = np.arange(start, stop, dtype=np.int32)
        # state -> state plus atom i; the last slot maps a missing -1 to -1
        extend = np.full(start + 1, -1, dtype=np.int32)
        extend[parents] = children
        table[start:stop, m - 1 - i] = parents
        table[start:stop, m - i:m + 1 + i] = extend[table[parents, m - i:m + 1 + i]]
        table[parents, m + 1 + i] = children
    keep = table >= 0
    indptr = np.zeros(dim + 1, dtype=np.int32)
    np.cumsum(np.count_nonzero(keep, axis=1), out=indptr[1:])
    return np.compress(keep.ravel(), table), indptr


def build_hamiltonian(
    positions: AtomPositions, basis: Basis, omega0: float, c6: float
) -> Hamiltonian:
    """Assemble the CSR matrix of the blockade Hamiltonian on ``basis``.

    Angular units (rad/s). Diagonal: c6/(hbar r**6) per excited pair.
    Off-diagonal: omega0/2 between states differing by one flip, kept
    only if both states are in the basis.
    c6 may be zero here (non-interacting reference); the blockade radii in
    :mod:`blockadesim.core` are the only places a zero C6 is meaningless.
    """
    # chained comparisons with inf also reject NaN
    if not 0.0 < omega0 < np.inf:
        raise InvalidParameterError("omega0 must be positive and finite")
    if not 0.0 <= c6 < np.inf:
        raise InvalidParameterError("c6 must be non-negative and finite")
    if basis.n_atoms != len(positions):
        raise InvalidParameterError(
            f"basis over {basis.n_atoms} atoms, geometry has {len(positions)}"
        )
    import scipy.sparse

    indices, indptr = _flip_pattern(basis)
    diag = _pair_shifts(positions, c6, basis.states) if c6 > 0.0 else np.zeros(basis.n_states)
    data = np.full(indices.size, omega0 / 2.0)
    # row k's diagonal follows its popcount(k) lower partners
    data[indptr[:-1] + basis.popcounts.astype(np.intp)] = diag
    matrix = scipy.sparse.csr_matrix((data, indices, indptr), shape=(basis.n_states,) * 2)
    return Hamiltonian(basis, matrix)


@dataclass
class QuantumState:
    """A trajectory over a basis: complex amplitudes of shape (T, D), one
    state per row, each of norm 1 within _NORM_TOLERANCE, and the
    PropagationPlan that evolve() ran (None for a state built directly)."""

    amplitudes: np.ndarray
    basis: Basis
    plan: PropagationPlan | None = None

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.ndim != 2 or amps.shape[1] != self.basis.n_states:
            raise InvalidParameterError(
                f"{amps.shape} amplitudes for a basis of {self.basis.n_states} states"
            )
        self.amplitudes = amps
        norms = self.norm()
        bad = np.flatnonzero(~(np.abs(norms - 1.0) <= _NORM_TOLERANCE))  # NaN fails too
        if bad.size:
            raise InvalidParameterError(f"state norm {norms[bad[0]]} in row {bad[0]} is not 1")

    def norm(self) -> np.ndarray:
        """The (T,) norms of the rows."""
        return np.sqrt(_sum_abs2(self.amplitudes))


def _sum_abs2(amps: np.ndarray, *weights: np.ndarray):
    """sum_i |amps_i|**2 * weights_i over the last axis.

    einsum over the real and imaginary views allocates nothing the size of
    ``amps``; abs(amps)**2 would allocate a float copy of a whole trajectory.
    """
    spec = "...i,...i" + ",i" * len(weights) + "->..."
    return sum(np.einsum(spec, part, part, *weights) for part in (amps.real, amps.imag))


@dataclass(frozen=True)
class PropagationPlan:
    """How evolve() propagates one Hamiltonian over one time grid.

    The spectrum of H lies in [center - half_width, center + half_width]
    (Gershgorin's discs); ``terms`` is the number N of Chebyshev terms that
    serve every grid time.
    """

    route: str
    center: float
    half_width: float
    terms: int


def _chebyshev_terms(x: float) -> int:
    """The first order n > x at which |J_n(x)| falls below _UNIT_ROUNDOFF.

    Past n = x the Bessel functions fall monotonically and faster than
    geometrically, so every neglected term is smaller still. The search
    walks windows about as wide as the x**(1/3) transition region. From
    _MAX_TERMS on, no coefficient table fits the memory limit, so that
    lower bound is returned unsearched.
    """
    if not x < _MAX_TERMS:  # NaN and inf too
        return _MAX_TERMS
    import scipy.special

    width = 16 + int(12.0 * np.cbrt(x))
    low = int(x) + 1
    while True:
        orders = np.arange(low, low + width)
        small = np.flatnonzero(np.abs(scipy.special.jv(orders, x)) < _UNIT_ROUNDOFF)
        if small.size:
            return int(orders[small[0]])
        low += width


def _order_bound(x):
    """x + 12 x**(1/3) + 16, at or past _chebyshev_terms(x): the orders the
    expansion needs at a t = x. The tests pin the bound for x up to 2e5."""
    return x + 12.0 * np.cbrt(x) + 16.0


def plan_propagation(hamiltonian: Hamiltonian, time_grid) -> PropagationPlan:
    """Choose dense diagonalisation or one Chebyshev expansion by their cost.

    The expansion's coefficients are J_n(half_width * t); its N terms stop
    at the first n > half_width * t_max with |J_n(half_width * t_max)| <
    2**-53, which bounds every grid time. It costs N sparse products of nnz
    each plus at most T x N x D sums into the trajectory (each time takes
    only the orders below its own cut); dense ``eigh`` about dim**3, and it
    is taken whenever it is the cheaper. Only evolve()'s
    memory check bounds either route: a stiff basis too large for dense is
    refused, not expanded to millions of terms (the restricted basis drops
    the stiff states).
    """
    t = validate_time_grid(time_grid)
    low, high, _ = hamiltonian.scales
    center, half_width = (high + low) / 2.0, (high - low) / 2.0
    terms = _chebyshev_terms(half_width * t[-1])
    dim = float(hamiltonian.dim)
    cost = terms * (float(hamiltonian.matrix.nnz) + t.size * dim)
    route = "dense" if cost >= dim**3 else "chebyshev"
    return PropagationPlan(route, center, half_width, terms)


def _chebyshev_coefficients(plan: PropagationPlan, t: np.ndarray) -> np.ndarray:
    """(2T, N) real table: rows 2k and 2k + 1 hold the real and imaginary
    parts of exp(-i b t_k) (2 - delta_n0) (-i)**n J_n(a t_k).

    These are the cosine coefficients of exp(-i a t cos(theta)), read off
    the FFT of its 2N samples; the aliased orders 2N - n are past N and so
    below the cut. Times are sampled and transformed in place in one
    (_COEFFICIENT_ROWS, 2N) complex buffer, whose rows are then split
    into the table's row pairs.
    """
    n = plan.terms
    cosines = np.cos(np.pi * np.arange(2 * n) / n)
    coef = np.empty((2 * t.size, n))
    samples = np.empty((min(_COEFFICIENT_ROWS, t.size), 2 * n), dtype=np.complex128)
    for k in range(0, t.size, _COEFFICIENT_ROWS):
        times = t[k:k + _COEFFICIENT_ROWS]
        block = samples[:times.size]
        np.multiply.outer(-1j * plan.half_width * times, cosines, out=block)
        np.exp(block, out=block)
        np.fft.fft(block, axis=1, out=block)
        block = block[:, :n]
        block[:, 0] /= 2.0
        block *= (np.exp(-1j * plan.center * times) / n)[:, None]
        pairs = coef[2 * k:2 * (k + times.size)].reshape(times.size, 2, n)
        pairs[:, 0] = block.real
        pairs[:, 1] = block.imag
    return coef


def _chebyshev_vectors(matrix, plan: PropagationPlan, psi: np.ndarray):
    """Yield T_n((H - center) / half_width) psi for n = 0, 1, ...; the
    vector of order n costs the n-th sparse product."""
    b, a = plan.center, plan.half_width
    yield psi
    previous, current = psi, (matrix @ psi - b * psi) / a
    while True:
        yield current
        following = matrix @ current
        following -= b * current
        following *= 2.0 / a
        following -= previous
        previous, current = current, following


def evolve(hamiltonian: Hamiltonian, time_grid) -> QuantumState:
    """Propagate the ground state psi (basis index 0) under exp(-i H t) to
    every grid time.

    plan_propagation() picks the route. On the dense route a single
    eigendecomposition evaluates all times at once. On the Chebyshev route
    (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967 (1984)),

        exp(-i H t) psi = exp(-i b t) sum_n (2 - delta_n0) (-i)**n
                          J_n(a t) T_n((H - b) / a) psi,

    with [b - a, b + a] the Gershgorin bounds of the spectrum. The vectors
    T_n(.) psi are real and do not depend on t, so one three-term recurrence
    serves every grid time. Blocks of _BLOCK of them are summed by one real
    matrix product into a (2T, D) array whose rows 2k and 2k + 1 hold the
    real and imaginary parts of the state at t_k, and only into the rows of
    the times that need the block: t_k takes the orders below
    _order_bound(a t_k), past which every |J_n(a t_k)| < 2**-53. The dense
    route fills the same rows with cos and sin of -w t_k times psi's
    eigencomponents, in one real product with the eigenvectors. Either
    array is then interleaved in place into the complex trajectory. Both
    routes are exact to rounding: refining the grid does not change the
    values at common times (beyond 1e-8), and the norm drifts by less than
    1e-9 over a collective period.

    Returns one QuantumState whose amplitudes have shape
    (len(time_grid), n_states), row k being the state at time_grid[k];
    every row is checked to have norm 1 within 1e-6, and ``plan`` is the plan that ran.

    SizeCapError refuses, before propagating, a run whose result, Hamiltonian
    and working set (dense: eigh's arrays, about 25 D**2 bytes; Chebyshev:
    the (2T, N) coefficient table) exceed the memory limit (dense: ~6,400
    states at 200 times).

    InvalidParameterError refuses, also before propagating, a Hamiltonian
    whose smallest coupling |H_ij| (i != j) is below u = 2**-53 times its
    spectral width w = high - low. eigh returns the exact eigenpairs of
    some H + E with ||E||_2 <= p(n) u ||H||_2 (LAPACK's backward error,
    p(n) >= 1), and ||H||_2 >= w / 2, so E may reach u w / 2: the size of
    such a coupling. The Chebyshev route, which scales H by w / 2, rounds
    it away alike. Two atoms 1 nm apart give w = 1.6e28 rad/s, an eigh
    error of about 1e12 rad/s and a coupling of pi * 1e6 rad/s at 1 MHz,
    and eigh then returned no excitation at any time.

    InvalidParameterError also refuses a grid whose last time t_max gives
    u a t_max > _NORM_TOLERANCE, with a = w / 2 the Gershgorin half-width.
    Every eigencomponent's phase then carries an error of at least
    u a t_max radians: the rounding of the phase argument itself on either
    route, and on the dense route eigh's backward error of about u a in
    each eigenvalue. A wrong phase keeps every norm, so the rows' norm
    check cannot see it; this bound holds the phases to that same
    tolerance. Two atoms 6 um apart at 210 kHz have a = 1.5e6 rad/s; at
    t_max = 1e12 s (u a t_max = 165 rad) their propagated excitation
    reads up to 1.85, which is noise.
    """
    t = validate_time_grid(time_grid)
    low, high, coupling = hamiltonian.scales
    if not coupling >= _UNIT_ROUNDOFF * (high - low):  # NaN bounds too
        raise InvalidParameterError(
            f"coupling {coupling:.3g} rad/s is below float64 rounding of the "
            f"spectral width {high - low:.3g} rad/s"
        )
    plan = plan_propagation(hamiltonian, t)
    phase_error = _UNIT_ROUNDOFF * plan.half_width * t[-1]
    if not phase_error <= _NORM_TOLERANCE:
        raise InvalidParameterError(
            f"the time grid ends at {t[-1]:.3g} s, where float64 phases of the spectral "
            f"half-width {plan.half_width:.3g} rad/s err by {phase_error:.3g} rad, "
            f"over {_NORM_TOLERANCE:g}"
        )

    dim, nnz, n_t = float(hamiltonian.dim), float(hamiltonian.matrix.nnz), t.size
    dense = plan.route == "dense"
    if dense:  # eigh's arrays (H, its copy and u) peaked at 24-25.3 B per
        # element, plus 256 B per state of workspace; then u and the (Re, Im) rows
        working = dim * (25.0 * dim + 16.0 * n_t + 256.0)
    else:  # the table and its complex FFT rows; the gathered vectors and a
        # copy of their coefficients; four recurrence and two interleave vectors
        working = (16.0 * plan.terms * (n_t + 2 * _COEFFICIENT_ROWS)
                   + 8.0 * _BLOCK * (dim + 2 * n_t) + 48.0 * dim)
    require_memory(16.0 * n_t * dim + 12.0 * nnz + working, f"{n_t} times of {dim:.0f} states")
    import scipy.linalg
    import scipy.linalg.blas

    if dense:
        w, u = scipy.linalg.eigh(hamiltonian.matrix.toarray())
        # psi's eigencomponents u^T psi are u's first row; rows 2k and 2k + 1
        # hold cos and sin of -w t_k, the parts of exp(-i w t_k), times them
        parts = np.empty((2 * n_t, hamiltonian.dim))
        angles = np.multiply.outer(-t, w, out=parts[0::2])
        np.sin(angles, out=parts[1::2])
        np.cos(angles, out=angles)
        parts *= u[0]
        return QuantumState(_interleave(parts @ u.T), hamiltonian.basis, plan)

    coef = _chebyshev_coefficients(plan, t)
    # time t_k needs the orders below _order_bound(a t_k); times ascend, so
    # the rows a block of orders reaches are a suffix of the trajectory
    needs = _order_bound(plan.half_width * t)
    # psi is real, so is every T_n(.) psi: real sparse products cost a
    # third of complex ones and need no complex copy of H
    psi = np.zeros(hamiltonian.dim)
    psi[0] = 1.0
    vectors = _chebyshev_vectors(hamiltonian.matrix, plan, psi)
    parts = np.zeros((2 * n_t, hamiltonian.dim))
    gathered = np.empty((_BLOCK, hamiltonian.dim))
    for start in range(0, plan.terms, _BLOCK):
        block = min(_BLOCK, plan.terms - start)
        for slot in gathered[:block]:
            slot[...] = next(vectors)
        first = 2 * int(np.searchsorted(needs, start, side="right"))
        # parts[first:] += coef[first:, block] @ gathered[:block], summed in
        # place: c must be contiguous, or f2py sums into a silent copy
        scipy.linalg.blas.dgemm(
            1.0, gathered[:block].T, coef[first:, start:start + block].T,
            beta=1.0, c=parts[first:].T, overwrite_c=1,
        )
    return QuantumState(_interleave(parts), hamiltonian.basis, plan)


def _interleave(parts: np.ndarray) -> np.ndarray:
    """The (T, D) complex trajectory whose row k has real part parts[2k]
    and imaginary part parts[2k + 1], interleaved in place, one row pair at
    a time through a buffer of 2D floats: a C-contiguous view of parts."""
    dim = parts.shape[1]
    buffer = np.empty((2, dim))
    for pair in parts.reshape(-1, 2, dim):
        buffer[...] = pair
        row = pair.reshape(-1).view(np.complex128)
        row.real = buffer[0]
        row.imag = buffer[1]
    return parts.reshape(-1, 2 * dim).view(np.complex128)


def rydberg_number(state: QuantumState) -> np.ndarray:
    """Expected number of excited atoms <sum_i n_i>, one value per row."""
    return _sum_abs2(state.amplitudes, state.basis.popcounts)


def w_state_fidelity(state: QuantumState) -> np.ndarray:
    """Overlap squared with the symmetric one-excitation state, one value
    per row.

    |<W|psi>|**2 where W is the equal-amplitude superposition of all
    single-excitation bitmasks. This is the collective state a fully
    blockaded cluster Rabi-oscillates into.
    """
    m = state.basis.n_atoms
    amp_sum = state.amplitudes[:, state.basis.singles].sum(axis=1)
    return np.abs(amp_sum) ** 2 / m
