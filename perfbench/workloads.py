"""Seeded workload generator.

``generate(workload, seed, root)`` writes the config and positions files
one workload feeds to the ``blockadesim`` CLI under ``root/inputs`` and
returns the fixed list of CLI calls that make up one pass. The program
sees only these files; the seed changes the inputs, never the shape of
the work (entry counts and basis dimensions stay put, see below).

Randomness comes from ``random.Random(...).random()`` alone, whose
stream Python guarantees across versions, so a seed names the same
inputs on any interpreter.

Perturbation ranges, all uniform and relative to the reference values:

* cloud-sweep, cloud calls: atom number +-2 %, each drive +-0.25 %, pulse
  length +-5 %. At the reference cloud the collective 42 kHz grid sits
  0.2 % below a cell-count step, and these ranges move it by at most
  0.17 %.
* cloud-sweep, scaling calls: each grid density +-1 %, each grid drive
  +-0.5 %.
* exact-dense, exact-krylov: cluster radius +-2 %, atom positions drawn
  fresh with no pair closer than MIN_SPACING_M; the 20-atom restricted
  geometry is redrawn until its basis has RESTRICTED_DIM_TARGET states
  within RESTRICTED_DIM_TOLERANCE.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass, field

DEFAULT_SEED = 0

C6_AU = 1.7e19
# Reference cloud of the paper's strong-drive runs.
REF_N_ATOMS = 1.5e7
REF_SIGMA_M = 22.6e-6
# Acceptance-07 sweep: isotropic radius giving 8.2e19 m^-3 at 1.5e7 atoms.
SWEEP_SIGMA_M = 2.26465752498e-5
STRONG_DRIVE_HZ = 210e3
WEAK_DRIVE_HZ = 42e3
# Compact cluster for the exact solver, about one blockade radius at 210 kHz.
CLUSTER_SIGMA_M = 5e-6
RESTRICTED_RADIUS_M = 4.764385664851003e-06  # simple blockade radius at 210 kHz
RESTRICTED_ATOMS = 20
RESTRICTED_DIM_TARGET = 30000
RESTRICTED_DIM_TOLERANCE = 0.02
# Pairs closer than this make the dense eigh of a 10-atom cluster take
# 2-3x longer (about 1 um and below measured), so the work would depend on
# the seed; geometries are redrawn instead.
MIN_SPACING_M = 1.5e-6
MAX_DRAWS = 100_000


@dataclass(frozen=True)
class Call:
    """One CLI invocation of a pass and what its output checks need."""

    name: str
    command: str
    argv: tuple[str, ...]
    out: str
    expect: dict = field(default_factory=dict)


class _Draw:
    """Uniform and Gaussian draws from random.Random.random() only."""

    def __init__(self, workload: str, seed: int):
        self._rng = random.Random(f"{workload}:{seed}")

    def jitter(self, value: float, rel: float) -> float:
        return value * (1.0 + rel * (2.0 * self._rng.random() - 1.0))

    def gauss(self) -> float:
        # Box-Muller; 1 - random() lies in (0, 1], so the log is finite.
        u1 = 1.0 - self._rng.random()
        u2 = self._rng.random()
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def cluster(self, n_atoms: int, sigma: float) -> list[tuple[float, float, float]]:
        """Gaussian positions, redrawn until no pair is closer than MIN_SPACING_M."""
        for _ in range(MAX_DRAWS):
            coords = [
                (sigma * self.gauss(), sigma * self.gauss(), sigma * self.gauss())
                for _ in range(n_atoms)
            ]
            if all(math.dist(a, b) >= MIN_SPACING_M
                   for i, a in enumerate(coords) for b in coords[:i]):
                return coords
        raise RuntimeError(f"no {n_atoms}-atom geometry with spacing >= {MIN_SPACING_M} m")


def _fmt(x: float) -> str:
    return repr(float(x))


def _write(path: str, lines: list[str]) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def _write_config(path: str, items: dict) -> str:
    return _write(path, [f"{key} = {value}" for key, value in items.items()])


def _write_positions(path: str, coords) -> str:
    return _write(path, [" ".join(_fmt(c) for c in xyz) for xyz in coords])


def count_independent_sets(coords, radius: float) -> int:
    """Number of atom subsets with no two members closer than ``radius``.

    This is the restricted-basis dimension (the empty set included),
    counted by branching on the lowest free atom with memoisation.
    """
    m = len(coords)
    adjacency = [0] * m
    for i in range(m):
        for j in range(m):
            if i != j and math.dist(coords[i], coords[j]) < radius:
                adjacency[i] |= 1 << j
    memo = {0: 1}

    def count(free: int) -> int:
        if free not in memo:
            low = free & -free
            i = low.bit_length() - 1
            memo[free] = count(free & ~low) + count(free & ~low & ~adjacency[i])
        return memo[free]

    return count((1 << m) - 1)


def _cloud_ref(draw: _Draw, inputs: str, outputs: str) -> list[Call]:
    n_atoms = draw.jitter(REF_N_ATOMS, 0.02)
    stop_s = draw.jitter(20e-6, 0.05)
    drives = {
        "42k": draw.jitter(WEAK_DRIVE_HZ, 0.0025),
        "210k": draw.jitter(STRONG_DRIVE_HZ, 0.0025),
    }
    calls = []
    for model in ("collective", "simple"):
        for label, drive_hz in drives.items():
            name = f"cloud-{model}-{label}"
            config = _write_config(os.path.join(inputs, f"{name}.cfg"), {
                "physical.omega0_hz": _fmt(drive_hz),
                "physical.c6_au": _fmt(C6_AU),
                "cloud.n_atoms": _fmt(n_atoms),
                "cloud.sigma_x_m": _fmt(REF_SIGMA_M),
                "cloud.sigma_y_m": _fmt(REF_SIGMA_M),
                "cloud.sigma_z_m": _fmt(REF_SIGMA_M),
                "partition.model": model,
                "partition.n_min": "0.0",
                "time.stop_s": _fmt(stop_s),
                "time.num": "200",
            })
            out = os.path.join(outputs, name)
            calls.append(Call(name, "cloud", ("cloud", "--config", config), out,
                              {"omega0_hz": drive_hz, "n_atoms": n_atoms}))
            calls.append(Call(f"fit-{model}-{label}", "fit",
                              ("fit", os.path.join(out, "curve.csv")),
                              os.path.join(outputs, f"fit-{model}-{label}")))
    return calls


def _sweep_ref(draw: _Draw, inputs: str, outputs: str) -> list[Call]:
    densities = [draw.jitter(2.8e18 * (8.2e19 / 2.8e18) ** (k / 3), 0.01) for k in range(4)]
    drives = [draw.jitter(WEAK_DRIVE_HZ * 5.0 ** (k / 3), 0.005) for k in range(4)]
    calls = []
    for model in ("collective", "simple"):
        name = f"scaling-{model}"
        config = _write_config(os.path.join(inputs, f"{name}.cfg"), {
            "physical.omega0_hz": _fmt(STRONG_DRIVE_HZ),
            "physical.c6_au": _fmt(C6_AU),
            "cloud.sigma_x_m": _fmt(SWEEP_SIGMA_M),
            "cloud.sigma_y_m": _fmt(SWEEP_SIGMA_M),
            "cloud.sigma_z_m": _fmt(SWEEP_SIGMA_M),
            "partition.model": model,
            "partition.n_min": "0.0",
            "time.spacing": "log",
            "time.start_s": "1e-09",
            "time.stop_s": "0.0001",
            "time.num": "160",
            "sweep.densities_m3": ",".join(_fmt(n) for n in densities),
            "sweep.omega0_hz": ",".join(_fmt(f) for f in drives),
        })
        calls.append(Call(name, "scaling", ("scaling", "--config", config),
                          os.path.join(outputs, name), {"model": model, "points": 16}))
    return calls


def _exact_call(name: str, inputs: str, outputs: str, coords, basis: str,
                stop_s: float, num: int, extra: dict | None = None) -> Call:
    positions = _write_positions(os.path.join(inputs, f"{name}.xyz"), coords)
    items = {
        "physical.omega0_hz": _fmt(STRONG_DRIVE_HZ),
        "physical.c6_au": _fmt(C6_AU),
        "exact.positions_path": positions,
        "exact.basis": basis,
        "time.stop_s": _fmt(stop_s),
        "time.num": str(num),
    }
    items.update(extra or {})
    config = _write_config(os.path.join(inputs, f"{name}.cfg"), items)
    return Call(name, "exact", ("exact", "--config", config),
                os.path.join(outputs, name), {"n_atoms": len(coords)})


def _exact_dense(draw: _Draw, inputs: str, outputs: str) -> list[Call]:
    sigma = draw.jitter(CLUSTER_SIGMA_M, 0.02)
    calls = []
    for geometry in ("a", "b"):
        for m in (8, 9, 10):
            calls.append(_exact_call(f"exact-full-{m}{geometry}", inputs, outputs,
                                     draw.cluster(m, sigma), "full", 5e-6, 200))
    return calls


def _exact_krylov(draw: _Draw, inputs: str, outputs: str) -> list[Call]:
    cloud_atoms = draw.cluster(14, REF_SIGMA_M)
    sigma = draw.jitter(CLUSTER_SIGMA_M, 0.02)
    lo = RESTRICTED_DIM_TARGET * (1.0 - RESTRICTED_DIM_TOLERANCE)
    hi = RESTRICTED_DIM_TARGET * (1.0 + RESTRICTED_DIM_TOLERANCE)
    for _ in range(MAX_DRAWS):
        cluster = draw.cluster(RESTRICTED_ATOMS, sigma)
        if lo <= count_independent_sets(cluster, RESTRICTED_RADIUS_M) <= hi:
            break
    else:
        raise RuntimeError(f"no {RESTRICTED_ATOMS}-atom geometry near dim {RESTRICTED_DIM_TARGET}")
    return [
        _exact_call("exact-full-14", inputs, outputs, cloud_atoms, "full", 5e-6, 50),
        _exact_call(f"exact-restricted-{RESTRICTED_ATOMS}", inputs, outputs, cluster,
                    "restricted", 5e-6, 50,
                    {"exact.restriction_radius_m": _fmt(RESTRICTED_RADIUS_M)}),
    ]


def _cloud_sweep(seed: int, inputs: str, outputs: str) -> list[Call]:
    # One workload, not two: the CSV-bound cloud calls alone varied 40 %
    # between passes with the machine's load, and the compute-bound sweep
    # dilutes that while keeping both mixes in one pass. Each half keeps
    # its own random stream.
    return (_cloud_ref(_Draw("cloud-ref", seed), inputs, outputs)
            + _sweep_ref(_Draw("sweep-ref", seed), inputs, outputs))


_PASSES = {
    "cloud-sweep": _cloud_sweep,
    "exact-dense": lambda seed, *dirs: _exact_dense(_Draw("exact-dense", seed), *dirs),
    "exact-krylov": lambda seed, *dirs: _exact_krylov(_Draw("exact-krylov", seed), *dirs),
}
WORKLOADS = tuple(_PASSES)


def generate(workload: str, seed: int, root: str) -> list[Call]:
    """Write the workload's inputs under ``root`` and return one pass's calls."""
    if workload not in _PASSES:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    inputs = os.path.join(root, "inputs")
    outputs = os.path.join(root, "out")
    os.makedirs(inputs, exist_ok=True)
    os.makedirs(outputs, exist_ok=True)
    return _PASSES[workload](seed, inputs, outputs)
