"""Record the exact-solver reference trajectories at the default seed.

    python3 perfbench/make_references.py     # from the checkout's root

Runs each exact call of exact-dense and exact-krylov once and copies its
trajectory.csv to perfbench/reference/<call>.csv. The benchmark compares
default-seed trajectories against these within checks.REFERENCE_ATOL.
Rerun only when the workload generator changes.
"""

import os
import shutil
import sys

import run
import workloads


def main() -> int:
    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    import blockadesim.cli as cli

    os.makedirs(run.REFERENCE_DIR, exist_ok=True)
    work = os.path.join(root, ".perfbench", "work", f"references-{os.getpid()}")
    try:
        for workload in ("exact-dense", "exact-krylov"):
            for call in workloads.generate(workload, workloads.DEFAULT_SEED, work):
                if cli.main([*call.argv, "--out", call.out]) != 0:
                    return 1
                shutil.copyfile(os.path.join(call.out, "trajectory.csv"),
                                os.path.join(run.REFERENCE_DIR, f"{call.name}.csv"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
