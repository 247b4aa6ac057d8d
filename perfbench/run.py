"""Benchmark of the blockadesim CLI workflows, run from a checkout's root.

    python3 perfbench/run.py --workload cloud-sweep --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seconds 25

One workload runs in one process and drives ``blockadesim.cli.main``
in-process over a fixed list of CLI calls (a pass), first once as a
checked warm-up, then repeatedly for ``--seconds``. Every call's outputs
are checked (see checks.py). The last stdout line is one JSON object:

* ``--trace 0``: wall_s (mean pass), setup_s (median import time of a
  fresh interpreter), both in reference seconds (see calibrate.py),
  peak_rss_mb and pass_ratio (calls that exited 0 and passed their
  checks / calls attempted);
* ``--trace 1``: per-layer self times and counts from in-memory spans,
  measured on traced passes that alternate with untraced ones, and the
  tracing overhead between the two (see tracing.py).

``--workload all`` runs every workload in its own process and prints a
table. Results, with a machine and provenance block, also go to
``.perfbench/results/``; outputs of the program go to a work directory
under ``.perfbench/work/`` that is removed at exit.
"""

from __future__ import annotations

import os
import sys

# BLAS threads are fixed before numpy is imported, here and in every
# child process; 1 is at or below nproc on any machine.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import contextlib
import gc
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import time
import traceback

import calibrate
import checks
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")
SETUP_REPEATS = 5
MIN_PASSES = 2
MIN_TRACE_PASSES = 4  # alternating, so at least two traced and two untraced


def _median(values) -> float:
    return float(statistics.median(values))


class Runner:
    """Runs passes over the calls, checks outputs and counts failures."""

    def __init__(self, cli_main, calls, references: dict[str, str]):
        self.cli_main = cli_main
        self.calls = calls
        self.references = references
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._verified: dict[str, bytes] = {}

    def _invoke(self, call) -> tuple[object, str]:
        log = io.StringIO()
        try:
            with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                code = self.cli_main([*call.argv, "--out", call.out])
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crash is a failed call; the run goes on
            code = "exception"
            log.write(traceback.format_exc())
        return code, log.getvalue()

    def _check(self, call, code, log: str) -> list[str]:
        if code != 0:
            return [f"{call.name}: exit code {code}: {log.strip()[-500:]}"]
        try:
            with open(os.path.join(call.out, "manifest.txt"), "rb") as fh:
                manifest = fh.read()
            # the manifest holds every output's sha256, so identical bytes
            # mean outputs already verified in this run
            if self._verified.get(call.name) == manifest:
                return []
            expect = dict(call.expect)
            if call.name in self.references:
                expect["reference"] = self.references[call.name]
            problems = checks.CHECKS[call.command](call.out, expect)
        except (OSError, ValueError, IndexError, KeyError) as exc:
            problems = [f"{call.name}: unreadable output: {exc!r}"]
        if not problems:
            self._verified[call.name] = manifest
        return problems

    def run_pass(self, tracer: tracing.Tracer | None = None, pass_id: int = 0,
                 calibrator: calibrate.Calibrator | None = None) -> float:
        """Wall time of the pass's calls; calibration samples between them are not counted."""
        gc.collect()
        results = []
        if tracer is not None:
            tracer.pass_id = pass_id
            root = tracer.begin("pass")
        wall = 0.0
        for call in self.calls:
            if tracer is not None:
                span = tracer.begin(f"call:{call.name}")
            start = time.perf_counter()
            results.append((call, *self._invoke(call)))
            wall += time.perf_counter() - start
            if tracer is not None:
                tracer.end(span)
            if calibrator is not None:
                calibrator.keep_share()
        if tracer is not None:
            tracer.end(root)
        for call, code, log in results:
            problems = self._check(call, code, log)
            self.attempted += 1
            if problems:
                self.failed += 1
                self.problems.extend(problems)
        return wall


def _keep_going(elapsed: list[float], deadline: float, minimum: int) -> bool:
    return len(elapsed) < minimum or time.perf_counter() + _median(elapsed) <= deadline


class SetupProbe:
    """Wall time of fresh interpreters that only import blockadesim.cli.

    The probes are spread over the run, between passes, so that one
    run's median does not rest on a few seconds of the machine's load.
    """

    def __init__(self, src: str):
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(p for p in (src, self.env.get("PYTHONPATH")) if p)
        self.cmd = [sys.executable, "-c", "import blockadesim.cli"]
        self.samples: list[float] = []
        subprocess.run(self.cmd, env=self.env, check=True)  # bytecode and file cache, untimed

    def probe(self) -> None:
        start = time.perf_counter()
        subprocess.run(self.cmd, env=self.env, check=True)
        self.samples.append(time.perf_counter() - start)


def provenance(root: str, src: str) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas_name = "unknown"
    commit = "unavailable (not a git checkout)"
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, check=True,
                                    capture_output=True, text=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            commit = "unavailable (git failed)"
    src_lines = 0
    for folder, _, files in os.walk(src):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(folder, name), "rb") as fh:
                    src_lines += sum(1 for _ in fh)
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "git_commit": commit,
        "src_lines": src_lines,
    }


def _references(seed: int, calls) -> dict[str, str]:
    if seed != workloads.DEFAULT_SEED:
        return {}
    return {call.name: os.path.join(REFERENCE_DIR, f"{call.name}.csv")
            for call in calls if call.command == "exact"}


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _untraced_passes(runner: Runner, seconds: float, setup: SetupProbe,
                     calibrator: calibrate.Calibrator) -> tuple[dict, dict]:
    deadline = time.perf_counter() + seconds
    next_probe = time.perf_counter()
    walls: list[float] = []
    elapsed: list[float] = []  # with the calibration samples, to plan the passes
    while _keep_going(elapsed, deadline, MIN_PASSES):
        start = time.perf_counter()
        walls.append(runner.run_pass(calibrator=calibrator))
        elapsed.append(time.perf_counter() - start)
        while len(setup.samples) < SETUP_REPEATS and time.perf_counter() >= next_probe:
            setup.probe()
            # the probes do not shorten the time the passes get
            deadline += setup.samples[-1]
            next_probe += seconds / SETUP_REPEATS + setup.samples[-1]
    while len(setup.samples) < SETUP_REPEATS:
        setup.probe()
    scale = calibrator.scale()
    metrics = {
        "wall_s": _metric(statistics.fmean(walls) * scale, "s"),
        "setup_s": _metric(_median(setup.samples) * scale, "s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "pass_ratio": _metric((runner.attempted - runner.failed) / runner.attempted, "ratio"),
    }
    return metrics, {"wall_samples_s": walls, "setup_samples_s": setup.samples,
                     "kernel_samples_s": calibrator.samples, "scale": scale,
                     "raw_wall_s": statistics.fmean(walls), "raw_setup_s": _median(setup.samples)}


def _traced_passes(runner: Runner, seconds: float,
                   calibrator: calibrate.Calibrator) -> tuple[dict, dict]:
    """Traced and untraced passes alternate; the untraced ones give the overhead.

    Layer times are raw seconds; the kernel is timed between passes so
    that machine.kernel_s tells how fast the machine ran meanwhile.
    """
    tracer = tracing.Tracer()
    instrumentation = tracing.Instrumentation(tracer)
    deadline = time.perf_counter() + seconds
    walls: list[float] = []
    traced, untraced = [], []
    while _keep_going(walls, deadline, MIN_TRACE_PASSES):
        calibrator.sample()
        pass_id = len(walls)
        if pass_id % 2:
            instrumentation.install()
            try:
                walls.append(runner.run_pass(tracer, pass_id))
            finally:
                instrumentation.remove()
            traced.append(pass_id)
        else:
            walls.append(runner.run_pass())
            untraced.append(walls[-1])
    metrics = tracing.layer_metrics(tracer, instrumentation.absent, traced, untraced)
    metrics["machine.kernel_s"] = _metric(statistics.fmean(calibrator.samples), "s")
    notes = {"absent_layers": instrumentation.absent,
             "kernel_samples_s": calibrator.samples,
             "counts_unavailable": sorted(tracer.unavailable),
             "wall_samples_s": walls, "traced_passes": traced,
             "spans": [vars(s) for s in tracer.spans]}
    return metrics, notes


def run_workload(args, root: str, src: str) -> int:
    setup = None if args.trace else SetupProbe(src)
    sys.path.insert(0, src)
    import blockadesim.cli as cli

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print(f"error: imported blockadesim from {cli.__file__}, not {src}", file=sys.stderr)
        return 2
    work = os.path.join(root, ".perfbench", "work", f"{args.workload}-{os.getpid()}")
    results_dir = os.path.join(root, ".perfbench", "results")
    os.makedirs(results_dir, exist_ok=True)
    try:
        calls = workloads.generate(args.workload, args.seed, work)
        runner = Runner(cli.main, calls, _references(args.seed, calls))
        calibrator = calibrate.Calibrator()
        runner.run_pass()  # warm-up, fully checked
        if args.trace:
            metrics, notes = _traced_passes(runner, args.seconds, calibrator)
        else:
            metrics, notes = _untraced_passes(runner, args.seconds, setup, calibrator)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    info = provenance(root, src)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(results_dir, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "metrics": metrics,
                   "attempted": runner.attempted, "failed": runner.failed,
                   "problems": runner.problems, "provenance": info, **notes}, fh)

    passes = len(notes["wall_samples_s"])
    print(f"workload {args.workload}, seed {args.seed}: {passes} timed passes of "
          f"{len(calls)} CLI calls after one warm-up pass")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']!r} {m['unit']}")
    if not args.trace:
        print(f"  raw wall_s = {notes['raw_wall_s']!r} s, raw setup_s = "
              f"{notes['raw_setup_s']!r} s; reference seconds = raw x {notes['scale']!r} "
              f"(mean of {len(notes['kernel_samples_s'])} kernel samples)")
    print(f"  fail_ratio = {runner.failed / runner.attempted!r} "
          f"({runner.failed} of {runner.attempted} calls)")
    if args.trace:
        print(f"  absent layers: {', '.join(notes['absent_layers']) or 'none'}")
    for problem in runner.problems[:10]:
        print(f"  FAILED {problem}")
    print("provenance " + json.dumps(info))
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; one table of its metrics."""
    rows = []
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: exit code {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        rows.append((workload, json.loads(lines[-1])))
    for workload, result in rows:
        fail_ratio = result["failed"] / result["attempted"]
        print(f"{workload}: correct={result['correct']} "
              f"fail_ratio = {fail_ratio!r} ratio ({result['failed']}/{result['attempted']})")
        for name, m in result["metrics"].items():
            print(f"  {name:32s} {m['value']!r} {m['unit']}")
    return 0 if all(r["correct"] for _, r in rows) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "blockadesim", "cli.py")):
        print("error: src/blockadesim/cli.py not found; run from the root of a "
              "blockadesim checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args, root, src)


if __name__ == "__main__":
    sys.exit(main())
