"""Every exported name resolves, so a deletion cannot leave a stale export,
and so does every name the benchmark's trace wraps, whose counters read
the calls the CLI makes; every error class is raised somewhere; every
setting is one that some benchmark workload sets, and every default one
that some benchmark workload runs at."""

import ast
import importlib
import inspect
import pkgutil
from dataclasses import fields
from pathlib import Path

import blockadesim
import blockadesim.cli
from blockadesim.cli import main
from blockadesim.config import RunConfig, parse_config_text

from conftest import SIGMA_REF, gaussian_atoms, package_errors

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def submodules():
    return [
        importlib.import_module(f"blockadesim.{info.name}")
        for info in pkgutil.iter_modules(blockadesim.__path__)
    ]


def test_every_name_in_all_resolves():
    for module in submodules():
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.__all__ lists missing {name}"


def test_package_exports_only_declared_names():
    declared = {name for module in submodules() for name in getattr(module, "__all__", ())}
    exported = {
        name
        for name, value in vars(blockadesim).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert exported <= declared, sorted(exported - declared)


def test_cli_imports_no_private_name_of_another_module():
    # the CLI reaches each layer through its public names only
    imports = [
        node for node in ast.walk(ast.parse(inspect.getsource(blockadesim.cli)))
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").startswith("blockadesim"))
    ]
    private = [
        f"{node.module}.{alias.name}" for node in imports for alias in node.names
        if alias.name.startswith("_") and not alias.name.startswith("__")
    ]
    assert imports and private == []


def test_every_traced_name_resolves_to_a_callable(monkeypatch):
    # a layer counts as present if any one of its names exists, so a single
    # renamed writer would silently move its time into the trace gap
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    missing = [
        f"{layer}: {module}.{attr}"
        for layer, targets in tracing.LAYERS.items()
        for module, attr in targets
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []


PHYSICS = """
physical.omega0_hz = 210e3
physical.c6_au = 1.7e19
cloud.sigma_x_m = 2.26465752498e-5
cloud.sigma_y_m = 2.26465752498e-5
cloud.sigma_z_m = 2.26465752498e-5
partition.model = simple
"""
SMALL_RUNS = {
    "cloud": "cloud.n_atoms = 1.5e7\ntime.stop_s = 2e-5\ntime.num = 20\n",
    "exact": "exact.positions_path = atoms.txt\ntime.stop_s = 2e-6\ntime.num = 20\n",
    "scaling": "time.stop_s = 2e-5\ntime.start_s = 1e-8\ntime.num = 50\ntime.spacing = log\n"
               "sweep.densities_m3 = 2e19, 8e19\nsweep.omega0_hz = 1e5, 2e5\n",
}


def test_trace_counts_every_layer_of_the_cli_calls(tmp_path, monkeypatch, capsys):
    # a counter that cannot read its call's arguments (say, time_grid passed
    # by position where the counter expects it) drops its layer's figures
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.chdir(tmp_path)  # where SMALL_RUNS["exact"] finds its atoms
    (tmp_path / "atoms.txt").write_text(gaussian_atoms(0, 3, SIGMA_REF))
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    instrumentation = tracing.Instrumentation(tracer)
    instrumentation.install()
    try:
        for command, lines in SMALL_RUNS.items():
            config = tmp_path / f"{command}.cfg"
            config.write_text(PHYSICS + lines)
            out = tmp_path / command
            assert main([command, "--config", str(config), "--out", str(out)]) == 0
        assert main(["fit", str(tmp_path / "cloud" / "curve.csv"),
                     "--out", str(tmp_path / "fit")]) == 0
    finally:
        instrumentation.remove()
    assert instrumentation.absent == []
    assert tracer.unavailable == set()
    assert {span.name for span in tracer.spans} == set(tracing.LAYERS)
    assert tracer.counters[-1]["exact.amplitude_mb"] > 0


def test_every_package_error_is_raised_by_name():
    source = "".join(path.read_text() for path in Path(blockadesim.__file__).parent.glob("*.py"))
    unraised = [e.__name__ for e in package_errors() if f"raise {e.__name__}(" not in source]
    assert unraised == []


def benchmark_configs(tmp_path, monkeypatch):
    """(command, config file) of every benchmark call that reads a config."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    return [
        (call.command, Path(call.argv[call.argv.index("--config") + 1]))
        for workload in workloads.WORKLOADS
        for call in workloads.generate(workload, workloads.DEFAULT_SEED, str(tmp_path / workload))
        if "--config" in call.argv
    ]


def test_every_setting_is_set_by_some_benchmark_workload(tmp_path, monkeypatch):
    # a config key that no workload sets, or a setting read from the
    # environment (the benchmark passes every setting by file and flag), is
    # a second source of input that no measured run exercises
    set_keys = {line.partition("=")[0].strip()
                for _, path in benchmark_configs(tmp_path, monkeypatch)
                for line in path.read_text().splitlines()}
    unset = [f.metadata["key"] for f in fields(RunConfig) if f.metadata["key"] not in set_keys]
    environment_reads = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(blockadesim.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv")
        or isinstance(node, ast.ImportFrom) and node.module == "os"
        and {alias.name for alias in node.names} & {"environ", "getenv"}
    ]
    assert unset + environment_reads == []


def test_every_default_is_run_by_some_benchmark_workload(tmp_path, monkeypatch):
    # a default that no measured run uses, while every run that reads the
    # key sets it to one other value, is a constant kept as an option (as
    # partition.n_min was: 0.0 in every benchmark config, 1.0 by default)
    configs = [(command, parse_config_text(path.read_text(), str(path), command))
               for command, path in benchmark_configs(tmp_path, monkeypatch)]
    unrun = []
    for setting in fields(RunConfig):
        if setting.default is None:
            continue
        values = {getattr(cfg, setting.name) for command, cfg in configs
                  if command in setting.metadata["read_by"]}
        if setting.default not in values and len(values) < 2:
            unrun.append(f"{setting.metadata['key']}: {sorted(values)}")
    assert unrun == []
