"""The benchmark's patch points exist, and a traced run puts them back.

perfbench/run.py wraps public papsim functions where their callers look
them up (module attributes and the CLI runner table). A refactor that
removes or renames one of them breaks the benchmark, so this checks
every patch point without running a workload.
"""

import importlib.util
import sys
from pathlib import Path

from papsim import cli, propagator, protocols, scan

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(monkeypatch, name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while it executes
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def _snapshot():
    return ([dict(vars(m)) for m in (cli, propagator, protocols, scan)]
            + [dict(cli._RUNNERS)])


def test_benchmark_patches_install_and_restore(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # run.py imports calibrate
    run, tracing, workloads = (_load(monkeypatch, name)
                               for name in ("run", "tracing", "workloads"))
    before = _snapshot()
    tracer = tracing.Tracer()
    try:
        run.install_patches(tracer, workloads)
        patched = _snapshot()
    finally:
        tracer.restore()
    assert patched != before
    assert _snapshot() == before
