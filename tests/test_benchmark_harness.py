"""The benchmark harness under perfbench/ still runs against the package.

The harness wraps named layer functions, re-solves restart 0 with its own
numpy oracle and counts numpy's FFT calls independently; its self-test
runs every workload at a tiny size and fails when any of that breaks.
"""

import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import phasediversity

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_trace_targets_and_public_names_resolve(monkeypatch):
    # The tracer only warns when a layer it wraps is gone; fail here instead.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tracer = importlib.import_module("tracer")
    targets = [(mod, attr) for _, mod, attr in tracer.TARGETS]
    targets.append(("optimizers", "LbfgsMemory.push"))  # counted, not timed
    missing = []
    for mod_name, attr in targets:
        owner = importlib.import_module(f"phasediversity.{mod_name}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            missing.append(f"{mod_name}.{attr}")
    for info in pkgutil.iter_modules(phasediversity.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"phasediversity.{info.name}")
        missing += [f"{info.name}.{name}"
                    for name in getattr(module, "__all__", ())
                    if not hasattr(module, name)]
    assert not missing, missing
