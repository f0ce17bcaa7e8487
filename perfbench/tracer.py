"""Timed spans around calls into the program's layers.

The tracer lives in the benchmark, not in the program: it replaces the
layer functions named in ``TARGETS`` by timing wrappers, in every module
of the package that holds a reference to them, and puts the originals
back on exit.  A span's self time is its duration minus the time of its
child spans.  Spans are aggregated in memory per layer name (calls,
total, self, exceptions) together with parent -> child call counts.

While installed, the tracer also counts numpy's 2-D / n-D FFT calls and
checks, for every ``solve`` call, that the count made inside it equals
the ``fft_calls`` of the trace it returns.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# (layer, module, attribute).  ``Class.method`` patches the class.
TARGETS = (
    ("forward.dft", "forward", "unitary_dft2"),
    ("forward.plane", "forward", "diversity_forward"),
    ("forward.plane", "forward", "diversity_adjoint"),
    ("objectives.value_grad", "objectives", "DataMisfit.value_and_gradient"),
    ("objectives.value_grad", "objectives", "DataMisfit.value"),
    ("objectives.hess_build", "objectives", "DataMisfit.hessian_operator"),
    ("optimizers.line_search", "optimizers", "wolfe_line_search"),
    ("optimizers.direction", "optimizers", "lbfgs_direction"),
    ("optimizers.direction", "optimizers", "hestenes_stiefel_beta"),
    ("optimizers.direction", "optimizers", "_newton_cg_direction"),
    ("optimizers.solve", "optimizers", "solve"),
    ("fields.aligned_rms", "fields", "aligned_rms"),
    ("problems.build", "problems", "build_problem"),
    ("problems.save", "problems", "save_instance"),
    ("problems.load", "problems", "load_instance"),
    ("problems.noise", "problems", "add_poisson_noise"),
    ("problems.morozov", "problems", "morozov_stop"),
    ("problems.morozov", "objectives", "objective_floor"),
    ("experiments.artifacts", "optimizers", "RunTrace.to_csv"),
    ("experiments.artifacts", "experiments", "_write_json"),
    ("experiments.restart", "experiments", "run_single"),
)

NUMPY_FFTS = ("fft2", "ifft2", "fftn", "ifftn")

# Layers whose self time is reported, in output order.
SELF_TIMED = (
    "forward.dft", "forward.plane", "objectives.value_grad",
    "objectives.hess_build", "objectives.hess_apply",
    "optimizers.line_search", "optimizers.direction", "optimizers.solve",
    "fields.aligned_rms", "problems.build", "problems.save",
    "problems.load", "problems.noise", "problems.morozov",
    "experiments.artifacts",
)
COUNTED = ("forward.dft", "objectives.value_grad", "objectives.hess_apply",
           "optimizers.line_search", "fields.aligned_rms")


class Tracer:
    """Install with ``with Tracer(package):``; read :meth:`layer_metrics`."""

    def __init__(self, package_name: str = "phasediversity"):
        self.package_name = package_name
        self.stack = []                    # [name, child_seconds] frames
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total, self
        self.errors = Counter()
        self.edges = Counter()             # (parent, child) -> calls
        self.restart_s = []
        self.pairs_rejected = 0
        self.numpy_ffts = 0
        self.solves_checked = 0
        self.fft_mismatches = []
        self.missing = []
        self._saved = []

    # -- spans -------------------------------------------------------------
    def _timed(self, name, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer.stack[-1] if tracer.stack else None
            frame = [name, 0.0]
            tracer.stack.append(frame)
            ffts0 = tracer.numpy_ffts
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.errors[name] += 1
                raise
            finally:
                dt = time.perf_counter() - t0
                tracer.stack.pop()
                st = tracer.stats[name]
                st[0] += 1
                st[1] += dt
                st[2] += dt - frame[1]
                if parent is not None:
                    parent[1] += dt
                    tracer.edges[(parent[0], name)] += 1
            if after is not None:
                result = after(result, dt, tracer.numpy_ffts - ffts0)
            return result

        return wrapper

    def _after(self, name):
        if name == "objectives.hess_build":
            return lambda apply, dt, ffts: self._timed("objectives.hess_apply", apply)
        if name == "optimizers.solve":
            def check(result, dt, ffts):
                self.solves_checked += 1
                reported = result[1].fft_calls
                if ffts != reported:
                    self.fft_mismatches.append((ffts, reported))
                return result
            return check
        if name == "experiments.restart":
            def record(result, dt, ffts):
                self.restart_s.append(dt)
                return result
            return record
        return None

    # -- installation -------------------------------------------------------
    def _modules(self):
        prefix = self.package_name
        return [m for k, m in list(sys.modules.items())
                if m is not None and (k == prefix or k.startswith(prefix + "."))]

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _replace_everywhere(self, original, wrapper):
        for mod in self._modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def __enter__(self):
        modules = {m.__name__.rsplit(".", 1)[-1]: m for m in self._modules()}
        for layer, mod_name, attr in TARGETS:
            owner = modules.get(mod_name)
            cls_name, _, meth = attr.rpartition(".")
            if owner is not None and cls_name:
                owner = getattr(owner, cls_name, None)
            original = getattr(owner, meth, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            wrapper = self._timed(layer, original, self._after(layer))
            if cls_name:
                self._set(owner, meth, wrapper)
            else:
                self._replace_everywhere(original, wrapper)
        memory = getattr(modules.get("optimizers"), "LbfgsMemory", None)
        if memory is not None and hasattr(memory, "push"):
            push = memory.push

            @functools.wraps(push)
            def counted_push(*args, **kwargs):
                accepted = push(*args, **kwargs)
                if accepted is False:
                    self.pairs_rejected += 1
                return accepted

            self._set(memory, "push", counted_push)
        else:
            self.missing.append("optimizers.LbfgsMemory.push")
        for name in NUMPY_FFTS:
            self._set(np.fft, name, self._count_fft(getattr(np.fft, name)))
        if self.missing:
            print("perfbench: trace targets not found: " + ", ".join(self.missing),
                  file=sys.stderr)
        return self

    def _count_fft(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.numpy_ffts += 1
            return fn(*args, **kwargs)
        return counted

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)
        return False

    # -- results ------------------------------------------------------------
    def layer_metrics(self) -> dict:
        """Per-layer counts and self times, as {name: (value, unit)}."""
        out = {}
        calls = {name: st[0] for name, st in self.stats.items()}
        for name in COUNTED:
            out[f"{name}.calls"] = (calls.get(name, 0), "count")
        for name in SELF_TIMED:
            out[f"{name}.self_s"] = (self.stats[name][2] if name in self.stats
                                     else 0.0, "s")
        searches = calls.get("optimizers.line_search", 0)
        failed = self.errors["optimizers.line_search"]
        evals = self.edges[("optimizers.line_search", "objectives.value_grad")]
        out["optimizers.line_search.evals"] = (evals, "count")
        out["optimizers.line_search.failed"] = (failed, "count")
        out["optimizers.line_search.evals_per_step"] = (
            evals / (searches - failed) if searches > failed else 0.0, "ratio")
        out["optimizers.lbfgs.pairs_rejected"] = (self.pairs_rejected, "count")
        out["experiments.restart_s.p50"] = (
            statistics.median(self.restart_s) if self.restart_s else 0.0, "s")
        return out
