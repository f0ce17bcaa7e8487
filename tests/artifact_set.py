"""Build a fixed set of CLI artifacts, to check that a change leaves every
byte of the program's output as it was.

Runs a fixed list of ``phasediversity`` commands in-process through
``phasediversity.cli.main``, imported from the ``src`` of a chosen checkout,
and stops at the first command that exits non-zero.  Every path it passes
is under the output directory, so two builds of the same code are
byte-identical.  Compare this checkout with another one::

    python tests/artifact_set.py OUT_NEW
    python tests/artifact_set.py OUT_OLD --checkout PATH_TO_OTHER_CHECKOUT
    diff -r OUT_OLD OUT_NEW
"""

from __future__ import annotations

import argparse
import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

# instance name -> simulate overrides
INSTANCES = {
    "zernike16": ["problem.n=16"],
    "zernike8": ["problem.n=8"],
    "vonkarman16_snr20": ["problem.type=vonkarman", "problem.n=16",
                          "noise.snr=20", "noise.seed=3"],
    "segmented32": ["problem.type=segmented", "problem.n=32"],
    # no pupil plane and three defocus planes, the other plan shape
    "zernike16_nopupil": ["problem.n=16", "plan.amplitude_plane=false",
                          "plan.defocus=-3,0,3"],
}

_BATCH = ["restarts=2", "solver.max_iters=20"]
_MOROZOV = ["morozov.enabled=true"]

# artifact name -> (command, instance, overrides, extra arguments)
RUNS = {
    "solve_lbfgs": ("solve", "zernike16", _BATCH + ["solver.method=LBFGS"], []),
    "solve_tn_mlp": ("solve", "zernike16",
                     _BATCH + ["solver.method=TN", "objective.model=MLP",
                               "solver.tn_cg_max=5"], []),
    "solve_misell": ("solve", "zernike16", _BATCH + ["solver.method=MISELL"], []),
    "solve_misell_morozov": ("solve", "zernike16",
                             _BATCH + _MOROZOV + ["solver.method=MISELL",
                                                  "noise.snr=20", "noise.seed=3"],
                             []),
    "solve_mlp_morozov": ("solve", "vonkarman16_snr20",
                          _BATCH + _MOROZOV + ["objective.model=MLP"], []),
    "solve_lsi": ("solve", "zernike16", _BATCH + ["objective.model=LSI"], []),
    "solve_ncg": ("solve", "zernike16", _BATCH + ["solver.method=NCG"], []),
    # a tight curvature test: 2-6 search trials per step, so the search's
    # cubic and bracketing branches reach the artifacts
    "solve_ncg_c2_tight": ("solve", "zernike16",
                           _BATCH + ["solver.method=NCG", "solver.c2=0.1"], []),
    "compare_methods": ("compare-methods", "zernike16", _BATCH, []),
    "compare_models": ("compare-models", "zernike16",
                       _BATCH + _MOROZOV + ["noise.snr=30", "noise.seed=3"], []),
    "nopupil_lbfgs": ("solve", "zernike16_nopupil",
                      _BATCH + ["solver.method=LBFGS"], []),
    "nopupil_tn": ("solve", "zernike16_nopupil",
                   _BATCH + ["solver.method=TN", "solver.tn_cg_max=5"], []),
    "nopupil_misell_morozov": ("solve", "zernike16_nopupil",
                               _BATCH + _MOROZOV + ["solver.method=MISELL",
                                                    "noise.snr=20", "noise.seed=3"],
                               []),
    "hessian_truth": ("analyze-hessian", "zernike8", [], ["--point", "truth"]),
    "hessian_random": ("analyze-hessian", "zernike8", [], ["--point", "random"]),
}


def commands(out: Path):
    """(name, argv) of every command of the set, in the order they run."""
    for name, overrides in INSTANCES.items():
        yield name, ["simulate", *_sets(overrides), "--out",
                     str(out / "instances" / name)]
    for name, (command, instance, overrides, extra) in RUNS.items():
        yield name, [command, "--instance", str(out / "instances" / instance),
                     *_sets(overrides), *extra, "--out", str(out / name)]


def _sets(overrides):
    return [arg for item in overrides for arg in ("--set", item)]


def build(out_dir) -> list:
    """Run the set into the new directory ``out_dir``; returns the paths of
    the files written, relative to it and sorted."""
    from phasediversity.cli import main

    out = Path(out_dir)
    out.mkdir(parents=True)
    for name, argv in commands(out):
        log = io.StringIO()
        with redirect_stdout(log), redirect_stderr(log):
            code = main(argv)
        if code != 0:
            raise RuntimeError(f"{name} exited {code}: {log.getvalue()}")
    return sorted(p.relative_to(out) for p in out.rglob("*") if p.is_file())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out_dir", help="new directory to write the set to")
    parser.add_argument("--checkout", type=Path,
                        default=Path(__file__).resolve().parents[1],
                        help="checkout whose src/ to import (default: this one)")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.checkout.resolve() / "src"))
    files = build(args.out_dir)
    print(f"{len(files)} files written to {args.out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
