"""The benchmark's workloads: instance make-up, timed CLI command and seeds.

Each workload covers one of the paper's three problem types.  The seed
argument fixes every random input of a run:

* ``problem.seed = seed``  (von Karman / segmented phase screens; the
  annular-Zernike instance has no random part),
* ``noise.seed = seed``    (Poisson photon noise, noisy workload only),
* ``solver.seed = seed * restarts``, so the run's restarts use the fixed
  list ``seed * restarts + i`` for ``i < restarts`` (the CLI's own rule
  is ``solver.seed + restart_index``) and two seeds never share a restart.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    command: str          # CLI subcommand timed as one batch
    instance: tuple       # --set overrides shared by simulate and the batch
    solve: tuple          # extra --set overrides for the batch command
    restarts: int
    tiny_instance: tuple  # self-test size, replaces ``instance``
    tiny_restarts: int
    noisy: bool = False

    @property
    def methods(self) -> int:
        """Solver runs per restart: compare-methods runs four methods."""
        return 4 if self.command == "compare-methods" else 1

    def overrides(self, seed: int, tiny: bool = False):
        """(simulate overrides, batch overrides) for one seed."""
        restarts = self.tiny_restarts if tiny else self.restarts
        instance = (self.tiny_instance if tiny else self.instance) + (
            f"problem.seed={seed}",)
        batch = instance + self.solve + (
            f"restarts={restarts}", f"solver.seed={seed * restarts}")
        if self.noisy:
            batch += (f"noise.seed={seed}",)
        return instance, batch

    def restart_count(self, tiny: bool = False) -> int:
        return self.tiny_restarts if tiny else self.restarts


WORKLOADS = {w.name: w for w in (
    # The paper's method comparison; per-iteration Python work dominates
    # at n=32 and it is the only workload that applies TN's Hessian action.
    Workload("zk32-methods", "compare-methods",
             instance=("problem.type=zernike", "problem.n=32"),
             solve=("objective.model=LS",),
             restarts=20,
             tiny_instance=("problem.type=zernike", "problem.n=16"),
             tiny_restarts=2),
    # Whole-grid work dominates: FFTs, defocus phases, pointwise terms,
    # n^2 reductions and the CSV instance load.  The iteration cap sits
    # below the 58-79 iterations LBFGS needs to converge here, so every
    # restart does the same number of iterations whatever its seed.
    Workload("vk256-lbfgs", "solve",
             instance=("problem.type=vonkarman", "problem.n=256"),
             solve=("solver.method=LBFGS", "objective.model=LS",
                    "solver.max_iters=40"),
             restarts=3,
             tiny_instance=("problem.type=vonkarman", "problem.n=32"),
             tiny_restarts=1),
    # Poisson model (log branch), noise drawn at solve time and the
    # Morozov level and floor; every restart runs all 150 iterations.
    Workload("seg128-mlp-noisy", "solve",
             instance=("problem.type=segmented", "problem.n=128"),
             solve=("solver.method=LBFGS", "objective.model=MLP",
                    "noise.snr=20", "morozov.enabled=true"),
             restarts=2,
             tiny_instance=("problem.type=segmented", "problem.n=32"),
             tiny_restarts=1,
             noisy=True),
)}
