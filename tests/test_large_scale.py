"""Full-scale (128 x 128) recovery checks.

Confidence runs at a production grid size; the fast n=32 statistical
gates live in test_acceptance.py.
"""

import numpy as np
import pytest

from phasediversity.experiments import initial_guess
from phasediversity.objectives import DataMisfit, ObjectiveSpec
from phasediversity.optimizers import SolverConfig, solve
from phasediversity.problems import build_problem


@pytest.mark.parametrize("ptype,target_rms", [("zernike", 0.1),
                                              ("vonkarman", 0.19)])
def test_lbfgs_recovers_at_full_grid(ptype, target_rms):
    inst = build_problem(ptype, 128, seed=0)
    if ptype == "zernike":
        # the 0.1-wave mode stays within (-pi, pi], so the angle map is
        # wrap-free and the aberration statistics are recoverable from u
        phase = np.angle(inst.truth) / (2 * np.pi)
        assert np.std(phase[inst.grid.mask]) == pytest.approx(target_rms, abs=1e-6)

    spec = ObjectiveSpec("LS", 1e-14, inst.plan, inst.data, inst.grid)
    recovered = 0
    for s in range(2):
        obj = DataMisfit(spec)
        _, trace = solve(obj, SolverConfig(seed=s),
                         initial_guess(inst.grid.mask, s), truth=inst.truth)
        recovered += trace.records[-1].rms < 1e-5
    assert recovered >= 1
