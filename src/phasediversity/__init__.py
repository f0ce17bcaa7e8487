"""Phase-diversity wavefront retrieval.

Complex-variable line-search solvers (SD, NCG, LBFGS, truncated
Newton), Poisson/least-squares misfit models with matrix-free Hessian
actions, closed-form Hessian spectra, synthetic problem generators and
an experiment CLI.
"""

from .fields import aligned_rms
from .forward import (
    AMPLITUDE,
    DEFOCUS,
    DiversityPlan,
    PlaneSpec,
    PupilGrid,
    TransformCounter,
    defocus_diag,
    diversity_adjoint,
    diversity_forward,
    predict_intensity,
    unitary_dft2,
)
from .hessian import (
    SpectrumReport,
    closed_form_spectrum,
    clustering_comparison,
    hessian_diagonals,
    lipschitz_bound,
    structured_eigenvalues,
)
from .objectives import (
    MODELS,
    DataMisfit,
    MeasurementSet,
    ObjectiveSpec,
    objective_floor,
)
from .optimizers import (
    METHODS,
    FunctionObjective,
    LbfgsMemory,
    LineSearchError,
    RunTrace,
    SolverConfig,
    lbfgs_direction,
    misell_iterate,
    solve,
    wolfe_line_search,
)
from .problems import (
    ProblemInstance,
    add_poisson_noise,
    annular_pupil,
    build_problem,
    load_instance,
    morozov_stop,
    save_instance,
    segmented_pupil,
    simulate_measurements,
    von_karman_screen,
    zernike_annular_basis,
    zernike_annular_phase,
)

__version__ = "0.1.0"
