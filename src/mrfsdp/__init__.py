"""MAP inference for multi-label Potts MRFs via low-rank SDP relaxations.

Two pipelines with per-instance suboptimality certificates:

* fuses_solve -- binary-matrix relaxation solved by a single rank staircase
  (initial rank K+1) over unit rows above a fixed anchor block B0;
* dars_solve  -- dual ascent over the standard sign-vector relaxation, each
  primal step a rank staircase (initial rank 2) over unit rows.

Plus exact brute force and greedy local search baselines, synthetic grid
generation, instance/result serialization, and a CLI (mrfsdp.cli).
"""

from .baselines import ExactResult, brute_force, icm
from .dars import (
    DARS_SOLVER_PARAMS,
    DualParams,
    dars_certificate,
    dars_round,
    dars_solve,
    dual_gradient,
)
from .encode_pm import (
    PmEncoding,
    constraint_value,
    encode_pm,
    labeling_to_pm,
    pm_to_labeling,
)
from .encode_zo import (
    ZoEncoding,
    encode_zo,
    labeling_to_zo,
    lift_labeling,
    zo_objective,
    zo_to_labeling,
)
from .errors import (
    DegenerateStepError,
    InfeasibleAssignmentError,
    InvalidInputError,
    NumericalFailureError,
    SizeRefusalError,
)
from .fuses import fuses_round, fuses_solve
from .manifold import (
    ManifoldShape,
    manifold_residual,
    project_tangent,
    random_point,
    retract,
    riemannian_gradient,
    riemannian_hessian_vec,
    tangent_residual,
    trace_quadratic,
)
from .metrics import MetricsReport, compute_metrics, mann_kendall_positive_p
from .mrf import (
    ConstantWeights,
    KernelWeights,
    MrfInstance,
    UniformWeights,
    binary_weight_from_features,
    energy,
    energy_batch,
    generate_grid_instance,
    grid_edges,
    unary_argmax_labeling,
)
from .staircase import (
    SolveResult,
    SolverParams,
    StaircaseResult,
    staircase_solve,
    tnt_minimize,
)

# the benchmark harness's tests build results under the old per-method names
FusesResult = DarsResult = SolveResult

__all__ = [name for name in dir() if not name.startswith("_")]
