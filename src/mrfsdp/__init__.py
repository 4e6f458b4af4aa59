"""MAP inference for multi-label Potts MRFs via low-rank SDP relaxations.

Two pipelines with per-instance suboptimality certificates:

* fuses_solve -- binary-matrix relaxation solved by a single rank staircase
  (initial rank K) over unit rows above a fixed anchor block B0;
* dars_solve  -- dual ascent over the standard sign-vector relaxation, each
  primal step a rank staircase (initial rank 2) over unit rows.

Plus exact brute force and greedy local search baselines, synthetic grid
generation, instance/result serialization, and a CLI (mrfsdp.cli).
"""

from types import ModuleType as _ModuleType

from .baselines import ExactResult, brute_force, icm
from .dars import (
    DARS_SOLVER_PARAMS,
    DualParams,
    dars_round,
    dars_solve,
    dual_gradient,
)
from .encode_pm import PmEncoding, encode_pm, labeling_to_pm
from .encode_zo import (
    ZoEncoding,
    encode_zo,
    labeling_to_zo,
    lift_labeling,
    zo_objective,
)
from .errors import (
    DegenerateStepError,
    InvalidInputError,
    NumericalFailureError,
    SizeRefusalError,
)
from .fuses import fuses_round, fuses_solve
from .manifold import (
    ManifoldShape,
    project_tangent,
    random_point,
    retract,
    trace_quadratic,
)
from .metrics import MetricsReport, compute_metrics, mann_kendall_positive_p
from .mrf import (
    KernelWeights,
    MrfInstance,
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

# the public names, without the submodules that importing them bound here
__all__ = [name for name in dir() if not name.startswith("_")
           and not isinstance(globals()[name], _ModuleType)]
