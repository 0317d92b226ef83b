"""Learning per-agent responsibility allocations from interaction data.

The pipeline: multi-agent control-affine dynamics and barrier functions
induce a linear-in-control safety row; a weighted projection QP splits the
burden of satisfying it between agents according to an allocation vector;
the QP is differentiable in that vector, so allocations (constant, neural,
or symmetry-constrained) can be regressed from observed interactions.
"""

from .barriers import (Barrier, CbfLinearConstraint, assemble_constraint,
                       make_ellipse_barrier, make_pairwise_distance_barrier,
                       validate_barrier)
from .data import (DesiredPolicyParams, InteractionSample, InteractionScene,
                   SampleSet, ScenarioConfig, WeavingConfig, augment,
                   desired_lateral_control, desired_longitudinal_control,
                   generate_synthetic, generate_weaving_trajectories,
                   load_trajectories, planar_group_scene, save_trajectories,
                   two_agent_line_scene, weaving_scene, write_csv)
from .dynamics import (ControlAffineSystem, make_double_integrator_2d,
                       make_relative_double_integrator, make_single_integrator_1d,
                       relative_state)
from .filter_qp import (FilterError, FilterJacobians, FilterProblem,
                        FilterSolution, differentiate_filter, kkt_residuals,
                        solve_filter)
from .models import (ConstantGamma, Mlp, MlpGamma, RelativeSymmetricGamma,
                     SymmetricGammaN, grad_gamma, init_model, load_model,
                     save_model)
from .training import (TrainConfig, TrainReport, batch_loss,
                       batch_loss_and_grad, fit, fit_windows, gradient_step,
                       loss, prepare_batch)

__version__ = "0.1.0"
