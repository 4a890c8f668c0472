"""extinctd: numerical verification of stochastic extinction criteria.

Simulates switching diffusions, SDEs, and discrete chains; estimates
average-Lyapunov (H-) exponents from boundary dynamics; and checks
extinction-rate guarantees trajectory by trajectory.
"""

from . import models  # populate the model registry
from .criteria import (
    CtmcGenerator,
    ctmc_stationary,
    invasion_rate,
    kolmogorov_H,
    lorenz_lambda0,
    lorenz_lambda_mc,
    sis_extinction_index,
    top_eigenvalue,
    weighted_invasion_criterion,
)
from .exponents import (
    ExponentEstimate,
    boundary_exponent,
    extinction_fraction,
    linear_sde_exponent,
    robustness_scan,
    slope_experiment,
    trajectory_slope,
)
from .integrators import SimConfig, discrete_step, em_step, poissonize, simulate, switch_step
from .lyapunov import (
    LyapunovSuite,
    dynkin_residual,
    occupation_average,
    qv_residual,
    strong_law_check,
    suite_diagnostics,
    tightness_check,
)
from .process_core import (
    ModelSpec,
    RngStream,
    StateVector,
    Trajectory,
    distance_to_extinction,
    make_bundle,
    make_model,
    registered_models,
)

__version__ = "0.1.0"
