"""gmclab: Gaussian multiplicative chaos, atomic dual chaos, and KPZ duality.

Each scipy name is imported in the function that calls it, so importing
gmclab loads numpy and no scipy module: scipy.special alone would nearly
triple the time of `import gmclab.cli`, and a run on an exact kernel never
calls it.
"""

from .kernels import KernelSpec, eval_partial_kernel, eval_level_increment
from .field import Lattice, FieldGrid, RngStream, LayerSampler
from .chaos import LatticeMeasure, build_chaos, measure_box, xi
from .atomic import (
    AtomicMeasure,
    StableAtoms,
    build_atomic_direct,
    build_subordinated,
    sample_stable_atoms,
    xi_bar,
)
from .analysis import (
    covering_sums,
    dimension_estimate,
    estimate_spectrum,
    hill_tail_index,
    kpz_solve,
    kpz_solve_dual,
    lq_spectrum,
    verify_laplace,
    verify_perfect_scaling,
)
from .config import ExperimentConfig, load_config, parse_config_text, validate_config

__version__ = "0.1.0"
