"""Energy-stable P_N transport: basis, boundary conditions, SBP-SAT solver, MC oracle."""

from .boundary import (
    CharacteristicForm,
    Eigenstructure,
    Face,
    OnsagerBoundary,
    boundary_source,
    characteristic_form,
    eigenstructure,
    marshak_matrix,
    onsager_L,
    onsager_bc,
)
from .config import InflowSpec, InitialSpec, Scenario, load_scenario, scenario_from_dict
from .errors import NumericalError, ValidationError
from .mc import McResult, TallyGrid, simulate
from .moments import (
    MomentBasis,
    PnSystem,
    ScatteringSpectrum,
    assemble_transport,
    legendre_moments,
    load_moment_table,
    recursion_check,
    scattering_diagonal,
)
from .sbp import (
    SbpPair,
    StaggeredGrid1d,
    TensorGrid,
    build_sbp_pair,
    sat_penalties,
)
from .solver import (
    EnergyLog,
    RunResult,
    Snapshot,
    SolverSetup,
    build_setup,
    detect_plateaus,
    energy,
    energy_bound_check,
    initial_state,
    inner,
    mass_u00,
    rhs,
    run,
    step_strang,
    zero_state,
)
from .sphharm import (
    SphereQuadrature,
    build_quadrature,
    degrees_orders,
    eval_basis,
    flat_position,
    parity_signs,
    reflect,
)

__version__ = "0.1.0"
