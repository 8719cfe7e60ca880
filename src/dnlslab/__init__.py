"""Simulator and analysis toolkit for cubic Schrodinger lattices with
linear gain and nonlinear loss, their integrable Ablowitz-Ladik
counterpart, and the background-shifted Dirichlet truncation."""

__version__ = "0.1.0"

from .core import (
    AlgebraicBumpIC,
    BoundaryKind,
    ComplexState,
    GeneralizedBCSpec,
    LatticeConfig,
    NodeGrid,
    PlaneWaveIC,
    SechBumpIC,
    al_invariant,
    al_rhs,
    central_node_index,
    critical_amplitude,
    discrete_laplacian,
    dnls_rhs,
    generalized_gate,
    lattice_norm,
    make_initial_condition,
    node_grid,
    sech,
    shifted_rhs,
    solvability_gate,
)
from .timestep import (
    IntegratorSpec,
    Method,
    System,
    Trajectory,
    averaged_power,
    integrate,
    power_balance_residual,
    power_bound_check,
)
from .analysis import (
    AttractorVerdict,
    GrowthFit,
    MIScan,
    PlaneWaveFamily,
    SpectrumFrame,
    amplitude_ode_solution,
    attractor_verdict,
    dispersion_frequency,
    mi_growth_oracle,
    mi_roots,
    mi_scan,
    phase_increment,
    plane_wave_exact,
    plane_wave_family,
    slant_asymptote_offset,
    spectrum,
)
from .proximity import (
    DpsParams,
    ProximityReport,
    SmallnessCheck,
    al_norm_bound,
    build_proximity_report,
    distance_curves,
    dps_eval,
    estimate_I_curve,
    estimate_II_rate,
    smallness_condition,
)
from .scenarios import ScenarioSpec, ScenarioVariant, catalog, load_scenario
