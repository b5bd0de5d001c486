"""Quantum dynamics on curved surfaces with inhomogeneous confinement.

Effective surface Hamiltonian (natural units hbar = 1, 2m = 1, lengths a,
energies e0 = hbar^2/(2 m a^2)):

    H = -(1/sqrt(g)) d_a sqrt(g) g^{ab} d_b  +  V_g  +  (s - 1) E0

with the curvature potential V_g = -(M^2 - K) and the inhomogeneity potential
(s - 1) E0 set by the confinement morphology s and the transverse ground-state
energy E0.  The transport solver treats a cylinder with helical confinement
ditches: coupled angular channels, recursive Green's function, Landauer
conductance, angular-momentum polarization, scattering-state densities.
"""

from .confinement import (
    ConfinementProfile,
    TransverseWell,
    constant_profile,
    custom_profile,
    effective_potential,
    helical_profile,
    homogeneous_profile,
    validate_profile,
)
from .errors import (
    ClosedChannelError,
    ConfigError,
    DomainError,
    NumericalError,
    ProfileError,
    QsurfError,
    ResolutionError,
    SingularChartError,
    StepSizeError,
    ThresholdProximityWarning,
    UndefinedPolarizationError,
)
from .geometry import (
    CurvatureData,
    SurfaceChart,
    builtin_chart,
    catenoid_chart,
    curvature,
    cylinder_chart,
    from_position_map,
    geometric_potential,
    metric,
    plane_chart,
    sphere_chart,
    torus_chart,
    unit_normal,
)
from .operator import (
    ChannelBasis,
    CoupledChannelOperator,
    Grid2D,
    LeadModeSet,
    assemble_2d,
    assemble_coupled_channel,
    closed_eigenvalues,
    closed_matrix,
    fourier_couplings,
    lead_modes,
    lowest_eigenvalues_2d,
    required_dz,
)
from .transport import (
    ConductanceCurve,
    DensityMap,
    SMatrix,
    conductance,
    energy_sweep,
    lead_self_energy,
    polarization,
    rgf_smatrix,
    scattering_density,
    sweep_energies,
)

__version__ = "0.1.0"
