"""attopmm: attosecond photoemission observables for coherent two-state
molecular wave packets — momentum maps, angle-integrated spectra, and
real-space density changes, with a tight-binding pentacene scenario built in.
"""

from .algebra import (
    AlgebraError,
    DysonOrbital,
    assemble_dyson,
    closed_shell_state,
    one_hole_csf,
    singlet_excitation_csf,
    two_hole_one_particle_csf,
)
from .density import (
    DensityError,
    DensityFrame,
    default_density_grid,
    density_change,
    density_timeseries,
)
from .huckel import HuckelError, build_pentacene_graph, huckel_orbitals
from .io import (
    ConfigError,
    CubeFormatError,
    Scenario,
    TableFormatError,
    default_scenario_path,
    load_scenario,
    read_cube,
    read_final_state_table,
    write_cube,
)
from .model import (
    ElectronicState,
    GaussianPrimitive,
    ModelError,
    MolecularOrbital,
    ProbePulse,
    VolumetricGrid,
    WavePacket,
)
from .momentum import MomentumError, build_hemisphere, build_sphere
from .signal import (
    PMM,
    SignalError,
    Spectrum,
    angle_integrated_spectrum,
    energy_average_pmm,
    envelope_long,
    envelope_short,
    ground_state_scenario,
    pmm_cut,
    probability_long,
    probability_short,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraError", "DysonOrbital", "assemble_dyson", "closed_shell_state",
    "one_hole_csf", "singlet_excitation_csf", "two_hole_one_particle_csf",
    "DensityError", "DensityFrame", "default_density_grid", "density_change",
    "density_timeseries", "HuckelError", "build_pentacene_graph",
    "huckel_orbitals", "ConfigError", "CubeFormatError", "Scenario",
    "TableFormatError", "default_scenario_path", "load_scenario", "read_cube",
    "read_final_state_table", "write_cube", "ElectronicState",
    "GaussianPrimitive", "ModelError", "MolecularOrbital", "ProbePulse",
    "VolumetricGrid", "WavePacket", "MomentumError", "build_hemisphere",
    "build_sphere", "PMM", "SignalError", "Spectrum",
    "angle_integrated_spectrum", "energy_average_pmm", "envelope_long",
    "envelope_short", "ground_state_scenario", "pmm_cut", "probability_long",
    "probability_short", "__version__",
]
