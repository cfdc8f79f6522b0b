"""sqzlab: a continuous-variable quantum-optics simulator.

Two interoperable state engines (exact Gaussian moments and a truncated
photon-number basis), a homodyne measurement layer with Wigner tomography,
parametric-device models, and protocol pipelines for teleportation, phase
estimation and conditional state engineering.
"""

__version__ = "0.1.0"

from .gaussian import (
    GaussianState,
    beam_splitter,
    displace,
    infer_effective_loss,
    loss_channel,
    quadrature_variance,
    rotate,
    squeeze,
    squeezing_db,
    two_mode_squeeze,
    vacuum,
    wigner_gaussian,
)
from .fock import (
    FockState,
    apply_annihilation,
    beam_splitter_fock,
    coherent_fock,
    displace_fock,
    fidelity,
    herald_click,
    squeezed_vacuum_fock,
    suggest_cutoff,
    tmsv_fock,
    wigner_fock,
)
from .homodyne import (
    NoiseSpectrum,
    PhotocurrentTrace,
    PowerSpectrum,
    QuadratureDataset,
    matched_filter_quadrature,
    photocurrent_with_drift,
    quadrature_pdf,
    reconstruct_wigner,
    sample_quadratures,
    sideband_quadratures,
    spectrum,
    wigner_grid,
)
from .devices import (
    CavityConfig,
    CrystalConfig,
    OpaConfig,
    PumpConfig,
    cavity_figures,
    effective_gaussian_state,
    opa_spectrum,
    pump_field_amplitude,
    single_pass_r,
)
from .protocols import (
    PhaseEstimate,
    TeleportResult,
    detection_efficiency_for_improvement,
    engineer_kitten_superposition,
    gw_phase_readout,
    make_heralded_photon,
    make_kitten,
    teleport_gaussian,
    teleport_wigner_check,
)
