"""Polarization entanglement from two-photon interference at a lossless beam splitter.

The pipeline: a 4x4 unitary scattering matrix couples two spatial modes and
two polarizations; coincidence postselection leaves a two-qubit polarization
state whose entanglement (concurrence) and maximal Bell-CHSH violation follow
in closed form from a 2x2 hybrid amplitude matrix and the temporal overlap of
the photon wavepackets. Every closed form ships with an independent numeric
route; the verify module cross-checks them on random ensembles.
"""

__version__ = "0.1.0"

from .smallmat import (
    ConsistencyError,
    NotHermitian,
    Tolerances,
    haar_unitary,
    herm_eigen,
    is_unitary,
    pauli,
    svd2,
)
from .scattering import (
    DegenerateTransmission,
    GammaPair,
    HybridMatrix,
    NotRankOne,
    NotUnitary,
    ScatteringMatrix,
    canonicalize_input,
    gammas,
    hybrid,
    make_scattering,
    outgoing_matrix,
    polar_decompose_s,
    preset,
    realize_hybrid,
    trace_identities,
)
from .wavepacket import (
    EmptyWindow,
    GaussianPacket,
    OverlapAlpha,
    QuadratureNotConverged,
    TabulatedPacket,
    alpha_finite_window,
    alpha_infinite_window,
    read_packet_csv,
    temporal_distinguishability,
)
from .state import (
    ConcurrenceReport,
    PolarizationState,
    ZeroCoincidence,
    build_rho,
    concurrence_closed,
    concurrence_gamma,
    concurrence_report,
    concurrence_wootters,
    mandel_dip,
)
from .bell import (
    AnalyzerSetting,
    BellReport,
    CorrelationMatrix,
    chsh_bruteforce,
    coincidence_probs,
    correlation_matrix,
    correlator_e,
    emax,
    u_eigen_closed,
)
from .decomp import DegenerateXi, RPrime, SemiPolar, consistency_check, r_prime, semi_polar
from .regions import (
    BalancedPoint,
    RegionReport,
    balanced_concurrence,
    balanced_emax,
    f_boundary,
    g_boundary,
    no_mixing_case,
    scan_grid,
    scan_to_csv,
)

__all__ = [
    "ConsistencyError", "NotHermitian", "Tolerances", "haar_unitary", "herm_eigen", "is_unitary",
    "pauli", "svd2", "DegenerateTransmission", "GammaPair", "HybridMatrix", "NotRankOne",
    "NotUnitary", "ScatteringMatrix", "canonicalize_input", "gammas", "hybrid", "make_scattering",
    "outgoing_matrix", "polar_decompose_s", "preset", "realize_hybrid", "trace_identities",
    "EmptyWindow", "GaussianPacket", "OverlapAlpha", "QuadratureNotConverged", "TabulatedPacket",
    "alpha_finite_window", "alpha_infinite_window", "read_packet_csv",
    "temporal_distinguishability", "ConcurrenceReport", "PolarizationState", "ZeroCoincidence",
    "build_rho", "concurrence_closed", "concurrence_gamma", "concurrence_report",
    "concurrence_wootters", "mandel_dip", "AnalyzerSetting", "BellReport", "CorrelationMatrix",
    "chsh_bruteforce", "coincidence_probs", "correlation_matrix", "correlator_e", "emax",
    "u_eigen_closed", "DegenerateXi", "RPrime", "SemiPolar", "consistency_check", "r_prime",
    "semi_polar", "BalancedPoint", "RegionReport", "balanced_concurrence", "balanced_emax",
    "f_boundary", "g_boundary", "no_mixing_case", "scan_grid", "scan_to_csv",
]
