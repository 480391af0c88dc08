"""Floquet multiparameter estimation toolbox.

Builds truncated extended-space (Sambe) Hamiltonians for time-periodic
two-level systems, maps the exact propagator back to the physical space,
and runs a quantum-metrology pipeline on exact Floquet-mode derivatives:
generators split into eigenmode / quasienergy / multi-photon components,
QFI with its exact decomposition, upper bounds, stroboscopic CFI, and
parameter incompatibility.  Ships a Rashba ring-interferometer model with
topology diagnostics and a rotating-field benchmark with closed-form oracles.
"""
from .sambe import (FloquetBuildError, FloquetMatrix, PeriodicHamiltonian,
                    build_floquet_matrix, fourier_components_from_timedomain,
                    periodic_hamiltonian_from_timedomain)
from .spectral import (AmplitudeTable, DiagonalizationError, FloquetSpectrum,
                       TruncationError, amplitude_table, diagonalize,
                       fold_to_fbz)
from .propagator import (PropagatorSample, TransitionProbability,
                         averaged_probability_longtime,
                         averaged_probability_shirley, evolve,
                         transition_probability)
from .metrology import (EstimationReport, EstimationSession, GeneratorSet,
                        GridEvaluation, InvariantViolation, ParameterEstimate,
                        estimation_report, incompatibility, local_mean, qfi)
from .models import (RashbaModel, RotatingFieldModel, PhaseReport,
                     berry_phase_adiabatic, driving_curvature,
                     instantaneous_spectrum, rotating_generator_analytic,
                     rotating_incompatibility_analytic,
                     rotating_qfi_bound_analytic, total_field, total_phase,
                     unit_mapping, winding_number, winding_number_exact,
                     winding_number_quadrature)
from .reference import (OracleConfig, generator_direct, propagate_direct,
                        unitarity_defect)

__version__ = "0.1.0"

__all__ = [
    "AmplitudeTable", "DiagonalizationError", "EstimationReport",
    "EstimationSession", "FloquetBuildError", "FloquetMatrix",
    "FloquetSpectrum", "GeneratorSet", "GridEvaluation",
    "InvariantViolation", "OracleConfig", "ParameterEstimate",
    "PeriodicHamiltonian", "PhaseReport", "PropagatorSample", "RashbaModel",
    "RotatingFieldModel", "TransitionProbability", "TruncationError",
    "amplitude_table", "averaged_probability_longtime",
    "averaged_probability_shirley", "berry_phase_adiabatic",
    "build_floquet_matrix", "diagonalize", "driving_curvature",
    "estimation_report", "evolve", "fold_to_fbz",
    "fourier_components_from_timedomain", "generator_direct",
    "incompatibility", "instantaneous_spectrum", "local_mean",
    "periodic_hamiltonian_from_timedomain", "propagate_direct", "qfi",
    "rotating_generator_analytic", "rotating_incompatibility_analytic",
    "rotating_qfi_bound_analytic", "total_field", "total_phase",
    "transition_probability", "unit_mapping", "unitarity_defect",
    "winding_number", "winding_number_exact", "winding_number_quadrature",
]
