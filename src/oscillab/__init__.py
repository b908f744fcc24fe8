"""Oscillons in a parametrically forced complex field equation.

Numerical toolkit for a one-dimensional complex field U(x, t) obeying

    U_t = (mu + i omega) U + (alpha + i beta) U_xx + C |U|^2 U
          + i Re(U) F cos(2t)

with periodic boundary conditions, and for its weak-damping amplitude
description, the forced complex Ginzburg-Landau equation

    A_T = (mu + i nu) A + (alpha + i beta) A_XX + C |A|^2 A + Gamma conj(A).

Provides exponential time differencing, spatially uniform response states,
Floquet analysis of the flat problem, Allen-Cahn reductions with sech
oscillon profiles, and pseudo-arclength continuation of localized states in
either description.
"""
from .core import (
    FcglParams,
    FlatState,
    FlatStateSet,
    ModelParams,
    ScalingMap,
    dispersion,
    flat_states,
    gamma_onset,
)
from .errors import (
    BlowUpError,
    ConfigError,
    CriticalForcingNotFoundError,
    DegenerateReductionError,
    DivergenceError,
    ExistenceError,
    InvalidFieldError,
    OscillabError,
    ParameterError,
    ShapeError,
    SingularReductionError,
    StalledBranchError,
)
from .fields import ComplexField, solution_norm
from .etd import (
    Etd2Stepper,
    SpectralStepper,
    etd2_weights,
    make_scheme,
    make_stepper,
    run_to_steady,
)
from .floquet import (
    FloquetPair,
    floquet_multipliers,
    mathieu_critical,
    monodromy_critical,
    weak_critical_forcing,
)
from .reduction import (
    AllenCahnCoeffs,
    SechProfile,
    onset_phase,
    strong_ac_coeffs,
    strong_sech_pde,
    weak_ac_coeffs,
    weak_response_phase,
    weak_sech_fcgl,
    weak_sech_pde,
)
from .continuation import (
    Branch,
    BranchPoint,
    ContinuationControls,
    FcglSteadyProblem,
    HarmonicPdeState,
    PdeHarmonicProblem,
    SteadyFcglState,
    branch_overlay_max_diff,
    classify_stability_fcgl,
    classify_stability_pde,
    continue_branch,
    newton_fcgl,
    newton_pde,
    newton_solve,
    project_snapshots,
    timestepper_harmonics,
)

__version__ = "0.1.0"

__all__ = [
    "AllenCahnCoeffs", "BlowUpError", "Branch", "BranchPoint", "ComplexField",
    "ConfigError", "ContinuationControls", "CriticalForcingNotFoundError",
    "DegenerateReductionError", "DivergenceError", "Etd2Stepper",
    "ExistenceError", "FcglParams", "FcglSteadyProblem", "FlatState",
    "FlatStateSet", "FloquetPair", "HarmonicPdeState", "InvalidFieldError",
    "ModelParams", "OscillabError", "ParameterError", "PdeHarmonicProblem",
    "ScalingMap", "SechProfile", "ShapeError", "SingularReductionError",
    "SpectralStepper", "StalledBranchError", "SteadyFcglState",
    "branch_overlay_max_diff", "classify_stability_fcgl",
    "classify_stability_pde", "continue_branch", "dispersion", "etd2_weights",
    "flat_states", "floquet_multipliers", "gamma_onset",
    "make_scheme", "make_stepper",
    "mathieu_critical", "monodromy_critical", "newton_fcgl", "newton_pde",
    "newton_solve", "onset_phase", "project_snapshots",
    "run_to_steady", "solution_norm", "strong_ac_coeffs", "strong_sech_pde",
    "timestepper_harmonics", "weak_ac_coeffs", "weak_critical_forcing",
    "weak_response_phase", "weak_sech_fcgl", "weak_sech_pde",
]
