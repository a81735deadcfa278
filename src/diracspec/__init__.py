"""Direct and inverse spectral tools for the one-dimensional canonical Dirac system.

The namespace is lazy (PEP 562): ``_EXPORTS`` is the one table of public
names, grouped by the submodule that defines them.  A name is imported from
its submodule on first access and then cached here, so
``from diracspec import find_eigenvalues`` loads only ``core``, ``cauchy``
and ``eigen``.  A submodule is reached the same way, as ``diracspec.halfaxis``.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "core": (
        "BoundaryAngles", "BracketFailure", "ContractError", "DiracError", "DomainError", "Grid",
        "GridFunction", "GridMismatchError", "InconsistentDataError", "InterlacingError",
        "PoleError", "PotentialMatrix", "SingularSystemError", "Trajectory2", "cumulative_c",
        "inner_product", "pauli_algebra_selftest", "read_potential_csv", "write_potential_csv",
    ),
    "cauchy": (
        "FundamentalMatrix", "fundamental_matrix", "initial_state", "propagate", "solve_cauchy",
        "solve_terminal", "wronskian",
    ),
    "eigen": (
        "EvfSample", "SpectralData", "SpectralDatum", "char_function", "eigen_gradient", "evf",
        "expand", "find_eigenvalues", "normalized_eigenfunction", "norming_constants",
        "parseval_defect", "similarity_coefficients",
    ),
    "twospectra": (
        "TwoSpectraInput", "ambarzumyan_residual", "norming_from_two_spectra",
        "one_spectrum_norming_p0", "one_spectrum_norming_q0", "weyl_m",
    ),
    "isospectral": (
        "IsoResult", "TSequence", "ell_sequence", "omega_l1_distance", "shift_finite_explicit",
        "shift_finite_recurrent", "shift_one", "zero_family",
    ),
    "glreconstruct": (
        "GLKernel", "GLSeriesKernel", "recover_potential", "reconstruct", "solve_gl",
        "transformed_solutions",
    ),
    "halfaxis": (
        "ModelSpectrum", "SurgeryPlan", "evf_halfaxis", "evf_halfaxis_derivative",
        "general_finite_perturbation", "halfaxis_eigen_data", "halfaxis_eigenvalues",
        "halfaxis_two_spectra_norming", "hermite_phi", "linear_potential",
        "one_spectrum_norming_halfaxis", "plan_steps", "suggest_x_max", "surgery", "weyl_m0",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"finite_rank"}

__all__ = list(_HOME)


def __getattr__(name):
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
        globals()[name] = value
        return value
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
