"""Direct and inverse spectral tools for the one-dimensional canonical Dirac system."""

from .core import (
    BoundaryAngles,
    BracketFailure,
    ContractError,
    DiracError,
    DomainError,
    Grid,
    GridFunction,
    GridMismatchError,
    InconsistentDataError,
    InterlacingError,
    PoleError,
    PotentialMatrix,
    SingularSystemError,
    Trajectory2,
    cumulative_c,
    inner_product,
    pauli_algebra_selftest,
    read_potential_csv,
    write_potential_csv,
)
from .cauchy import (
    FundamentalMatrix,
    fundamental_matrix,
    initial_state,
    propagate,
    solve_cauchy,
    solve_terminal,
    wronskian,
)
from .eigen import (
    EvfSample,
    SpectralData,
    SpectralDatum,
    char_function,
    eigen_gradient,
    evf,
    expand,
    find_eigenvalues,
    normalized_eigenfunction,
    norming_constants,
    parseval_defect,
    similarity_coefficients,
)
from .twospectra import (
    TwoSpectraInput,
    ambarzumyan_residual,
    norming_from_two_spectra,
    one_spectrum_norming_p0,
    one_spectrum_norming_q0,
)
from .isospectral import (
    IsoResult,
    TSequence,
    ell_sequence,
    omega_l1_distance,
    shift_finite_explicit,
    shift_finite_recurrent,
    shift_one,
    zero_family,
)
from .glreconstruct import (
    GLKernel,
    GLSeriesKernel,
    recover_potential,
    reconstruct,
    solve_gl,
    transformed_solutions,
)
from .halfaxis import (
    ModelSpectrum,
    SurgeryPlan,
    evf_halfaxis,
    evf_halfaxis_derivative,
    general_finite_perturbation,
    halfaxis_eigen_data,
    halfaxis_eigenvalues,
    halfaxis_two_spectra_norming,
    hermite_phi,
    linear_potential,
    one_spectrum_norming_halfaxis,
    plan_steps,
    suggest_x_max,
    surgery,
    weyl_m0,
)
from .twospectra import weyl_m

__version__ = "0.1.0"
