"""Exact additive-combinatorics toolkit.

Fourier and energy statistics of subsets of finite abelian groups, the
energy-jump structure-extraction pipelines (subspace and Bohr variants),
their corollary drivers, and generators for the two worked example
families.  Everything asserted is computed exactly: integer counts, the
integer Walsh transform on 2-groups, rationals.  Floating point appears in
the DFT on general groups and in the Bohr phase keys, and every branch or
asserted check read off it goes through a proven error bound:
harmonic.transform_error for the DFT, the key's rounding band for Bohr
sets.  Pair counts on general groups are a rounded float convolution only
where harmonic.conv_error proves the rounding exact, and a direct integer
count elsewhere.  Certificates are recounted by integers.
"""

from __future__ import annotations

from .bohr import (
    BohrSet,
    BohrSpec,
    RegularRadiusError,
    dilate,
    find_regular_radius,
    intersect,
    make_bohr_spec,
    materialize,
    regularity_test,
    size_profile,
)
from .families import (
    FiniteField,
    HLambdaSpec,
    PlantedInstance,
    make_finite_field,
    make_h_lambda,
    make_katz_set,
    make_planted,
    make_random_set,
    verify_h_lambda,
    verify_katz_bound,
)
from .groups import (
    GroupMismatchError,
    GroupSpec,
    SizeLimitError,
    boolean_group,
    format_group_text,
    make_group,
    parse_group_text,
)
from .harmonic import FunctionTable, dft, idft, table_from_values, wht_int
from .report import CheckFailure, CheckRecord
from .setstat import (
    GroupSet,
    check_energy_difference_bound,
    check_generalized_triangle,
    check_katz_koester,
    corr_counts,
    difference_set,
    doubling_constant,
    energy,
    full_set,
    group_set,
    higher_energy,
    peak_coefficient,
    profile,
    slice_set,
    sumset,
)
from .spectral import chang_bound, max_dissociated, span, spectrum
from .structure import (
    BohrPiece,
    DensityGuaranteeFailed,
    EnergyJump,
    HypothesisFailure,
    InclusionFailed,
    LargeCoefficient,
    NoJump,
    RegularizationTrace,
    StructureParams,
    StructureResult,
    SubspacePiece,
    brute_force_3B_subspace,
    certify_difference_subset,
    check_hypotheses,
    dichotomy_M,
    extract_bohr,
    extract_subspace,
    find_energy_jump,
    phi_k,
    regularize_density,
)

__version__ = "0.1.0"

__all__ = [
    "BohrPiece",
    "BohrSet",
    "BohrSpec",
    "CheckFailure",
    "CheckRecord",
    "DensityGuaranteeFailed",
    "EnergyJump",
    "FiniteField",
    "FunctionTable",
    "GroupMismatchError",
    "GroupSet",
    "GroupSpec",
    "HLambdaSpec",
    "HypothesisFailure",
    "InclusionFailed",
    "LargeCoefficient",
    "NoJump",
    "PlantedInstance",
    "RegularRadiusError",
    "RegularizationTrace",
    "SizeLimitError",
    "StructureParams",
    "StructureResult",
    "SubspacePiece",
    "boolean_group",
    "brute_force_3B_subspace",
    "certify_difference_subset",
    "chang_bound",
    "check_energy_difference_bound",
    "check_generalized_triangle",
    "check_hypotheses",
    "check_katz_koester",
    "corr_counts",
    "dft",
    "dichotomy_M",
    "difference_set",
    "dilate",
    "doubling_constant",
    "energy",
    "extract_bohr",
    "extract_subspace",
    "find_energy_jump",
    "find_regular_radius",
    "format_group_text",
    "full_set",
    "group_set",
    "higher_energy",
    "idft",
    "intersect",
    "make_bohr_spec",
    "make_finite_field",
    "make_group",
    "make_h_lambda",
    "make_katz_set",
    "make_planted",
    "make_random_set",
    "materialize",
    "max_dissociated",
    "parse_group_text",
    "peak_coefficient",
    "phi_k",
    "profile",
    "regularity_test",
    "regularize_density",
    "size_profile",
    "slice_set",
    "span",
    "spectrum",
    "sumset",
    "table_from_values",
    "verify_h_lambda",
    "verify_katz_bound",
    "wht_int",
    "__version__",
]
