"""Exact additive-combinatorics toolkit.

Fourier and energy statistics of subsets of finite abelian groups, the
energy-jump structure-extraction pipelines (subspace and Bohr variants),
their corollary drivers, and generators for the two worked example
families.  Everything asserted is computed exactly: integer counts, the
integer Walsh transform on 2-groups, rationals, and Bohr membership on an
exact integer key.  The DFT on general groups is the one floating-point
kernel, and every branch or asserted check read off it goes through one
proven error model, one formula per bound: harmonic.transform_errors for
transforms (transform_error is its one-column call) and
harmonic.conv_errors for convolutions.  Pair counts on general groups are
a rounded float convolution only where conv_errors proves the rounding
exact and one cost rule prefers a transform, and a direct integer count
of the pair sums elsewhere.  Certificates are recounted by integers.
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
    size_bound_stack,
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
from .harmonic import FunctionTable, dft, wht_int
from .report import CheckFailure, CheckRecord
from .setstat import (
    GroupSet,
    SetStack,
    corr_counts,
    energy_difference_bounds,
    group_set,
    higher_energy,
    katz_koester_stack,
    peak_coefficient,
    profile,
    sumset,
    triangle_stack,
)
from .spectral import chang_bound, max_dissociated, spectrum
from .structure import (
    EnergyJump,
    LargeCoefficient,
    NoJump,
    Piece,
    RegularizationTrace,
    StructureParams,
    StructureResult,
    certify_difference_subset,
    check_hypotheses,
    dichotomy_M,
    extract,
    find_energy_jump,
    phi_k,
    regularize_density,
)

__version__ = "0.1.0"

__all__ = [
    "BohrSet",
    "BohrSpec",
    "CheckFailure",
    "CheckRecord",
    "EnergyJump",
    "FiniteField",
    "FunctionTable",
    "GroupMismatchError",
    "GroupSet",
    "GroupSpec",
    "HLambdaSpec",
    "LargeCoefficient",
    "NoJump",
    "Piece",
    "PlantedInstance",
    "RegularRadiusError",
    "RegularizationTrace",
    "SetStack",
    "SizeLimitError",
    "StructureParams",
    "StructureResult",
    "boolean_group",
    "certify_difference_subset",
    "chang_bound",
    "check_hypotheses",
    "corr_counts",
    "dft",
    "dichotomy_M",
    "dilate",
    "energy_difference_bounds",
    "extract",
    "find_energy_jump",
    "find_regular_radius",
    "format_group_text",
    "group_set",
    "higher_energy",
    "intersect",
    "katz_koester_stack",
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
    "size_bound_stack",
    "size_profile",
    "spectrum",
    "sumset",
    "triangle_stack",
    "verify_h_lambda",
    "verify_katz_bound",
    "wht_int",
    "__version__",
]
