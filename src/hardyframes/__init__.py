"""Numerical frame diagnostics for multiplication-operator orbits on the
Hardy space of the unit disk.

The package represents disk functions by truncated power series, builds
orbits {phi^n f} under multiplication by a symbol phi, estimates frame
bounds from finite sections of the frame operator, and runs scripted
verification suites for the structural statements governing when such an
orbit can be a frame.
"""

from .series import (
    BoundaryGrid,
    BoundarySamples,
    TruncatedSeries,
    add,
    boundary_samples,
    eval_at,
    inner_product,
    monomial,
    mul,
    norm,
    norm_sq,
    norm_via_boundary,
    scale,
    series_from_coeffs,
    zero_series,
)
from .symbols import (
    InnernessReport,
    SymbolRealization,
    SymbolSpec,
    evaluate_symbol,
    innerness_test,
    realize,
    sup_norm_estimate,
)
from .orbits import (
    DecayReport,
    OperatorSection,
    Orbit,
    apply,
    decay_profile,
    matrix_section,
    orbit,
    orbit_for,
)
from .frames import (
    FrameBounds,
    FrameSection,
    GramMatrix,
    apply_frame_operator,
    bounds_from_singular_values,
    bounds_vs_truncation,
    frame_bounds_estimate,
    frame_section,
    frame_sum,
    gram,
    partial_frame_sums,
)
from .diagnostics import (
    CyclicityReport,
    DiskZeros,
    ImageCircleReport,
    KernelVector,
    ResidueClassDecomposition,
    cyclicity_rank,
    image_circle_intersection,
    kernel_orthogonality_witness,
    reproducing_kernel,
    residue_projection,
    zeros_in_disk,
)
from .config import ConfigError, ExperimentConfig, OutputSettings, ToleranceSettings
from .verify import (
    PROPOSITIONS,
    UnknownPropositionError,
    VerificationReport,
    verify,
)

__version__ = "0.1.0"
