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
    TruncatedSeries,
    boundary_samples,
    inner_product,
    monomial,
    mul,
    norm,
    norm_sq,
    series_from_coeffs,
)
from .symbols import (
    InnernessReport,
    SymbolRealization,
    SymbolSpec,
    evaluate_symbol,
    innerness_test,
    realize,
)
from .orbits import (
    DecayReport,
    Orbit,
    decay_profile,
    orbit,
    orbit_for,
)
from .frames import (
    FrameBounds,
    bounds_from_singular_values,
    bounds_vs_truncation,
    frame_bounds_estimate,
    frame_sum,
    gram,
    partial_frame_sums,
)
from .diagnostics import (
    CyclicityReport,
    DiskZeros,
    ImageCircleReport,
    cyclicity_rank,
    image_circle_intersection,
    kernel_orthogonality_witness,
    reproducing_kernel,
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
