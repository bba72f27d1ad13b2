"""Two-scale branching calculus for computational fractal geometry.

Covering statistics beta(u, v), their Lipschitz approximation, scaling-limit
spectra, dyadic set synthesis realizing prescribed branching, and similarity
IFS attractor machinery, all on finite lattices with explicit tolerances.
"""

from .grids import (
    CapExceeded,
    GridSpec,
    PiecewiseLinear,
    TwoScaleGrid,
    ValidationReport,
    Violation,
    excess_bound,
    lipschitz_approximation,
    pointwise_max,
    profile_extension,
    validate_branching,
)
from .operators import (
    DeviationReport,
    SpectrumGrid,
    assouad_spectrum,
    commuting_deviation,
    cone_extension,
    monotone_envelope,
    plateau_curve,
    scaling_limit,
    spectrum_envelope,
    upper_spectrum,
    validate_limit_curve,
    validate_monotone_curve,
    validate_monotone_grid,
)
from .synthesis import (
    CompositeDyadicSet,
    DyadicTree,
    ExportedPoints,
    export_points,
    subdivision_tree,
    synthesize_set,
)
from .covering import (
    CoverageGrid,
    PointSet,
    box_dims,
    empirical_branching,
)
from .ifs import (
    FormulaReport,
    SimilarityIFS,
    counting_exponent,
    critical_exponent,
    dimension_range,
    generate_attractor,
    lower_box_profile,
    verify_dimension_formula,
)

__version__ = "0.1.0"
