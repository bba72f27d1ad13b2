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
    lipschitz_minorant,
    pointwise_max,
    profile_extension,
    rescale,
    validate_branching,
)
from .operators import (
    AssouadSpectrum,
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
    StepFunction,
    export_points,
    step_quantize,
    subdivision_tree,
    synthesize_set,
)
from .covering import (
    CoverageGrid,
    PointSet,
    average_profile,
    box_dims,
    cell_count,
    empirical_branching,
    local_covering,
    spectrum_estimate,
)
from .ifs import (
    DimensionRange,
    FormulaReport,
    SelectionResult,
    SimilarityIFS,
    critical_exponent,
    cylinder_hits,
    dimension_range,
    generate_attractor,
    log_contraction,
    lower_box_profile,
    separated_subfamily,
    verify_dimension_formula,
    words_at_resolution,
)

__version__ = "0.1.0"
