"""Soft-label prototype nearest-neighbor classification.

A small toolkit for classifiers whose training set is a handful of
prototypes carrying soft labels: the inverse-distance-weighted decision
rule, generators for prototype configurations that separate more classes
than they have prototypes, a decision-landscape rasterizer with risk
rendering, and a verification harness for every quantitative claim the
generators make.
"""

__version__ = "0.1.0"

from .core import (  # noqa: E402
    COINCIDENT_TOL,
    PROB_SUM_TOL,
    LabelKind,
    PrototypeSet,
    exact_label,
    from_json_dict,
    label_violations,
    load_json,
    make_prototype_set,
    save_json,
    to_json_dict,
    validate,
)
from .classifier import Classification, classify, classify_batch, evaluate_points  # noqa: E402
from .constructions import (  # noqa: E402
    Construction,
    RadialFit,
    RadialFitError,
    REGISTRY,
    build_named,
    circle_hard_baseline,
    circle_prototype_count,
    circle_soft_fit,
    concentric_ellipses,
    fit_radial_labels,
    n_from_two,
    n_from_two_labels,
    nested_band_labels,
    polygon_pairs,
    polygon_with_center,
    star_pairs,
    three_from_two,
)
from .landscape import (  # noqa: E402
    PALETTE,
    BisectionError,
    MultipleCrossingsError,
    NoCrossingError,
    RasterGrid,
    RegionReport,
    boundary_bisect,
    class_csv_bytes,
    confidence_csv_bytes,
    default_bounds,
    k_sweep,
    pgm_bytes,
    ppm_bytes,
    rasterize,
    region_report,
    risk_render,
    write_pgm,
    write_ppm,
    write_region_report,
)
from .harness import (  # noqa: E402
    CheckResult,
    VerificationReport,
    scaled_label_set,
    shifted_label_set,
    standard_report,
    transformed_set,
    verify_boundaries,
    verify_circle_separation,
    verify_class_count,
    verify_hard_label_oracle,
    verify_invariances,
)

__all__ = [name for name in dir() if not name.startswith("_")]
