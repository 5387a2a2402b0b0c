"""Hyperbolic-plane metric computations and empirical verification of
distortion bounds for holomorphic self-maps of the disc and punctured disc."""

from .bounds import (
    check_fixed_point,
    check_punctured,
    check_two_point,
    constant_keu,
    constant_two_point,
    qlo_bound,
)
from .covering import (
    DegreeResult,
    LiftedMap,
    cover_pi,
    degree_contour,
    lift_map,
    lift_map_eval,
    normalized_lift,
    principal_lift,
    punctured_dist,
)
from .errors import (
    DomainError,
    HypboundError,
    IntegrityError,
    NumericalError,
    PreconditionError,
    UnsupportedError,
    UsageError,
    ValidationError,
)
from .harness import (
    CampaignConfig,
    CampaignReport,
    convergence_demo,
    counterexample_demo,
    halfplane_growth,
    run_campaign,
    run_sample,
)
from .holomaps import (
    BlaschkeProduct,
    Composition,
    HalfPlaneTranslate,
    HoloMap,
    PuncturedExp,
    PuncturedPower,
    RealPartMap,
    declared_degree,
    evaluate,
    map_from_dict,
    sample_map,
)
from .mobius import (
    INF,
    Mobius,
    MobiusClass,
    apply,
    build_disc_automorphism,
    classify,
    dist_to_axis,
    hyperbolic_pull,
    is_infinite,
)
from .models import (
    BOUNDARY_MARGIN,
    HalfDistancePair,
    Model,
    ModelPoint,
    convert,
    density_punctured,
    dist,
    dist_oracle,
    half_sinh_cosh,
)
from .report import BoundReport

__version__ = "0.1.0"
