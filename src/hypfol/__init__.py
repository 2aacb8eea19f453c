"""Geometry of the space of oriented geodesics of hyperbolic 3-space.

Core objects: the hyperboloid model (``lorentz``), oriented geodesics and
their endpoint maps (``geodesics``), the chart kernel, which reads both
neutral metrics from the sphere endpoints of the leaves, and the
classifiers for candidate geodesic foliations (``foliation``), and the
closed-form study families (``families``).  A reporting CLI lives in ``cli``.
"""

__version__ = "0.1.0"

from .errors import (
    BaseMismatchError,
    ConfigError,
    GeodesicMismatchError,
    GeometryError,
    NumericalError,
)
from .lorentz import (
    MODEL_TOL,
    ORIGIN,
    HPoint,
    HTangent,
    mink_inner,
    orthonormal_complement,
    same_point,
)
from .geodesics import (
    JacobiData,
    OrientedGeodesic,
    cross_metric,
    dist_to_geodesic,
    gauss_map_jacobian,
    geodesic_dist_sq,
    make_geodesic,
    same_geodesic,
    svd_rank,
)
from .foliation import (
    CS_STEP,
    FD_STEP,
    VERDICT_TOL,
    VERDICTS,
    ChartJets,
    ClassificationReport,
    CriticalPoint,
    FoliationChart,
    ball_samples,
    chart_jets,
    chart_tangent,
    classify_chart,
    critical_point_scan,
    field_checks,
    grid_arrays,
    grid_axes,
    ring_growth_evidence,
)
from .families import (
    LambdaScan,
    SpiralParams,
    VERTICAL_END,
    definiteness_margin,
    plane_normal_family,
    scan_lambda_max,
    spiral_chart,
    vertical_family,
)
