"""Trajectory-Gramian contraction metrics and Riemannian Lyapunov
certificates for nonlinear ODE systems."""

__version__ = "0.1.0"

from . import catalog, dynamics, estimation, geometry, metric, stabilization
from .dynamics import Trajectory, flow, transverse_flow, variational_flow
from .errors import (
    BlowUpError,
    ClosednessError,
    FalsificationError,
    LyapmetricError,
    TailHorizonError,
)
from .estimation import (
    DecayEstimate,
    estimate_gain_function,
    estimate_les,
    estimate_linearized_decay,
    estimate_transverse_decay,
    jacobian_norm_majorant,
)
from .expressions import parse_expression, parse_spec_text, parse_system
from .geometry import (
    DistanceValue,
    GeodesicPath,
    christoffel,
    dini_decrease_bound,
    dini_derivative_V,
    distance_to_origin,
    geodesic_ivp,
    pairwise_distance,
    riemannian_length,
)
from .metric import (
    MetricField,
    ResidualReport,
    constant_metric,
    gramian_at_origin,
    lie_derivative_residual,
    metric_bounds,
    rescaled_metric_field,
    residual_report,
    scalar_metric_field,
    solution_metric,
    transverse_metric_field,
)
from .stabilization import (
    ControllerCertificate,
    construct_U,
    export_closed_loop,
    killing_residual,
    synthesize_controller,
)
from .systems import ControlSystem, SystemModel, TransverseModel

__all__ = [
    "__version__",
    # parsing and models
    "parse_expression", "parse_spec_text", "parse_system",
    "SystemModel", "TransverseModel", "ControlSystem",
    # flows
    "flow", "variational_flow", "transverse_flow", "Trajectory",
    # estimation
    "DecayEstimate",
    "estimate_les", "estimate_gain_function", "estimate_linearized_decay",
    "estimate_transverse_decay", "jacobian_norm_majorant",
    # metrics
    "MetricField", "ResidualReport", "constant_metric", "gramian_at_origin",
    "solution_metric", "transverse_metric_field", "rescaled_metric_field",
    "scalar_metric_field", "lie_derivative_residual", "residual_report",
    "metric_bounds",
    # geometry
    "GeodesicPath", "DistanceValue", "christoffel", "geodesic_ivp",
    "riemannian_length", "distance_to_origin", "dini_derivative_V",
    "dini_decrease_bound", "pairwise_distance",
    # stabilization
    "ControllerCertificate", "killing_residual", "construct_U",
    "synthesize_controller", "export_closed_loop",
    # errors
    "LyapmetricError", "FalsificationError", "BlowUpError",
    "TailHorizonError", "ClosednessError",
    # submodules
    "catalog", "dynamics", "estimation", "geometry", "metric",
    "stabilization",
]
