"""Nonholonomic LR and L+R systems on SO(n): simulation and certification."""

from . import diagnostics, integrators, liecore, operators, systems
from .integrators import IntegrationError, IntegratorConfig, Trajectory, integrate, step
from .operators import InertiaOperator
from .systems import (
    CotangentSystem,
    CoupledFullSystem,
    CoupledReducedSystem,
    GeodesicLplusRSystem,
    GsrSystem,
    LplusRSystem,
    LRSystem,
    LstarGeodesicSystem,
    NCoupledSystem,
    RubberChaplyginSystem,
    RubberSupportSystem,
    SupportSystem,
)

__version__ = "0.1.0"
