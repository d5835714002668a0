"""Vector fields: one dynamical system per flow, on a flat state layout."""

from .base import Component, ROTATION, SKEW, System, UNIT, VECTOR, polar_project
from .chaplygin import (
    CotangentSystem,
    GsrSystem,
    LstarGeodesicSystem,
    RubberChaplyginSystem,
    contact_velocity,
    vertical_vector,
)
from .coupled import (
    CoupledFullSystem,
    CoupledReducedSystem,
    NCoupledSystem,
    Partner,
    commutator_constraint_matrices,
)
from .lr import GeodesicLplusRSystem, LplusRSystem, LRSystem, MultiplierError, penalty_pi0
from .support import RubberSupportSystem, SupportSystem

__all__ = [
    "Component",
    "ROTATION",
    "SKEW",
    "UNIT",
    "VECTOR",
    "System",
    "polar_project",
    "LRSystem",
    "LplusRSystem",
    "GeodesicLplusRSystem",
    "MultiplierError",
    "penalty_pi0",
    "CoupledFullSystem",
    "CoupledReducedSystem",
    "NCoupledSystem",
    "Partner",
    "commutator_constraint_matrices",
    "SupportSystem",
    "RubberSupportSystem",
    "RubberChaplyginSystem",
    "CotangentSystem",
    "LstarGeodesicSystem",
    "GsrSystem",
    "contact_velocity",
    "vertical_vector",
]
