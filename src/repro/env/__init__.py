"""Environment interfaces (§III.B.3): the simulator binding."""

from .interface import EnvironmentInterface
from .sim_interface import IntersectionSimInterface

__all__ = [
    "EnvironmentInterface",
    "IntersectionSimInterface",
]
