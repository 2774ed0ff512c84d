"""Planar geometry substrate shared by the simulator and the V&V roles."""

from .vec import Vec2, angle_difference
from .shapes import (
    OBB,
    Circle,
    Shape,
    circle_overlaps_circle,
    footprint_gap,
    nearest_first,
    obb_overlaps_circle,
    obb_overlaps_obb,
    separating_axis_bound,
    shapes_overlap,
)
from .trajectory import (
    DEFAULT_HORIZON_S,
    DEFAULT_STEP_S,
    KinematicState,
    closest_point_of_approach,
    min_separation_over_horizon,
    path_length,
    predict_positions,
    stopping_distance,
    time_to_collision,
)

__all__ = [
    "Vec2",
    "angle_difference",
    "OBB",
    "Circle",
    "Shape",
    "shapes_overlap",
    "obb_overlaps_obb",
    "obb_overlaps_circle",
    "circle_overlaps_circle",
    "footprint_gap",
    "nearest_first",
    "separating_axis_bound",
    "KinematicState",
    "closest_point_of_approach",
    "time_to_collision",
    "min_separation_over_horizon",
    "predict_positions",
    "stopping_distance",
    "path_length",
    "DEFAULT_HORIZON_S",
    "DEFAULT_STEP_S",
]
