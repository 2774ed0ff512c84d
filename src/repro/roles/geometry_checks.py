"""Shared geometric safety checks.

The paper's SafetyMonitor "verifies if the proposed maneuver maintains a
minimum safety distance from all perceived dynamic objects based on
predicted trajectories" and the RecoveryPlanner uses "the same geometric
checks" (§IV.B).  This module is that single implementation: roll the ego
forward along its route under a maneuver's acceleration profile, roll every
perceived object forward under constant velocity, and report the minimum
separation and the proposed deceleration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..geom import OBB, Vec2, footprint_gap, separating_axis_bound
from ..sim.actions import Maneuver, ManeuverExecutor
from ..sim.intersection import Route
from ..sim.perception import PerceivedObject, PerceptionSnapshot
from ..sim.vehicle import VEHICLE_LENGTH, VEHICLE_WIDTH


@dataclass(unsafe_hash=True)
class SeparationPrediction:
    """Outcome of a predicted-trajectory separation check (a slotted
    value, immutable by convention)."""

    __slots__ = ("min_separation", "time_of_min", "critical_object", "initial_acceleration")

    #: Minimum footprint gap over the horizon (m; 0 = predicted contact).
    min_separation: float
    #: Time at which the minimum occurs (s from now).
    time_of_min: float
    #: Object achieving the minimum, if any object was in range.
    critical_object: Optional[PerceivedObject]
    #: Acceleration the proposed maneuver applies right now (m/s^2).
    initial_acceleration: float


def predict_min_separation(
    snapshot: PerceptionSnapshot,
    route: Route,
    ego_s: float,
    maneuver: Maneuver,
    executor: ManeuverExecutor,
    horizon_s: float = 2.5,
    step_s: float = 0.1,
    objects: Optional[Sequence[PerceivedObject]] = None,
) -> SeparationPrediction:
    """Predict the closest approach between ego and perceived objects.

    The ego is integrated along its route under the maneuver's acceleration
    profile (recomputed each step, so stop-at-line behaviour is honoured);
    objects follow constant-velocity predictions.

    Args:
        snapshot: perceived world (possibly fault-injected).
        route: ego route.
        ego_s: ego arc length along the route.
        maneuver: the proposed tactical action to evaluate.
        executor: maps maneuvers to accelerations.
        horizon_s: prediction horizon (s).
        step_s: integration step (s).
        objects: evaluate against these instead of ``snapshot.objects``.
    """
    if horizon_s <= 0.0:
        raise ValueError(f"horizon must be positive, got {horizon_s}")
    candidates = list(snapshot.objects if objects is None else objects)
    initial_accel = executor.acceleration_for(maneuver, snapshot.ego_speed, ego_s, route)
    if not candidates:
        return SeparationPrediction(
            min_separation=math.inf,
            time_of_min=0.0,
            critical_object=None,
            initial_acceleration=initial_accel,
        )

    # Objects that cannot come near the ego within the horizon are skipped
    # wholesale.
    ego_radius = math.hypot(VEHICLE_LENGTH, VEHICLE_WIDTH) / 2.0
    reach = (snapshot.ego_speed + 1.0) * horizon_s + 10.0
    near: list = []
    for obj in candidates:
        closing_reach = reach + obj.speed * horizon_s + obj.length
        if obj.position.distance_to(snapshot.ego_position) <= closing_reach:
            near.append(obj)
    candidates = near
    if not candidates:
        return SeparationPrediction(
            min_separation=math.inf,
            time_of_min=0.0,
            critical_object=None,
            initial_acceleration=initial_accel,
        )

    footprints = [obj.footprint() for obj in candidates]
    # Per candidate: position, velocity and bounding radius as plain
    # floats, so the centre bounds allocate no ``Vec2``.
    kinematics = [
        (obj.position.x, obj.position.y, obj.velocity.x, obj.velocity.y, shape.bounding_radius())
        for obj, shape in zip(candidates, footprints)
    ]

    # The ego rollout first: arc length and centre at every step, under
    # the maneuver profile.
    steps = int(round(horizon_s / step_s))
    path: "List[Tuple[float, Vec2]]" = []
    s = ego_s
    speed = snapshot.ego_speed
    for i in range(steps + 1):
        if i:
            accel = executor.acceleration_for(maneuver, speed, s, route)
            new_speed = max(0.0, speed + accel * step_s)
            s += (speed + new_speed) / 2.0 * step_s
            speed = new_speed
        path.append((s, route.point_at(s)))

    # Centre bound of every (step, object) pair: the distance between the
    # ego centre and the object's predicted centre (``ego_center.distance_to(
    # obj.position + obj.velocity * t)`` on plain floats, in the same
    # operation order) minus both bounding radii.  It never over-estimates
    # the footprint gap.  Only pairs within 5 m get an exact check.
    near_pairs: "List[Tuple[float, int, int]]" = []
    far_bound = math.inf
    for i, (_, center) in enumerate(path):
        t = i * step_s
        ex, ey = center.x, center.y
        for j, (px, py, vx, vy, radius) in enumerate(kinematics):
            bound = math.hypot(ex - (px + vx * t), ey - (py + vy * t)) - ego_radius - radius
            if bound > 5.0:
                if bound < far_bound:
                    far_bound = bound
            else:
                near_pairs.append((bound, i, j))
    if not near_pairs:
        # Nothing warranted an exact check; report the (safe) lower bound.
        return SeparationPrediction(
            min_separation=far_bound,
            time_of_min=0.0,
            critical_object=None,
            initial_acceleration=initial_accel,
        )

    # Nearest first: once a centre bound exceeds the best gap, no later
    # pair can undercut it.  Ties go to the earliest (step, object), the
    # pair a step-by-step scan would have kept.
    near_pairs.sort()
    ego_boxes: "List[Optional[OBB]]" = [None] * len(path)
    best = math.inf
    best_pair = (len(path), 0)
    for bound, i, j in near_pairs:
        if bound > best:
            break
        ego_box = ego_boxes[i]
        if ego_box is None:
            s, center = path[i]
            ego_box = ego_boxes[i] = OBB(
                center=center,
                heading=route.heading_at(s),
                half_length=VEHICLE_LENGTH / 2.0,
                half_width=VEHICLE_WIDTH / 2.0,
            )
        obj = candidates[j]
        shape = footprints[j].translated(obj.velocity * (i * step_s))
        if isinstance(shape, OBB) and separating_axis_bound(ego_box, shape) > best:
            continue
        separation = footprint_gap(ego_box, shape)
        if separation < best or (separation == best and (i, j) < best_pair):
            best = separation
            best_pair = (i, j)

    i, j = best_pair
    return SeparationPrediction(
        min_separation=best,
        time_of_min=i * step_s,
        critical_object=candidates[j],
        initial_acceleration=initial_accel,
    )


def braking_can_avoid(
    snapshot: PerceptionSnapshot,
    route: Route,
    ego_s: float,
    executor: ManeuverExecutor,
    unsafe_distance: float,
    horizon_s: float = 2.5,
) -> bool:
    """Would an immediate emergency brake keep separation above the limit?

    Used by recovery planning to check whether braking still helps; the
    paper notes failures "when the unsafe situation developed too rapidly
    for braking alone to suffice" (§V.D).
    """
    prediction = predict_min_separation(
        snapshot,
        route,
        ego_s,
        Maneuver.EMERGENCY_BRAKE,
        executor,
        horizon_s=horizon_s,
    )
    return prediction.min_separation >= unsafe_distance
