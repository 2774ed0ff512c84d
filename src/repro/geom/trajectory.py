"""Short-horizon trajectory prediction and conflict measures.

The geometric :class:`~repro.roles.safety_monitor.SafetyMonitor` and the
rule-based :class:`~repro.roles.recovery_planner.EmergencyBrakeRecovery`
both reason about *predicted* trajectories of perceived objects (paper
§IV.B): they roll every object forward under a constant-velocity model and
check minimum separation and time-to-collision over a look-ahead horizon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

from .vec import Vec2

#: Horizon (seconds) used by default for conflict prediction.
DEFAULT_HORIZON_S = 2.0

#: Prediction sampling interval (seconds); matches the simulator tick.
DEFAULT_STEP_S = 0.1


@dataclass(unsafe_hash=True)
class KinematicState:
    """Position and velocity of a point object at a single instant
    (a slotted value, immutable by convention like :class:`Vec2`)."""

    __slots__ = ("position", "velocity")

    position: Vec2
    velocity: Vec2

    def at(self, t: float) -> Vec2:
        """Predicted position after ``t`` seconds under constant velocity."""
        return self.position + self.velocity * t


def predict_positions(
    state: KinematicState,
    horizon_s: float = DEFAULT_HORIZON_S,
    step_s: float = DEFAULT_STEP_S,
) -> List[Vec2]:
    """Sample the constant-velocity prediction, including ``t=0``."""
    if horizon_s < 0.0:
        raise ValueError(f"horizon must be non-negative, got {horizon_s}")
    if step_s <= 0.0:
        raise ValueError(f"step must be positive, got {step_s}")
    steps = int(round(horizon_s / step_s))
    return [state.at(i * step_s) for i in range(steps + 1)]


def closest_point_of_approach(a: KinematicState, b: KinematicState) -> "tuple[float, float]":
    """Time and distance of the closest approach of two constant-velocity objects.

    Returns:
        ``(t_cpa, d_cpa)`` where ``t_cpa >= 0`` is clamped to *now* when the
        objects are already diverging.
    """
    rel_pos = b.position - a.position
    rel_vel = b.velocity - a.velocity
    speed_sq = rel_vel.norm_sq()
    if speed_sq < 1e-12:
        return 0.0, rel_pos.norm()
    t_cpa = max(0.0, -rel_pos.dot(rel_vel) / speed_sq)
    d_cpa = (rel_pos + rel_vel * t_cpa).norm()
    return t_cpa, d_cpa


def time_to_collision(
    a: KinematicState,
    b: KinematicState,
    collision_distance: float,
) -> Optional[float]:
    """Earliest time at which the two objects come within ``collision_distance``.

    Solves the quadratic ``|rel_pos + rel_vel * t| = collision_distance`` for
    the smallest non-negative root.  Returns ``None`` when the objects never
    get that close under the constant-velocity model.  A pair already within
    ``collision_distance`` returns ``0.0``.
    """
    if collision_distance < 0.0:
        raise ValueError(f"collision_distance must be non-negative, got {collision_distance}")
    rel_pos = b.position - a.position
    rel_vel = b.velocity - a.velocity
    c = rel_pos.norm_sq() - collision_distance * collision_distance
    if c <= 0.0:
        return 0.0
    a_coef = rel_vel.norm_sq()
    b_coef = 2.0 * rel_pos.dot(rel_vel)
    if a_coef < 1e-12:
        return None
    disc = b_coef * b_coef - 4.0 * a_coef * c
    if disc < 0.0:
        return None
    sqrt_disc = math.sqrt(disc)
    t_enter = (-b_coef - sqrt_disc) / (2.0 * a_coef)
    if t_enter >= 0.0:
        return t_enter
    t_exit = (-b_coef + sqrt_disc) / (2.0 * a_coef)
    if t_exit >= 0.0:
        # Currently inside would have been caught by ``c <= 0``; a negative
        # entry with positive exit cannot happen for c > 0, but guard anyway.
        return 0.0
    return None


def min_separation_over_horizon(
    a: KinematicState,
    b: KinematicState,
    horizon_s: float = DEFAULT_HORIZON_S,
) -> float:
    """Minimum centre distance over ``[0, horizon_s]`` under constant velocity.

    Evaluates the analytic closest point of approach and clamps it into the
    horizon, so no sampling error is introduced.
    """
    if horizon_s < 0.0:
        raise ValueError(f"horizon must be non-negative, got {horizon_s}")
    t_cpa, _ = closest_point_of_approach(a, b)
    t_eval = min(t_cpa, horizon_s)
    return a.at(t_eval).distance_to(b.at(t_eval))


def stopping_distance(speed: float, max_deceleration: float) -> float:
    """Distance covered while braking from ``speed`` at ``max_deceleration``.

    Used by the emergency-brake recovery planner to decide whether braking
    can still prevent a predicted conflict (paper §V.D notes failures when
    "the unsafe situation developed too rapidly for braking alone").
    """
    if max_deceleration <= 0.0:
        raise ValueError(f"max_deceleration must be positive, got {max_deceleration}")
    if speed < 0.0:
        raise ValueError(f"speed must be non-negative, got {speed}")
    return speed * speed / (2.0 * max_deceleration)


def path_length(points: Sequence[Vec2]) -> float:
    """Total polyline length of a sampled path."""
    return sum(points[i].distance_to(points[i + 1]) for i in range(len(points) - 1))
