"""Tactical features the planner extracts from its perceived world.

Both the surrogate LLM (:mod:`repro.llm.surrogate`) and the rule-based
baseline planner reason over these features.  They are computed from the
*perceived* (possibly fault-injected) snapshot — ghost obstacles and
spoofed trajectories flow straight into the threat assessment, which is
exactly the attack surface the paper exploits (§IV.B).

The central quantity is the closest point of approach (CPA) between each
object and the ego's *intended* motion: "if I keep going (or start going),
how close do we get, and when".  Objects whose CPA stays wide are
background traffic; narrow CPAs within the horizon are threats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

from ..geom import KinematicState, Vec2, angle_difference, closest_point_of_approach
from ..sim.intersection import Route, in_intersection_box
from ..sim.perception import ObjectKind, PerceivedObject, PerceptionSnapshot


@dataclass(unsafe_hash=True)
class Threat:
    """One perceived object assessed as tactically relevant (a slotted
    value, immutable by convention).

    Attributes:
        obj: the perceived object.
        distance: current centre distance to the ego (m).
        time_to_conflict: seconds until closest approach under the ego's
            intended motion.
        conflict_distance: distance at closest approach (m).
        inside_box: the object is currently inside the conflict zone.
        closing_speed: rate at which the object closes on the ego (m/s,
            positive = closing); spoofed-aggressive trajectories show up as
            anomalously high values here.
        on_ego_path: pedestrian on/near the ego's lane ahead.
        severity: scalar urgency in [0, 1].
    """

    __slots__ = (
        "obj", "distance", "time_to_conflict", "conflict_distance",
        "inside_box", "closing_speed", "on_ego_path", "severity",
    )

    obj: PerceivedObject
    distance: float
    time_to_conflict: float
    conflict_distance: float
    inside_box: bool
    closing_speed: float
    on_ego_path: bool
    severity: float


@dataclass
class PlannerObservation:
    """Everything the tactical planner knows at one tick."""

    time: float
    ego_speed: float
    distance_to_entry: float
    in_intersection: bool
    past_intersection: bool
    threats: List[Threat] = field(default_factory=list)
    #: Distance to the nearest object within a forward cone on the ego lane
    #: (m); ``inf`` when clear.  Injected ghost obstacles land here.
    obstacle_ahead_distance: float = math.inf
    #: Number of perceived objects — a crude scene-complexity proxy that
    #: modulates the surrogate's error rates.
    object_count: int = 0
    #: Vehicles within 30 m of the conflict zone still heading toward it —
    #: what an ultra-conservative (spooked) planner refuses to cross against.
    approaching_near_count: int = 0

    @property
    def max_severity(self) -> float:
        return max((t.severity for t in self.threats), default=0.0)

    @property
    def pressing_threats(self) -> List[Threat]:
        """Threats urgent enough to shape the maneuver decision."""
        return [t for t in self.threats if t.severity >= 0.35]

    @property
    def max_closing_speed(self) -> float:
        return max((t.closing_speed for t in self.threats), default=0.0)


#: Planning horizon: CPAs farther out are ignored (s).
_HORIZON_S = 7.0

#: CPA distance below which an encounter is a potential conflict (m).
_CONFLICT_CPA_M = 6.5

#: CPA distance at or below which a conflict is treated as certain —
#: vehicle footprints overlap when centres pass this close (m).
_CERTAIN_CPA_M = 3.0

#: Speed assumed for a stopped/slow ego when judging "can I go now" (m/s).
_INTENT_SPEED = 4.5

#: Relative-heading threshold for an opposite-lane pass (rad from 180 deg).
_ANTIPARALLEL_TOL = math.radians(30.0)

#: Lateral offset at CPA above which an antiparallel encounter is a normal
#: opposite-lane pass rather than a head-on conflict (m).
_PASS_LATERAL_M = 1.2

#: Closing speed (m/s) above which an encounter reads as aggressive and the
#: opposite-lane pass discount no longer applies.
_AGGRESSIVE_CLOSING_MPS = 19.0

#: Distance a vehicle covers traversing the conflict zone (m): box diameter
#: plus one car length.
_BOX_CROSSING_LENGTH_M = 18.5

#: Slack added around predicted occupancy intervals (s).
_OCCUPANCY_MARGIN_S = 0.7

#: Vehicles slower than this outside the box are not treated as en-route
#: occupants (they are stopped/creeping at their line).
_MIN_OCCUPANCY_SPEED = 2.8

#: Cap for the gap-acceptance severity component; pure occupancy overlap
#: warrants yielding, not emergency reactions.
_OCCUPANCY_SEVERITY_CAP = 0.6


def _intended_ego_state(
    snapshot: PerceptionSnapshot, route: Route, ego_s: float
) -> KinematicState:
    """Ego state under its *intended* motion: moving along the route even
    when currently stopped, so gap acceptance is judged for "going now"."""
    speed = max(snapshot.ego_speed, _INTENT_SPEED)
    heading = route.heading_at(ego_s)
    return KinematicState(position=snapshot.ego_position, velocity=Vec2.unit(heading) * speed)


def _occupancy_overlap(
    obj: PerceivedObject,
    ego_window: "tuple[float, float]",
) -> "tuple[float, float]":
    """(overlap seconds, object box ETA) between the object's predicted
    conflict-zone occupancy and the ego's crossing window.

    Gap-acceptance component: a vehicle that will be inside the box while
    the ego crosses is a conflict even when straight-line CPA happens to
    thread past it.
    """
    inside = in_intersection_box(obj.position)
    if inside:
        eta = 0.0
    else:
        if obj.speed < _MIN_OCCUPANCY_SPEED or obj.velocity.dot(-obj.position) <= 0.0:
            return 0.0, math.inf
        box_distance = max(obj.position.norm() - 7.0, 0.0)
        eta = box_distance / obj.speed
    crossing = _BOX_CROSSING_LENGTH_M / max(obj.speed, 2.0)
    occupancy = (eta - _OCCUPANCY_MARGIN_S, eta + crossing + _OCCUPANCY_MARGIN_S)
    overlap = min(occupancy[1], ego_window[1]) - max(occupancy[0], ego_window[0])
    return max(0.0, overlap), eta


def _assess_vehicle(
    snapshot: PerceptionSnapshot,
    obj: PerceivedObject,
    ego_intent: KinematicState,
    ego_window: "tuple[float, float]",
) -> Optional[Threat]:
    distance = obj.position.distance_to(snapshot.ego_position)
    if distance > 55.0:
        return None
    t_cpa, d_cpa = closest_point_of_approach(ego_intent, obj.kinematic_state())
    to_ego = snapshot.ego_position - obj.position
    rng = max(to_ego.norm(), 1e-6)
    closing = (obj.velocity - snapshot.ego_velocity).dot(to_ego / rng)

    # Collision-course component: how close does the straight-line
    # prediction actually get?
    if t_cpa > _HORIZON_S or d_cpa > _CONFLICT_CPA_M:
        cpa_severity = 0.0
    else:
        if d_cpa <= _CERTAIN_CPA_M:
            geometry = 1.0
        else:
            geometry = max(
                0.0, (_CONFLICT_CPA_M - d_cpa) / (_CONFLICT_CPA_M - _CERTAIN_CPA_M)
            )
        urgency = max(0.0, 1.0 - t_cpa / _HORIZON_S)
        cpa_severity = min(1.0, geometry * (0.4 + 0.6 * urgency))

    # Gap-acceptance component: temporal overlap of box occupancies.
    overlap_s, box_eta = _occupancy_overlap(obj, ego_window)
    occupancy_severity = 0.0
    if overlap_s > 0.0 and box_eta <= _HORIZON_S:
        occupancy_severity = _OCCUPANCY_SEVERITY_CAP * min(1.0, overlap_s / 1.5)

    severity = max(cpa_severity, occupancy_severity)
    if severity <= 0.0:
        return None

    # Opposite-lane passes: roughly antiparallel motion with the CPA offset
    # mostly lateral is normal traffic, not a conflict.  An *implausibly*
    # fast approach defeats the discount: anomalous behaviour reads as
    # aggressive, which is exactly the lever trajectory spoofing pulls on
    # the planner (§V.B).
    is_pass = False
    ego_heading = ego_intent.velocity.angle()
    if obj.speed > 0.5 and closing < _AGGRESSIVE_CLOSING_MPS:
        heading_gap = abs(angle_difference(obj.velocity.angle(), ego_heading + math.pi))
        if heading_gap <= _ANTIPARALLEL_TOL:
            rel_at_cpa = obj.kinematic_state().at(t_cpa) - ego_intent.at(t_cpa)
            lateral = abs(rel_at_cpa.dot(Vec2.unit(ego_heading).perpendicular()))
            is_pass = lateral >= _PASS_LATERAL_M
    if is_pass:
        severity *= 0.15

    return Threat(
        obj=obj,
        distance=distance,
        time_to_conflict=min(t_cpa, box_eta),
        conflict_distance=d_cpa,
        inside_box=in_intersection_box(obj.position),
        closing_speed=closing,
        on_ego_path=False,
        severity=severity,
    )


def _assess_pedestrian(
    snapshot: PerceptionSnapshot,
    obj: PerceivedObject,
    route: Route,
    ego_s: float,
) -> Optional[Threat]:
    distance = obj.position.distance_to(snapshot.ego_position)
    if distance > 35.0:
        return None
    on_path = False
    ahead = route.points_ahead(ego_s)
    for k in range(3, 25, 3):
        path_point = ahead[k - 1]
        eta = k / max(snapshot.ego_speed, 1.5)
        future = obj.position + obj.velocity * eta
        if future.distance_to(path_point) < 2.5 or obj.position.distance_to(path_point) < 2.0:
            on_path = True
            break
    if not on_path:
        return None
    severity = min(1.0, 0.5 + (1.0 - distance / 35.0) * 0.5)
    return Threat(
        obj=obj,
        distance=distance,
        time_to_conflict=distance / max(snapshot.ego_speed, 1.5),
        conflict_distance=0.0,
        inside_box=in_intersection_box(obj.position),
        closing_speed=max(0.0, snapshot.ego_speed),
        on_ego_path=True,
        severity=severity,
    )


#: An object is "blocking" only when nearly static; crossing traffic sweeps
#: through the lane corridor but keeps moving (m/s).
_BLOCKING_SPEED = 2.5


def _obstacle_ahead(snapshot: PerceptionSnapshot, route: Route, ego_s: float) -> float:
    """Along-path distance to the nearest (near-)static object blocking the
    ego's lane corridor ahead.  Injected ghost obstacles — inserted static on
    the lane — land here; crossing traffic does not (it is fast), and
    opposite-lane traffic does not (it is outside the corridor)."""
    best = math.inf
    for obj in snapshot.objects:
        if obj.speed > _BLOCKING_SPEED:
            continue
        if obj.position.distance_to(snapshot.ego_position) > 30.0:
            continue
        along = route.first_in_corridor(ego_s, obj.position, 1, 25)
        if along is not None:
            best = min(best, float(along))
    return best


def observe(
    snapshot: PerceptionSnapshot,
    route: Route,
    ego_s: float,
) -> PlannerObservation:
    """Build the planner's tactical observation for this tick."""
    ego_intent = _intended_ego_state(snapshot, route, ego_s)
    window_speed = max(snapshot.ego_speed, 5.5)
    enter = max(route.entry_s - ego_s, 0.0) / window_speed
    ego_window = (enter, enter + _BOX_CROSSING_LENGTH_M / window_speed)
    threats: List[Threat] = []
    for obj in snapshot.objects:
        if obj.kind is ObjectKind.PEDESTRIAN:
            threat = _assess_pedestrian(snapshot, obj, route, ego_s)
        else:
            threat = _assess_vehicle(snapshot, obj, ego_intent, ego_window)
        if threat is not None:
            threats.append(threat)
    threats.sort(key=lambda t: -t.severity)

    approaching_near = 0
    for obj in snapshot.objects:
        if obj.kind is ObjectKind.PEDESTRIAN:
            continue
        near_box = obj.position.norm() <= 7.0 + 30.0
        toward_box = obj.speed > 1.0 and obj.velocity.dot(-obj.position) > 0.0
        if near_box and (toward_box or in_intersection_box(obj.position)):
            approaching_near += 1

    return PlannerObservation(
        time=snapshot.time,
        ego_speed=snapshot.ego_speed,
        distance_to_entry=route.entry_s - ego_s,
        in_intersection=in_intersection_box(snapshot.ego_position),
        past_intersection=ego_s >= route.exit_s,
        threats=threats,
        obstacle_ahead_distance=_obstacle_ahead(snapshot, route, ego_s),
        object_count=len(snapshot.objects),
        approaching_near_count=approaching_near,
    )
