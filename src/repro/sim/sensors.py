"""The Table I sensor suite: world state as textual channel summaries.

The paper's planner consumes eight input channels (Table I), most of them
*textual summaries* produced by the CarlaInterface rather than raw sensor
data.  This module reproduces that design: every channel is rendered from
the (possibly fault-injected) :class:`~repro.sim.perception.PerceptionSnapshot`
and the ego's route, and the prompt templater (:mod:`repro.llm.prompt`)
assembles them into the planner prompt.

Camera channels are structured scene descriptors standing in for RGB
frames — see the substitution table in DESIGN.md.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..geom import Vec2, angle_difference
from .intersection import Route, in_intersection_box
from .perception import ObjectKind, PerceivedObject, PerceptionSnapshot


@dataclass(frozen=True)
class SensorSuite:
    """One tick's worth of all eight Table I channels, rendered to text."""

    lidar_summary: str
    radar_summary: str
    front_camera: str
    third_person_camera: str
    imu_summary: str
    vehicle_speed: str
    waypoints: str
    traffic_controls: str

    def channels(self) -> "dict[str, str]":
        """Channel name -> rendered text, in Table I order."""
        return {
            "LiDAR-based Obstacle Summary": self.lidar_summary,
            "Radar Summary": self.radar_summary,
            "Front RGB Camera": self.front_camera,
            "Third-Person View Camera": self.third_person_camera,
            "IMU Summary": self.imu_summary,
            "Vehicle Speed": self.vehicle_speed,
            "HD Map & Waypoint Data": self.waypoints,
            "Traffic Controls Status": self.traffic_controls,
        }


def _bearing_description(ego_heading: float, ego_position: Vec2, target: Vec2) -> str:
    """Coarse relative bearing ('ahead', 'ahead-left', ...)."""
    relative = angle_difference((target - ego_position).angle(), ego_heading)
    octant = int(round(relative / (math.pi / 4.0))) % 8
    names = [
        "ahead",
        "ahead-left",
        "left",
        "behind-left",
        "behind",
        "behind-right",
        "right",
        "ahead-right",
    ]
    return names[octant]


def _describe_object(snapshot: PerceptionSnapshot, obj: PerceivedObject) -> str:
    distance = obj.position.distance_to(snapshot.ego_position)
    bearing = _bearing_description(snapshot.ego_heading, snapshot.ego_position, obj.position)
    return (
        f"{obj.kind.value} #{obj.object_id}: {distance:.1f} m {bearing}, "
        f"size {obj.length:.1f}x{obj.width:.1f} m, speed {obj.speed:.1f} m/s"
    )


def lidar_summary(snapshot: PerceptionSnapshot, max_range: float = 50.0) -> str:
    """Aggregated nearby objects with positions and dimensions (Table I row 1)."""
    objects = sorted(
        snapshot.nearby(max_range),
        key=lambda o: o.position.distance_to(snapshot.ego_position),
    )
    if not objects:
        return "LiDAR: no obstacles within range."
    lines = [_describe_object(snapshot, obj) for obj in objects]
    return "LiDAR obstacles: " + "; ".join(lines) + "."


def radar_summary(snapshot: PerceptionSnapshot, max_range: float = 60.0) -> str:
    """Range and relative radial velocity per detection (Table I row 2)."""
    detections = []
    for obj in snapshot.nearby(max_range):
        to_obj = obj.position - snapshot.ego_position
        rng = to_obj.norm()
        if rng < 1e-6:
            continue
        direction = to_obj / rng
        radial = (obj.velocity - snapshot.ego_velocity).dot(direction)
        trend = "closing" if radial < -0.1 else ("opening" if radial > 0.1 else "steady")
        detections.append(f"#{obj.object_id} range {rng:.1f} m, radial {radial:+.1f} m/s ({trend})")
    if not detections:
        return "Radar: no detections."
    return "Radar detections: " + "; ".join(detections) + "."


def front_camera_descriptor(snapshot: PerceptionSnapshot, fov_deg: float = 90.0) -> str:
    """Scene descriptor for the front-facing camera (Table I row 3)."""
    half_fov = math.radians(fov_deg) / 2.0
    visible = []
    for obj in snapshot.objects:
        relative = angle_difference(
            (obj.position - snapshot.ego_position).angle(), snapshot.ego_heading
        )
        if abs(relative) <= half_fov:
            visible.append(obj)
    if not visible:
        return "Front camera: clear view of the road ahead."
    parts = [_describe_object(snapshot, obj) for obj in visible[:5]]
    return "Front camera view: " + "; ".join(parts) + "."


def third_person_descriptor(snapshot: PerceptionSnapshot) -> str:
    """Broad contextual view of the intersection (Table I row 4).

    Unlike the front camera this sees the whole scene; the ghost-obstacle
    analysis in §V.B relies on the contrast between this channel (which does
    not show the ghost — the ghost is injected into LiDAR/radar perception)
    and the obstacle summaries (which do).
    """
    real = [obj for obj in snapshot.objects if not obj.is_ghost]
    vehicles = sum(1 for o in real if o.kind is ObjectKind.VEHICLE)
    pedestrians = sum(1 for o in real if o.kind is ObjectKind.PEDESTRIAN)
    in_box = sum(1 for o in real if in_intersection_box(o.position))
    ego_zone = "inside the intersection" if in_intersection_box(snapshot.ego_position) else "approaching the intersection"
    return (
        f"Third-person view: ego {ego_zone}; {vehicles} vehicle(s) and "
        f"{pedestrians} pedestrian(s) visible, {in_box} object(s) inside the box."
    )


def imu_summary(snapshot: PerceptionSnapshot, acceleration: float, yaw_rate: float) -> str:
    """Linear acceleration, angular velocity and heading (Table I row 5)."""
    heading_deg = math.degrees(snapshot.ego_heading) % 360.0
    return (
        f"IMU: longitudinal acceleration {acceleration:+.2f} m/s^2, "
        f"yaw rate {yaw_rate:+.2f} rad/s, heading {heading_deg:.0f} deg."
    )


def speed_summary(snapshot: PerceptionSnapshot) -> str:
    """Current odometry speed (Table I row 6)."""
    return f"Vehicle speed: {snapshot.ego_speed:.1f} m/s."


def waypoint_summary(route: Route, s: float) -> str:
    """Upcoming lane-centre waypoints from the HD map (Table I row 7):
    five points 5 m apart."""
    points = route.points_ahead(s)[4:25:5]
    rendered = ", ".join(f"({p.x:.1f}, {p.y:.1f})" for p in points)
    remaining = max(route.entry_s - s, 0.0)
    if remaining > 0.0:
        position_note = f"{remaining:.1f} m before the intersection entry"
    elif s < route.exit_s:
        position_note = "inside the intersection"
    else:
        position_note = "past the intersection"
    return f"Waypoints ahead: {rendered}; ego is {position_note}."


def traffic_controls_summary() -> str:
    """Signals / signs state (Table I row 8) — the use case is unsignalized."""
    return "Traffic controls: unsignalized four-way intersection; uncontrolled, right-of-way rules apply."


def build_sensor_suite(
    snapshot: PerceptionSnapshot,
    route: Route,
    ego_s: float,
    ego_acceleration: float,
    yaw_rate: float = 0.0,
) -> SensorSuite:
    """Render all eight channels for one tick."""
    return SensorSuite(
        lidar_summary=lidar_summary(snapshot),
        radar_summary=radar_summary(snapshot),
        front_camera=front_camera_descriptor(snapshot),
        third_person_camera=third_person_descriptor(snapshot),
        imu_summary=imu_summary(snapshot, ego_acceleration, yaw_rate),
        vehicle_speed=speed_summary(snapshot),
        waypoints=waypoint_summary(route, ego_s),
        traffic_controls=traffic_controls_summary(),
    )
