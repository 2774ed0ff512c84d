"""Perceived-object lists: the world as the planner sees it.

The paper's planner never sees simulator ground truth — it sees an object
list produced by (simulated) perception, and the
:class:`~repro.roles.fault_injector.FaultInjector` manipulates exactly this
list (ghost obstacles, spoofed trajectories; §IV.B).  Keeping perception an
explicit, copyable snapshot is what makes those attacks injectable without
touching the physics.
"""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass, field
from typing import List, Optional

from ..geom import Circle, KinematicState, OBB, Shape, Vec2

logger = logging.getLogger(__name__)


class ObjectKind(enum.Enum):
    """Classification labels produced by perception."""

    VEHICLE = "vehicle"
    PEDESTRIAN = "pedestrian"
    STATIC = "static"


@dataclass(init=False, unsafe_hash=True)
class PerceivedObject:
    """One entry of the perceived object list: a slotted value, immutable
    by convention (attacks and noise build changed copies).

    Attributes:
        object_id: perception track id (matches the simulator entity id for
            real objects; ghosts get fresh negative ids).
        kind: classification label.
        position: world position (m).
        velocity: world velocity (m/s).
        heading: world heading (radians).
        length / width: footprint extents; pedestrians use ``length`` as the
            diameter.
        source_id: id of the ground-truth entity, ``None`` for injected
            ghosts.  Roles must not use this field for decisions — it exists
            for post-hoc analysis of attack impact only.
    """

    __slots__ = (
        "object_id", "kind", "position", "velocity", "heading", "length", "width", "source_id"
    )

    object_id: int
    kind: ObjectKind
    position: Vec2
    velocity: Vec2
    heading: float
    length: float
    width: float
    source_id: Optional[int]

    # Written by hand for the ``source_id`` default, which a slot cannot
    # carry as a class attribute.
    def __init__(
        self, object_id: int, kind: ObjectKind, position: Vec2, velocity: Vec2,
        heading: float, length: float, width: float, source_id: Optional[int] = None,
    ) -> None:
        self.object_id = object_id
        self.kind = kind
        self.position = position
        self.velocity = velocity
        self.heading = heading
        self.length = length
        self.width = width
        self.source_id = source_id

    @property
    def is_ghost(self) -> bool:
        """True for objects with no ground-truth counterpart (analysis only)."""
        return self.source_id is None

    @property
    def speed(self) -> float:
        return self.velocity.norm()

    def kinematic_state(self) -> KinematicState:
        return KinematicState(position=self.position, velocity=self.velocity)

    def footprint(self) -> Shape:
        if self.kind is ObjectKind.PEDESTRIAN:
            return Circle(center=self.position, radius=self.length / 2.0)
        return OBB(
            center=self.position,
            heading=self.heading,
            half_length=self.length / 2.0,
            half_width=self.width / 2.0,
        )

    def with_velocity(self, velocity: Vec2) -> "PerceivedObject":
        """Copy with a replaced velocity (trajectory spoofing)."""
        return PerceivedObject(
            self.object_id, self.kind, self.position, velocity,
            self.heading, self.length, self.width, self.source_id,
        )

    def with_position(self, position: Vec2) -> "PerceivedObject":
        """Copy with a replaced position (sensor bias / GPS spoofing)."""
        return PerceivedObject(
            self.object_id, self.kind, position, self.velocity,
            self.heading, self.length, self.width, self.source_id,
        )


@dataclass
class PerceptionSnapshot:
    """Everything perception delivers for one tick.

    Attributes:
        time: simulation time of the snapshot (s).
        ego_position / ego_velocity / ego_heading / ego_speed: ego odometry.
        objects: perceived dynamic objects, ego excluded.
    """

    time: float
    ego_position: Vec2
    ego_velocity: Vec2
    ego_heading: float
    ego_speed: float
    objects: List[PerceivedObject] = field(default_factory=list)

    def nearby(self, radius: float) -> List[PerceivedObject]:
        """Objects within ``radius`` metres of the ego."""
        return [
            obj for obj in self.objects
            if obj.position.distance_to(self.ego_position) <= radius
        ]

    def copy(self) -> "PerceptionSnapshot":
        """Shallow-copy with a fresh object list (objects are immutable)."""
        return PerceptionSnapshot(
            time=self.time,
            ego_position=self.ego_position,
            ego_velocity=self.ego_velocity,
            ego_heading=self.ego_heading,
            ego_speed=self.ego_speed,
            objects=list(self.objects),
        )


#: Perception range of the simulated sensor suite (m).
PERCEPTION_RANGE = 60.0


def perceive(world: "object", perception_range: float = PERCEPTION_RANGE) -> PerceptionSnapshot:
    """Build the ground-truth-faithful perception snapshot for the ego.

    Fault injection happens *after* this call, on the snapshot — see
    :class:`~repro.roles.fault_injector.FaultInjector`.

    Args:
        world: a :class:`~repro.sim.world.World` (typed loosely to avoid a
            circular import; duck-typed on the attributes used).
        perception_range: sensing radius around the ego (m).
    """
    ego = world.ego
    snapshot = PerceptionSnapshot(
        time=world.time,
        ego_position=ego.position,
        ego_velocity=ego.velocity,
        ego_heading=ego.heading,
        ego_speed=ego.speed,
    )
    for vehicle in world.vehicles:
        if vehicle.is_ego or vehicle.finished:
            continue
        if vehicle.position.distance_to(ego.position) > perception_range:
            continue
        snapshot.objects.append(
            PerceivedObject(
                object_id=vehicle.vehicle_id,
                kind=ObjectKind.VEHICLE,
                position=vehicle.position,
                velocity=vehicle.velocity,
                heading=vehicle.heading,
                length=vehicle.length,
                width=vehicle.width,
                source_id=vehicle.vehicle_id,
            )
        )
    for pedestrian in world.pedestrians:
        if pedestrian.finished:
            continue
        if pedestrian.position.distance_to(ego.position) > perception_range:
            continue
        snapshot.objects.append(
            PerceivedObject(
                object_id=pedestrian.pedestrian_id,
                kind=ObjectKind.PEDESTRIAN,
                position=pedestrian.position,
                velocity=pedestrian.velocity_at(world.time),
                heading=pedestrian.heading,
                length=pedestrian.radius * 2.0,
                width=pedestrian.radius * 2.0,
                source_id=pedestrian.pedestrian_id,
            )
        )
    if logger.isEnabledFor(logging.DEBUG):
        logger.debug(
            "t=%.1fs: %d objects within %.0f m of the ego",
            world.time,
            len(snapshot.objects),
            perception_range,
        )
    return snapshot
