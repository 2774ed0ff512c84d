"""The simulated world: entities, 100 ms stepping and ground truth.

``World`` is the CARLA stand-in.  It owns the intersection map, the ego
vehicle, background traffic (spawner + IDM controller), pedestrians and the
collision log; one :meth:`World.step` call advances 100 ms of simulated
time, matching the paper's orchestration cadence (§IV.B.2).

The ego's acceleration is *not* chosen here — the Action Execution side of
the framework (:mod:`repro.env.sim_interface`) sets it before each step.
"""

from __future__ import annotations

import itertools
import logging
import random
from typing import List, Optional, Set

from ..geom import footprint_gap, nearest_first
from .collision import CollisionEvent, detect_ego_collisions
from .intersection import default_map
from .pedestrian import Pedestrian
from .scenario import ScenarioSpec
from .traffic import TrafficController, TrafficSpawner
from .vehicle import Vehicle

#: Simulation tick, seconds (the paper aligns processing to 100 ms).
TICK_S = 0.1

#: Footprint gap (m) beyond which a previously logged contact re-arms, so a
#: later, genuinely separate collision with the same entity is logged again.
CONTACT_REARM_GAP = 0.5

logger = logging.getLogger(__name__)


class World:
    """Deterministic, seedable intersection world for one scenario run."""

    def __init__(self, spec: ScenarioSpec) -> None:
        self.spec = spec
        self.intersection = default_map()
        self.time = 0.0
        self.tick_count = 0
        self.dt = TICK_S
        #: RNG stream reserved for in-world stochasticity; seeded from the
        #: scenario so runs are reproducible.
        self.rng = random.Random(spec.seed * 7919 + 13)

        ego_route = self.intersection.route(spec.ego_approach, spec.ego_movement)
        # Entity ids are world-local (ego=1, traffic 2+, pedestrians 1001+)
        # so identical seeds render byte-identical sensor text across runs.
        self.ego = Vehicle(
            route=ego_route,
            s=spec.ego_start_s,
            speed=spec.ego_start_speed,
            is_ego=True,
            vehicle_id=1,
        )
        self.vehicles: List[Vehicle] = [self.ego]
        self.pedestrians: List[Pedestrian] = []
        if spec.pedestrian is not None:
            crosswalk = self.intersection.south_crosswalk
            if spec.pedestrian.from_east:
                from .intersection import Crosswalk

                crosswalk = Crosswalk(crosswalk.end, crosswalk.start)
            self.pedestrians.append(
                Pedestrian(
                    crosswalk=crosswalk,
                    speed=spec.pedestrian.speed,
                    start_time=spec.pedestrian.start_time,
                    pedestrian_id=1001,
                )
            )

        # Traffic ids count up from 2.  The allocator holds no reference to
        # the world, so a finished run's world is freed by reference
        # counting instead of waiting in a cycle for the collector.
        self._spawner = TrafficSpawner(
            self.intersection, spec.spawn_schedule, id_allocator=itertools.count(2).__next__
        )
        self._traffic = TrafficController(self.intersection)
        self.collisions: List[CollisionEvent] = []
        #: Entity ids currently in (suppressed) contact with the ego.  A
        #: contact is logged once on onset and re-armed after separation.
        self._contact_ids: Set[int] = set()
        #: Simulation time at which the ego cleared the conflict zone.
        self.ego_clearance_time: Optional[float] = None
        #: Smallest ground-truth footprint gap between the ego and any other
        #: entity over the run (m) — the near-miss record.
        self.min_true_gap: float = float("inf")

    # ------------------------------------------------------------------
    # stepping
    # ------------------------------------------------------------------
    def step(self) -> None:
        """Advance the world by one 100 ms tick.

        The caller must have applied the ego acceleration for this tick
        (via :meth:`Vehicle.apply_acceleration`) beforehand.
        """
        self._spawner.spawn_due(self.time, self.vehicles)
        self._traffic.control(self.vehicles, self.pedestrians, self.time)

        for vehicle in self.vehicles:
            if not vehicle.finished:
                vehicle.step(self.dt)
        for pedestrian in self.pedestrians:
            pedestrian.step(self.dt, self.time)

        self.time += self.dt
        self.tick_count += 1

        ego_box = self.ego.footprint()
        colliding_ids: Set[int] = set()
        for event in detect_ego_collisions(
            self.ego, self.vehicles, self.pedestrians, self.time
        ):
            colliding_ids.add(event.other_id)
            if event.other_id in self._contact_ids:
                continue
            logger.debug("%s: %s", self.spec.name, event)
            self.collisions.append(event)
            self._contact_ids.add(event.other_id)
        if self._contact_ids - colliding_ids:
            self._rearm_separated_contacts(ego_box, colliding_ids)
        ego_position = self.ego.position
        near = [
            vehicle.footprint()
            for vehicle in self.vehicles
            if not (vehicle.is_ego or vehicle.finished)
            and vehicle.position.distance_to(ego_position) < 15.0
        ]
        near += [
            pedestrian.footprint()
            for pedestrian in self.pedestrians
            if not pedestrian.finished and pedestrian.position.distance_to(ego_position) < 15.0
        ]
        # Only the run's minimum is kept, so a gap that provably cannot
        # undercut it is never computed.
        for bound, shape in nearest_first(ego_box, near):
            if bound >= self.min_true_gap:
                break
            self.min_true_gap = min(self.min_true_gap, footprint_gap(ego_box, shape))

        if self.ego_clearance_time is None and self.ego.cleared_intersection:
            self.ego_clearance_time = self.time
            logger.debug(
                "%s: ego cleared the intersection at t=%.1fs",
                self.spec.name,
                self.time,
            )

    def _rearm_separated_contacts(self, ego_box, colliding_ids: Set[int]) -> None:
        """Drop contact suppression once a pair has genuinely separated.

        An entity stays suppressed while its footprint keeps touching (or
        hovers within :data:`CONTACT_REARM_GAP` of) the ego; once it moves
        clear — or leaves the world — a later impact with the same entity is
        a new collision and gets logged again.
        """
        for other_id in list(self._contact_ids):
            if other_id in colliding_ids:
                continue
            footprint = self._entity_footprint(other_id)
            if footprint is None:
                self._contact_ids.discard(other_id)
                continue
            if footprint_gap(ego_box, footprint) > CONTACT_REARM_GAP:
                self._contact_ids.discard(other_id)

    def _entity_footprint(self, other_id: int):
        """Footprint of a live (unfinished) entity by id, or ``None``."""
        for vehicle in self.vehicles:
            if vehicle.vehicle_id == other_id:
                return None if vehicle.finished else vehicle.footprint()
        for pedestrian in self.pedestrians:
            if pedestrian.pedestrian_id == other_id:
                return None if pedestrian.finished else pedestrian.footprint()
        return None

    # ------------------------------------------------------------------
    # run-state queries
    # ------------------------------------------------------------------
    @property
    def background_vehicles(self) -> List[Vehicle]:
        return [v for v in self.vehicles if not v.is_ego]

    @property
    def had_collision(self) -> bool:
        return bool(self.collisions)

    @property
    def timed_out(self) -> bool:
        return self.time >= self.spec.timeout_s

    @property
    def done(self) -> bool:
        """Run termination: ego cleared and past the box, collided, or timeout."""
        return self.had_collision or self.timed_out or self.ego.finished or (
            self.ego_clearance_time is not None
            and self.time >= self.ego_clearance_time + 2.0
        )

    @property
    def gridlocked(self) -> bool:
        """True when the run timed out with the ego never clearing the box.

        This is the paper's §V.B "stuck" outcome under trajectory spoofing.
        """
        return self.timed_out and self.ego_clearance_time is None and not self.had_collision
