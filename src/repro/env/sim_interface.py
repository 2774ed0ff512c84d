"""IntersectionSimInterface: the CarlaInterface analog (§IV.B.1).

Binds the orchestration framework to the bundled intersection simulator:
translates world state into the flat dictionaries roles consume, routes
approved maneuvers into ego accelerations, applies the fault pipeline to
every perception snapshot, and steps simulated time.
"""

from __future__ import annotations

import logging
import math
import random
from typing import Any, Dict, Optional

from ..geom import Vec2, footprint_gap, nearest_first
from ..roles.fault_injector import FaultPipeline
from ..sim.actions import LongitudinalLimits, Maneuver, ManeuverExecutor
from ..sim.intersection import Route
from ..sim.perception import ObjectKind, PerceivedObject, PerceptionSnapshot, perceive
from ..sim.scenario import ScenarioSpec
from ..sim.world import World
from .interface import EnvironmentInterface

logger = logging.getLogger(__name__)


class IntersectionSimInterface(EnvironmentInterface):
    """Environment interface over :class:`~repro.sim.world.World`.

    Args:
        spec: scenario to instantiate on every :meth:`reset`.
        pipeline: fault pipeline applied to perception; a fresh one is
            created when omitted.  Hand the same instance to the
            :class:`~repro.roles.fault_injector.FaultInjectorRole`.
        limits: ego longitudinal envelope.

    World-state keys provided to roles each tick:

    ==================  ====================================================
    ``perception``      :class:`~repro.sim.perception.PerceptionSnapshot`
                        (fault-injected)
    ``ego_route``       :class:`~repro.sim.intersection.Route`
    ``ego_s``           arc length along the route (m)
    ``ego_speed``       speed (m/s)
    ``ego_acceleration`` applied acceleration (m/s^2)
    ``ego_jerk``        jerk estimate (m/s^3)
    ``min_separation``  distance to the nearest perceived object (m)
    ``object_count``    perceived objects (int)
    ``in_intersection`` ego inside the conflict zone (bool)
    ``ego_cleared``     ego has fully crossed (bool)
    ``clearance_time``  time the crossing completed (s or None)
    ``time``            simulated time (s)
    ==================  ====================================================
    """

    #: Default measurement noise of the simulated perception stack
    #: (position m, velocity m/s).  Ground-truth-perfect perception makes
    #: the geometric monitor a perfect guardian, which no real stack is;
    #: CARLA-style perception carries estimation error.  Set both to 0 for
    #: noise-free unit testing.
    DEFAULT_POSITION_SIGMA = 0.25
    DEFAULT_VELOCITY_SIGMA = 0.20

    def __init__(
        self,
        spec: ScenarioSpec,
        pipeline: Optional[FaultPipeline] = None,
        limits: Optional[LongitudinalLimits] = None,
        position_sigma: Optional[float] = None,
        velocity_sigma: Optional[float] = None,
    ) -> None:
        self.spec = spec
        self.pipeline = pipeline or FaultPipeline(seed=spec.seed)
        self.executor = ManeuverExecutor(limits)
        self.position_sigma = (
            self.DEFAULT_POSITION_SIGMA if position_sigma is None else position_sigma
        )
        self.velocity_sigma = (
            self.DEFAULT_VELOCITY_SIGMA if velocity_sigma is None else velocity_sigma
        )
        self.world = World(spec)
        self._noise_rng = random.Random(spec.seed * 65537 + 7)
        self._last_maneuver: Optional[Maneuver] = None
        self._last_snapshot: Optional[PerceptionSnapshot] = None
        self._coast_warned = False

    # ------------------------------------------------------------------
    # EnvironmentInterface contract
    # ------------------------------------------------------------------
    def reset(self) -> None:
        logger.debug(
            "reset: scenario %s seed %d", self.spec.name, self.spec.seed
        )
        self.world = World(self.spec)
        self.pipeline.reset(seed=self.spec.seed)
        self._noise_rng = random.Random(self.spec.seed * 65537 + 7)
        self._last_maneuver = None
        self._last_snapshot = None
        self._coast_warned = False

    def _apply_measurement_noise(self, snapshot: PerceptionSnapshot) -> PerceptionSnapshot:
        if self.position_sigma <= 0.0 and self.velocity_sigma <= 0.0:
            return snapshot
        gauss = self._noise_rng.gauss
        position_sigma = self.position_sigma
        velocity_sigma = self.velocity_sigma
        noisy = []
        for obj in snapshot.objects:
            # Draw order: position x, y, then velocity x, y.
            px = gauss(0.0, position_sigma)
            py = gauss(0.0, position_sigma)
            vx = gauss(0.0, velocity_sigma)
            vy = gauss(0.0, velocity_sigma)
            position = obj.position
            velocity = obj.velocity
            noisy.append(
                PerceivedObject(
                    object_id=obj.object_id,
                    kind=obj.kind,
                    position=Vec2(position.x + px, position.y + py),
                    velocity=Vec2(velocity.x + vx, velocity.y + vy),
                    heading=obj.heading,
                    length=obj.length,
                    width=obj.width,
                    source_id=obj.source_id,
                )
            )
        snapshot.objects = noisy
        return snapshot

    def observe(self) -> Dict[str, Any]:
        world = self.world
        ego = world.ego
        snapshot = perceive(world)
        snapshot = self._apply_measurement_noise(snapshot)
        snapshot = self.pipeline.apply(snapshot, ego.route, ego.s)
        self._last_snapshot = snapshot

        ego_box = ego.footprint()
        min_separation = math.inf
        for bound, shape in nearest_first(ego_box, [obj.footprint() for obj in snapshot.objects]):
            if bound >= min_separation:
                break
            min_separation = min(min_separation, footprint_gap(ego_box, shape))
        return {
            "perception": snapshot,
            "ego_route": ego.route,
            "ego_s": ego.s,
            "ego_speed": ego.speed,
            "ego_acceleration": ego.acceleration,
            "ego_jerk": ego.jerk(world.dt),
            "min_separation": min_separation if math.isfinite(min_separation) else 1e3,
            "object_count": len(snapshot.objects),
            "in_intersection": ego.in_intersection,
            "ego_cleared": ego.cleared_intersection,
            "clearance_time": world.ego_clearance_time,
            "time": world.time,
        }

    #: Actuation jerk limits (m/s^3): ordinary maneuvering vs emergency
    #: braking.  Acceleration commands ramp at these rates rather than
    #: stepping instantaneously — brake pressure takes time to build, which
    #: is precisely why "very short time-to-collision" defeats the
    #: emergency brake in the paper's failure cases (§V.D).
    NORMAL_JERK_LIMIT = 15.0
    EMERGENCY_JERK_LIMIT = 20.0

    def apply_action(self, action: Any) -> None:
        """Translate an approved maneuver into an ego acceleration command.

        ``action=None`` (no decision produced this tick) coasts: the ego
        holds its current speed.  That is an uncontrolled default — runs
        with a resilience action-hold policy configured never reach it —
        so the first occurrence per run is logged at WARNING.
        """
        ego = self.world.ego
        if action is None:
            if not self._coast_warned:
                self._coast_warned = True
                logger.warning(
                    "apply_action(None) at t=%.1fs: no decision this tick, "
                    "ego coasts at current speed (configure a resilience "
                    "action-hold policy to substitute a safe action)",
                    self.world.time,
                )
            ego.apply_acceleration(0.0)
            return
        if not isinstance(action, Maneuver):
            raise TypeError(f"expected a Maneuver, got {type(action).__name__}")
        self._last_maneuver = action
        stop_s = self._blocking_stop_s(ego.route, ego.s)
        target = self.executor.acceleration_for(
            action, ego.speed, ego.s, ego.route, stop_s=stop_s
        )
        jerk_limit = (
            self.EMERGENCY_JERK_LIMIT if target <= -6.0 else self.NORMAL_JERK_LIMIT
        )
        max_delta = jerk_limit * self.world.dt
        current = ego.acceleration
        ramped = current + max(-max_delta, min(max_delta, target - current))
        ego.apply_acceleration(ramped)

    #: Vehicles faster than this will clear the corridor on their own (m/s).
    _BLOCKING_VEHICLE_SPEED = 2.5

    #: Stop this far (centre-to-obstacle along the path) short of it (m).
    _STOP_MARGIN = 5.5

    def _blocking_stop_s(self, route: Route, ego_s: float) -> Optional[float]:
        """Arc length to stop at before the nearest path-blocking obstacle.

        Pedestrians block regardless of speed (they are crossing); vehicles
        only when (nearly) static — a real control stack's ACC would treat
        moving vehicles as leaders, which the tactical layer abstracts away.
        """
        snapshot = self._last_snapshot
        if snapshot is None:
            return None
        best: Optional[float] = None
        for obj in snapshot.objects:
            if obj.kind is not ObjectKind.PEDESTRIAN and obj.speed > self._BLOCKING_VEHICLE_SPEED:
                continue
            if obj.position.distance_to(snapshot.ego_position) > 35.0:
                continue
            along = route.first_in_corridor(ego_s, obj.position, 2, 30)
            if along is not None:
                stop = ego_s + float(along) - self._STOP_MARGIN
                if best is None or stop < best:
                    best = stop
        return best

    def advance(self) -> None:
        self.world.step()

    @property
    def time(self) -> float:
        return self.world.time

    @property
    def done(self) -> bool:
        return self.world.done

    def result_info(self) -> Dict[str, Any]:
        world = self.world
        # min_true_gap defaults to +inf until another entity comes within
        # range; JSON has no Infinity token, so the unobserved case is
        # encoded as null plus an explicit flag.
        gap_observed = math.isfinite(world.min_true_gap)
        return {
            "scenario": self.spec.name,
            "seed": self.spec.seed,
            "collisions": len(world.collisions),
            "collision": world.had_collision,
            "clearance_time": world.ego_clearance_time,
            "gridlocked": world.gridlocked,
            "min_true_gap": world.min_true_gap if gap_observed else None,
            "min_true_gap_observed": gap_observed,
            "timed_out": world.timed_out,
            "final_time": world.time,
            "last_maneuver": self._last_maneuver.value if self._last_maneuver else None,
        }
