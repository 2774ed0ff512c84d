"""Tests for the shared geometric safety checks."""

import math
import random

import pytest

from repro.geom import OBB, Vec2, footprint_gap
from repro.roles import braking_can_avoid, predict_min_separation
from repro.sim import (
    Approach,
    IntersectionMap,
    Maneuver,
    ManeuverExecutor,
    Movement,
    ObjectKind,
    PerceivedObject,
    PerceptionSnapshot,
)
from repro.sim.vehicle import VEHICLE_LENGTH, VEHICLE_WIDTH

_MAP = IntersectionMap()
_ROUTE = _MAP.route(Approach.SOUTH, Movement.STRAIGHT)


def snapshot(ego_s=40.0, ego_speed=8.0, objects=(), route=_ROUTE):
    heading = route.heading_at(ego_s)
    return PerceptionSnapshot(
        time=0.0,
        ego_position=route.point_at(ego_s),
        ego_velocity=Vec2.unit(heading) * ego_speed,
        ego_heading=heading,
        ego_speed=ego_speed,
        objects=list(objects),
    )


def blocker(ego_s, ahead, speed=0.0):
    s = ego_s + ahead
    return PerceivedObject(
        object_id=5,
        kind=ObjectKind.VEHICLE,
        position=_ROUTE.point_at(s),
        velocity=Vec2.unit(_ROUTE.heading_at(s)) * speed,
        heading=_ROUTE.heading_at(s),
        length=4.5,
        width=2.0,
        source_id=5,
    )


@pytest.fixture
def executor():
    return ManeuverExecutor()


class TestPredictMinSeparation:
    def test_empty_scene_is_infinite(self, executor):
        prediction = predict_min_separation(
            snapshot(), _ROUTE, 40.0, Maneuver.PROCEED, executor
        )
        assert math.isinf(prediction.min_separation)
        assert prediction.critical_object is None

    def test_far_objects_report_safe_lower_bound(self, executor):
        far = blocker(40.0, ahead=45.0)
        prediction = predict_min_separation(
            snapshot(objects=[far]), _ROUTE, 40.0, Maneuver.PROCEED, executor
        )
        assert prediction.min_separation >= 5.0

    def test_proceed_into_static_blocker_contacts(self, executor):
        near = blocker(40.0, ahead=10.0)
        prediction = predict_min_separation(
            snapshot(objects=[near]), _ROUTE, 40.0, Maneuver.PROCEED, executor,
            horizon_s=2.5,
        )
        assert prediction.min_separation == 0.0
        assert prediction.critical_object is near
        assert prediction.time_of_min > 0.0

    def test_braking_rollout_keeps_distance(self, executor):
        near = blocker(40.0, ahead=15.0)
        braking = predict_min_separation(
            snapshot(objects=[near]), _ROUTE, 40.0, Maneuver.EMERGENCY_BRAKE, executor,
            horizon_s=2.5,
        )
        proceeding = predict_min_separation(
            snapshot(objects=[near]), _ROUTE, 40.0, Maneuver.PROCEED, executor,
            horizon_s=2.5,
        )
        assert braking.min_separation > proceeding.min_separation

    def test_initial_acceleration_reported(self, executor):
        prediction = predict_min_separation(
            snapshot(), _ROUTE, 40.0, Maneuver.EMERGENCY_BRAKE, executor
        )
        assert prediction.initial_acceleration == pytest.approx(-8.0)

    def test_moving_object_prediction(self, executor):
        # A leader pulling away: separation should grow, min at t=0.
        leader = blocker(40.0, ahead=12.0, speed=12.0)
        prediction = predict_min_separation(
            snapshot(ego_speed=6.0, objects=[leader]), _ROUTE, 40.0,
            Maneuver.PROCEED, executor,
        )
        assert prediction.time_of_min == pytest.approx(0.0)

    def test_explicit_object_list_overrides_snapshot(self, executor):
        near = blocker(40.0, ahead=8.0)
        prediction = predict_min_separation(
            snapshot(objects=[near]), _ROUTE, 40.0, Maneuver.PROCEED, executor,
            objects=[],
        )
        assert math.isinf(prediction.min_separation)

    def test_invalid_horizon(self, executor):
        with pytest.raises(ValueError):
            predict_min_separation(
                snapshot(), _ROUTE, 40.0, Maneuver.PROCEED, executor, horizon_s=0.0
            )


class TestBrakingCanAvoid:
    def test_avoidable_when_far(self, executor):
        scene = snapshot(objects=[blocker(40.0, ahead=25.0)])
        assert braking_can_avoid(scene, _ROUTE, 40.0, executor, unsafe_distance=1.0)

    def test_unavoidable_when_on_top(self, executor):
        scene = snapshot(ego_speed=10.0, objects=[blocker(40.0, ahead=5.0)])
        assert not braking_can_avoid(scene, _ROUTE, 40.0, executor, unsafe_distance=1.0)


# ---------------------------------------------------------------------------
# Exactness of the nearest-first rollout against a step-by-step scan.
# ---------------------------------------------------------------------------


def sequential_reference(
    scene, route, ego_s, maneuver, executor, horizon_s=2.5, step_s=0.1, objects=None
):
    """The step-by-step rollout: for each step, each object in turn, an exact
    gap whenever the centre bound is within 5 m and below the best so far."""
    candidates = list(scene.objects if objects is None else objects)
    initial_accel = executor.acceleration_for(maneuver, scene.ego_speed, ego_s, route)
    ego_radius = math.hypot(VEHICLE_LENGTH, VEHICLE_WIDTH) / 2.0
    reach = (scene.ego_speed + 1.0) * horizon_s + 10.0
    candidates = [
        obj for obj in candidates
        if obj.position.distance_to(scene.ego_position)
        <= reach + obj.speed * horizon_s + obj.length
    ]
    if not candidates:
        return (math.inf, 0.0, None, initial_accel)
    s = ego_s
    speed = scene.ego_speed
    best = math.inf
    best_time = 0.0
    best_obj = None
    best_far_bound = math.inf
    steps = int(round(horizon_s / step_s))
    for i in range(steps + 1):
        t = i * step_s
        ego_center = route.point_at(s)
        ego_box = OBB(ego_center, route.heading_at(s), VEHICLE_LENGTH / 2.0, VEHICLE_WIDTH / 2.0)
        for obj in candidates:
            shape = obj.footprint()
            bound = (
                ego_center.distance_to(obj.position + obj.velocity * t)
                - ego_radius
                - shape.bounding_radius()
            )
            if bound > 5.0 or bound >= best:
                best_far_bound = min(best_far_bound, bound)
                continue
            separation = footprint_gap(ego_box, shape.translated(obj.velocity * t))
            if separation < best:
                best, best_time, best_obj = separation, t, obj
            if best == 0.0:
                break
        accel = executor.acceleration_for(maneuver, speed, s, route)
        new_speed = max(0.0, speed + accel * step_s)
        s += (speed + new_speed) / 2.0 * step_s
        speed = new_speed
    if math.isinf(best):
        best = max(best_far_bound, 5.0)
    return (best, best_time, best_obj, initial_accel)


_ROUTES = _MAP.routes


def _object(rng, object_id, position, heading, speed):
    kind = rng.choice([ObjectKind.VEHICLE, ObjectKind.VEHICLE, ObjectKind.PEDESTRIAN])
    if kind is ObjectKind.PEDESTRIAN:
        length = width = rng.uniform(0.5, 0.9)
    else:
        length, width = rng.uniform(3.5, 5.5), rng.uniform(1.6, 2.3)
    return PerceivedObject(
        object_id=object_id,
        kind=kind,
        position=position,
        velocity=Vec2.unit(heading) * speed,
        heading=heading,
        length=length,
        width=width,
        source_id=object_id,
    )


def random_scene(rng):
    """Vehicles and pedestrians scattered 0-35 m around an ego anywhere on
    any route, some on the ego's own path, moving in any direction."""
    route = rng.choice(_ROUTES)
    ego_s = rng.uniform(0.0, route.length)
    ego_speed = rng.choice([0.0, rng.uniform(0.0, 12.0)])
    objects = []
    for k in range(rng.randint(1, 7)):
        offset = Vec2.unit(rng.uniform(0, 2 * math.pi))
        if rng.random() < 0.3:
            s = min(route.length, ego_s + rng.uniform(-5.0, 30.0))
            position = route.point_at(s) + offset * rng.uniform(0, 2.0)
            heading = route.heading_at(s) + rng.choice(
                [0.0, math.pi, rng.uniform(-math.pi, math.pi)]
            )
        else:
            position = route.point_at(ego_s) + offset * rng.uniform(0.0, 35.0)
            heading = rng.uniform(-math.pi, math.pi)
        speed = rng.choice([0.0, rng.uniform(0.0, 14.0)])
        objects.append(_object(rng, 10 + k, position, heading, speed))
    return route, ego_s, snapshot(ego_s, ego_speed, objects, route)


def contact_scene(rng):
    """A stopped ego with several objects already overlapping it, some of
    them staying in contact over many steps: gap ties at 0.0 across steps
    and objects."""
    route = rng.choice(_ROUTES)
    ego_s = rng.uniform(5.0, route.length - 5.0)
    heading = route.heading_at(ego_s)
    center = route.point_at(ego_s)
    objects = []
    for k in range(rng.randint(2, 5)):
        position = center + Vec2.unit(rng.uniform(0, 2 * math.pi)) * rng.uniform(0.0, 2.5)
        speed = rng.choice([0.0, 0.0, rng.uniform(0.0, 3.0)])
        objects.append(_object(rng, 20 + k, position, heading + rng.uniform(-1.0, 1.0), speed))
    return route, ego_s, snapshot(ego_s, 0.0, objects, route)


def slide_scene(rng):
    """Boxes parallel to a stopped ego, sliding sideways across its nose or
    flank: the face-to-face gap is the same at many steps, so the exact
    gaps tie to within rounding, while the centre bound is least at a later
    step than the first tying one."""
    route = rng.choice(_ROUTES)
    ego_s = rng.uniform(5.0, route.length - 5.0)
    heading = route.heading_at(ego_s)
    center = route.point_at(ego_s)
    forward, left = Vec2.unit(heading), Vec2.unit(heading).perpendicular()
    objects = []
    for k in range(rng.randint(1, 3)):
        along = rng.choice([1.0, -1.0]) * (VEHICLE_LENGTH / 2.0 + 2.25 + rng.uniform(0.0, 4.0))
        lateral = rng.uniform(-1.5, -0.2)
        position = center + forward * along + left * lateral
        objects.append(
            PerceivedObject(
                object_id=30 + k,
                kind=ObjectKind.VEHICLE,
                position=position,
                velocity=left * rng.uniform(0.3, 1.5),
                heading=heading,
                length=4.5,
                width=rng.uniform(1.6, 2.3),
                source_id=30 + k,
            )
        )
    return route, ego_s, snapshot(ego_s, 0.0, objects, route)


def far_scene(rng):
    """Every object in range of the coarse filter but no centre bound within
    5 m: the far-bound fallback."""
    route = rng.choice(_ROUTES)
    ego_s = rng.uniform(0.0, route.length)
    center = route.point_at(ego_s)
    objects = [
        _object(rng, 40 + k, center + Vec2.unit(rng.uniform(0, 2 * math.pi)) * rng.uniform(16.0, 30.0),
                rng.uniform(-math.pi, math.pi), 0.0)
        for k in range(rng.randint(1, 4))
    ]
    return route, ego_s, snapshot(ego_s, 0.0, objects, route)


def assert_matches_reference(route, ego_s, scene, maneuver, executor, horizon_s=2.5):
    got = predict_min_separation(scene, route, ego_s, maneuver, executor, horizon_s=horizon_s)
    want = sequential_reference(scene, route, ego_s, maneuver, executor, horizon_s=horizon_s)
    assert got.min_separation == want[0]
    assert got.time_of_min == want[1]
    assert got.critical_object is want[2]
    assert got.initial_acceleration == want[3]
    return got


class TestNearestFirstExactness:
    """``predict_min_separation`` visits (step, object) pairs nearest first;
    every field must equal the step-by-step scan's, bit for bit."""

    @pytest.mark.parametrize("seed", range(4))
    def test_random_scenes_every_maneuver(self, executor, seed):
        rng = random.Random(seed)
        for _ in range(60):
            route, ego_s, scene = random_scene(rng)
            horizon = rng.choice([2.5, 2.5, 1.6])
            for maneuver in Maneuver:
                assert_matches_reference(route, ego_s, scene, maneuver, executor, horizon)

    @pytest.mark.parametrize("seed", range(3))
    def test_contact_ties_keep_the_earliest_pair(self, executor, seed):
        rng = random.Random(100 + seed)
        ties = 0
        for _ in range(40):
            route, ego_s, scene = contact_scene(rng)
            for maneuver in (Maneuver.WAIT, Maneuver.EMERGENCY_BRAKE, Maneuver.PROCEED):
                got = assert_matches_reference(route, ego_s, scene, maneuver, executor)
                ties += got.min_separation == 0.0
        assert ties > 0

    @pytest.mark.parametrize("seed", range(3))
    def test_sliding_face_to_face_ties(self, executor, seed):
        rng = random.Random(200 + seed)
        for _ in range(80):
            route, ego_s, scene = slide_scene(rng)
            for maneuver in (Maneuver.WAIT, Maneuver.PROCEED, Maneuver.YIELD):
                assert_matches_reference(route, ego_s, scene, maneuver, executor)

    def test_far_scenes_report_the_least_centre_bound(self, executor):
        rng = random.Random(300)
        for _ in range(60):
            route, ego_s, scene = far_scene(rng)
            got = assert_matches_reference(route, ego_s, scene, Maneuver.WAIT, executor)
            assert got.min_separation > 5.0
            assert got.critical_object is None

    def test_pairs_beyond_five_metres_never_get_an_exact_gap(self, executor):
        # Beside the ego, a box whose centre bound is under 5 m but whose gap
        # is 7.4 m; ahead, one whose centre bound is over 5 m but whose gap
        # is 5.7 m.  Only the first is checked exactly.
        ego_s = 40.0
        heading = _ROUTE.heading_at(ego_s)
        center = _ROUTE.point_at(ego_s)
        forward, left = Vec2.unit(heading), Vec2.unit(heading).perpendicular()

        def parked(object_id, offset):
            return PerceivedObject(
                object_id=object_id, kind=ObjectKind.VEHICLE, position=center + offset,
                velocity=Vec2(0.0, 0.0), heading=heading, length=4.5, width=1.8,
                source_id=object_id,
            )

        beside = parked(1, left * 9.3)
        ahead = parked(2, forward * 10.2)
        scene = snapshot(ego_s, 0.0, [beside, ahead], _ROUTE)
        got = assert_matches_reference(_ROUTE, ego_s, scene, Maneuver.WAIT, executor)
        assert got.critical_object is beside
        assert got.min_separation == pytest.approx(9.3 - VEHICLE_WIDTH / 2.0 - 0.9)
