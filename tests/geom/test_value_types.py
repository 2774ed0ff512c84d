"""The per-tick value types: slotted dataclasses, immutable by convention.

Every tick builds ~100 ``Vec2`` and a few dozen footprints, kinematic
states, perceived objects, threats and separation predictions.  These
tests pin what callers may rely on: no ``__dict__`` (a misspelt
assignment raises), the generated ``repr``/``==``/``hash`` on literal
values, pickling and copying, and ``PerceivedObject``'s constructor.
"""

import copy
import dataclasses
import pickle

import pytest

from repro.geom import OBB, Circle, KinematicState, Vec2
from repro.llm.features import Threat
from repro.roles.geometry_checks import SeparationPrediction
from repro.sim.perception import ObjectKind, PerceivedObject

PED_REPR = (
    "PerceivedObject(object_id=7, kind=<ObjectKind.PEDESTRIAN: 'pedestrian'>, "
    "position=Vec2(x=1.0, y=2.0), velocity=Vec2(x=0.5, y=0.0), heading=0.0, "
    "length=0.6, width=0.6, source_id=None)"
)


def pedestrian() -> PerceivedObject:
    return PerceivedObject(
        7, ObjectKind.PEDESTRIAN, Vec2(1.0, 2.0), Vec2(0.5, 0.0), 0.0, 0.6, 0.6
    )


#: (build, repr, field names) per type; ``build`` makes a fresh value.
CASES = {
    "Vec2": (lambda: Vec2(1.0, -0.0), "Vec2(x=1.0, y=-0.0)", ("x", "y")),
    "OBB": (
        lambda: OBB(Vec2(1.0, 2.0), 0.5, 2.25, 1.0),
        "OBB(center=Vec2(x=1.0, y=2.0), heading=0.5, half_length=2.25, half_width=1.0)",
        ("center", "heading", "half_length", "half_width"),
    ),
    "Circle": (
        lambda: Circle(Vec2(0.0, 1.0), 0.3),
        "Circle(center=Vec2(x=0.0, y=1.0), radius=0.3)",
        ("center", "radius"),
    ),
    "KinematicState": (
        lambda: KinematicState(Vec2(1.0, 2.0), Vec2(0.5, 0.0)),
        "KinematicState(position=Vec2(x=1.0, y=2.0), velocity=Vec2(x=0.5, y=0.0))",
        ("position", "velocity"),
    ),
    "PerceivedObject": (
        pedestrian,
        PED_REPR,
        ("object_id", "kind", "position", "velocity", "heading", "length", "width",
         "source_id"),
    ),
    "Threat": (
        lambda: Threat(pedestrian(), 12.5, 1.5, 0.8, True, 3.0, False, 0.75),
        f"Threat(obj={PED_REPR}, distance=12.5, time_to_conflict=1.5, "
        "conflict_distance=0.8, inside_box=True, closing_speed=3.0, "
        "on_ego_path=False, severity=0.75)",
        ("obj", "distance", "time_to_conflict", "conflict_distance", "inside_box",
         "closing_speed", "on_ego_path", "severity"),
    ),
    "SeparationPrediction": (
        lambda: SeparationPrediction(1.25, 0.4, pedestrian(), -2.0),
        f"SeparationPrediction(min_separation=1.25, time_of_min=0.4, "
        f"critical_object={PED_REPR}, initial_acceleration=-2.0)",
        ("min_separation", "time_of_min", "critical_object", "initial_acceleration"),
    ),
}


def field_values(value):
    return tuple(getattr(value, f.name) for f in dataclasses.fields(value))


@pytest.mark.parametrize("name", sorted(CASES))
class TestValueTypes:
    def test_no_instance_dict(self, name):
        build, _, names = CASES[name]
        value = build()
        assert type(value).__slots__ == names
        assert not hasattr(value, "__dict__")
        with pytest.raises(AttributeError):
            value.misspelt = 1.0

    def test_dataclass_fields_keep_their_names(self, name):
        build, _, names = CASES[name]
        value = build()
        assert dataclasses.is_dataclass(value)
        assert tuple(f.name for f in dataclasses.fields(value)) == names

    def test_repr_eq_and_hash_are_the_generated_ones(self, name):
        build, expected_repr, _ = CASES[name]
        value = build()
        assert repr(value) == expected_repr
        assert value == build() and not value != build()
        assert hash(value) == hash(build()) == hash(field_values(value))
        # Equal fields are not enough: the class must match too.
        assert value != field_values(value)
        first = dataclasses.fields(value)[0].name
        changed = dataclasses.replace(value, **{first: None})
        assert changed != value
        assert field_values(changed)[1:] == field_values(value)[1:]

    def test_pickle_and_copy_round_trip(self, name):
        build, _, _ = CASES[name]
        value = build()
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
            restored = pickle.loads(pickle.dumps(value, protocol))
            assert type(restored) is type(value)
            assert restored == value
        assert copy.copy(value) == value
        assert copy.deepcopy(value) == value
        if name == "Vec2":
            assert copy.deepcopy(value) is value


class TestPerceivedObject:
    def test_source_id_defaults_to_none(self):
        assert pedestrian().source_id is None
        assert pedestrian().is_ghost
        assert PerceivedObject(
            3, ObjectKind.VEHICLE, Vec2(0.0, 0.0), Vec2(0.0, 0.0), 0.0, 4.5, 1.8, 3
        ).source_id == 3

    def test_copies_change_only_their_own_field(self):
        obj = dataclasses.replace(pedestrian(), source_id=11)
        moved = obj.with_position(Vec2(9.0, 9.0))
        assert moved.position == Vec2(9.0, 9.0)
        assert dataclasses.replace(moved, position=obj.position) == obj
        spoofed = obj.with_velocity(Vec2(-3.0, 0.0))
        assert spoofed.velocity == Vec2(-3.0, 0.0)
        assert dataclasses.replace(spoofed, velocity=obj.velocity) == obj
