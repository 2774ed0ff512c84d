"""2-D vector value type used across the simulator and geometric monitors.

The simulator, the geometric :class:`~repro.roles.safety_monitor.SafetyMonitor`
checks, and the trajectory-prediction helpers all operate on planar
coordinates.  ``Vec2`` is a value type with the usual vector algebra;
keeping it dependency-free (no numpy) makes single-step latencies
predictable, which matters because the orchestrator runs every role once per
100 ms simulated tick.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Tuple


@dataclass(unsafe_hash=True)
class Vec2:
    """A 2-D vector / point, immutable by convention.

    Supports ``+``, ``-``, scalar ``*`` / ``/``, unary ``-``, ``abs()``
    (Euclidean norm), iteration and indexing, so it can be unpacked like a
    tuple wherever convenient.  Slotted, not frozen: a frozen dataclass
    stores each field through ``object.__setattr__``, and a tick builds
    ~100 vectors.
    """

    __slots__ = ("x", "y")

    x: float
    y: float

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @staticmethod
    def zero() -> "Vec2":
        """The origin / null vector."""
        return Vec2(0.0, 0.0)

    @staticmethod
    def from_polar(radius: float, angle: float) -> "Vec2":
        """Build a vector from polar coordinates (``angle`` in radians)."""
        return Vec2(radius * math.cos(angle), radius * math.sin(angle))

    @staticmethod
    def unit(angle: float) -> "Vec2":
        """Unit vector pointing along ``angle`` radians."""
        return Vec2(math.cos(angle), math.sin(angle))

    # ------------------------------------------------------------------
    # algebra
    # ------------------------------------------------------------------
    def __add__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x - other.x, self.y - other.y)

    def __mul__(self, scalar: float) -> "Vec2":
        return Vec2(self.x * scalar, self.y * scalar)

    __rmul__ = __mul__

    def __truediv__(self, scalar: float) -> "Vec2":
        return Vec2(self.x / scalar, self.y / scalar)

    def __neg__(self) -> "Vec2":
        return Vec2(-self.x, -self.y)

    def __abs__(self) -> float:
        return math.hypot(self.x, self.y)

    def __iter__(self) -> Iterator[float]:
        yield self.x
        yield self.y

    def __getitem__(self, index: int) -> float:
        return (self.x, self.y)[index]

    # ------------------------------------------------------------------
    # products and norms
    # ------------------------------------------------------------------
    def dot(self, other: "Vec2") -> float:
        """Scalar (dot) product."""
        return self.x * other.x + self.y * other.y

    def cross(self, other: "Vec2") -> float:
        """Z component of the 3-D cross product (signed parallelogram area)."""
        return self.x * other.y - self.y * other.x

    def norm(self) -> float:
        """Euclidean length."""
        return math.hypot(self.x, self.y)

    def norm_sq(self) -> float:
        """Squared Euclidean length (avoids the sqrt for comparisons)."""
        return self.x * self.x + self.y * self.y

    def normalized(self) -> "Vec2":
        """Unit vector with the same direction.

        Raises:
            ZeroDivisionError: for the null vector.
        """
        n = self.norm()
        if n == 0.0:
            raise ZeroDivisionError("cannot normalize the null vector")
        return Vec2(self.x / n, self.y / n)

    # ------------------------------------------------------------------
    # geometry helpers
    # ------------------------------------------------------------------
    def distance_to(self, other: "Vec2") -> float:
        """Euclidean distance to another point."""
        return math.hypot(self.x - other.x, self.y - other.y)

    def angle(self) -> float:
        """Heading of the vector in radians, in ``(-pi, pi]``."""
        return math.atan2(self.y, self.x)

    def rotated(self, angle: float) -> "Vec2":
        """Vector rotated counter-clockwise by ``angle`` radians."""
        c, s = math.cos(angle), math.sin(angle)
        return Vec2(c * self.x - s * self.y, s * self.x + c * self.y)

    def perpendicular(self) -> "Vec2":
        """Vector rotated 90 degrees counter-clockwise."""
        return Vec2(-self.y, self.x)

    def projected_onto(self, other: "Vec2") -> "Vec2":
        """Orthogonal projection of this vector onto ``other``."""
        denom = other.norm_sq()
        if denom == 0.0:
            raise ZeroDivisionError("cannot project onto the null vector")
        return other * (self.dot(other) / denom)

    def lerp(self, other: "Vec2", t: float) -> "Vec2":
        """Linear interpolation: ``self`` at ``t=0``, ``other`` at ``t=1``."""
        return Vec2(
            self.x + (other.x - self.x) * t,
            self.y + (other.y - self.y) * t,
        )

    def is_close(self, other: "Vec2", tol: float = 1e-9) -> bool:
        """True when both components differ by at most ``tol``."""
        return abs(self.x - other.x) <= tol and abs(self.y - other.y) <= tol

    def as_tuple(self) -> Tuple[float, float]:
        """Plain ``(x, y)`` tuple, e.g. for serialization."""
        return (self.x, self.y)

    def __deepcopy__(self, memo: dict) -> "Vec2":
        # Immutable: a deep copy may share the instance.
        return self


def angle_difference(a: float, b: float) -> float:
    """Smallest signed difference ``a - b`` between two angles, in ``(-pi, pi]``.

    Useful for comparing vehicle headings where raw subtraction can wrap.
    """
    diff = (a - b) % (2.0 * math.pi)
    if diff > math.pi:
        diff -= 2.0 * math.pi
    return diff
