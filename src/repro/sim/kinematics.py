"""Pure longitudinal kinematics: the simulator's one integrator.

:class:`~repro.sim.vehicle.Vehicle` advances every vehicle — ego and
background traffic alike — through :func:`integrate_longitudinal`, a
pure ``(s, speed) -> (s, speed)`` map over plain floats with a
documented floating-point operation order, so a run's trajectory is
reproducible bit for bit.
"""

from __future__ import annotations

from typing import Tuple


def integrate_longitudinal(
    s: float, speed: float, acceleration: float, dt: float
) -> Tuple[float, float]:
    """Semi-implicit Euler step of ``(s, speed)`` with a rest clamp.

    Braking never makes a vehicle reverse: when the commanded deceleration
    would cross zero speed inside the step, the vehicle advances by the
    exact stopping distance and comes to rest.

    Floating-point contract (pinned run digests depend on this order):

    * ``new_speed = speed + acceleration * dt``
    * moving:   ``s + (speed + new_speed) / 2.0 * dt``
    * stopping: ``s + speed * (speed / -acceleration) / 2.0``
    """
    new_speed = speed + acceleration * dt
    if new_speed < 0.0:
        if acceleration < 0.0:
            time_to_stop = speed / -acceleration
            s = s + speed * time_to_stop / 2.0
        return s, 0.0
    return s + (speed + new_speed) / 2.0 * dt, new_speed

