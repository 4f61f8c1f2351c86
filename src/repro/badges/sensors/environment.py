"""Thermometer, barometer, and light-sensor synthesis.

Environmental readings come from the room the *badge* is in (not the
wearer — a badge on a desk reports the desk's room), plus sensor noise.
The reference badge at the charging station sampled these continuously,
giving the fleet a common baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.habitat.environment import Environment
from repro.habitat.floorplan import FloorPlan


@dataclass(frozen=True)
class EnvironmentSensors:
    """Noise parameters of the badge's environmental sensors."""

    temp_noise_c: float = 0.15
    pressure_noise_hpa: float = 0.4
    light_noise_rel: float = 0.08
    #: Light multiplier when the badge lies face-up on a desk vs on a
    #: chest (cord shadowing) -- worn badges read slightly darker.
    worn_light_factor: float = 0.8

    def synthesize(
        self,
        env: Environment,
        plan: FloorPlan,
        badge_room: np.ndarray,
        worn: np.ndarray,
        active: np.ndarray,
        t_abs: np.ndarray,
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Returns ``(temperature_c, pressure_hpa, light_lux)`` per frame.

        NaN wherever the badge is inactive.  One badge as a batch of
        one through :meth:`synthesize_fleet`; the sensing pipeline uses
        it for the always-on reference badge.
        """
        temp, pressure, light = self.synthesize_fleet(
            env, plan, badge_room[None], worn[None], active[None], t_abs, (rng,)
        )
        return temp[0], pressure[0], light[0]

    def synthesize_fleet(
        self,
        env: Environment,
        plan: FloorPlan,
        badge_room: np.ndarray,
        worn: np.ndarray,
        active: np.ndarray,
        t_abs: np.ndarray,
        rngs: Sequence[np.random.Generator],
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Environmental readings for a whole badge fleet in one call.

        The per-room field evaluation runs once over the stacked
        ``badges x frames`` grid; the draws stay per badge, in the order
        temperature normals, light normals, pressure normals, so a batch
        of one is bit-identical to the same badge's row in a larger
        batch.

        Args:
            env: the habitat's environmental fields.
            plan: floor plan.
            badge_room: ``(badges, frames)`` badge room indices.
            worn: ``(badges, frames)`` worn masks.
            active: ``(badges, frames)`` recording masks.
            t_abs: ``(frames,)`` absolute mission times (shared).
            rngs: one random stream per badge, aligned with axis 0.

        Returns:
            ``(temperature_c, pressure_hpa, light_lux)``, each a
            ``(badges, frames)`` float32 array, NaN where inactive.
        """
        n_badges, n = badge_room.shape
        temp = np.full((n_badges, n), np.nan, dtype=np.float32)
        light = np.full((n_badges, n), np.nan, dtype=np.float32)
        t_grid = np.broadcast_to(t_abs, (n_badges, n))

        for room_idx in np.unique(badge_room):
            if room_idx < 0:
                continue
            mask = active & (badge_room == room_idx)
            if not mask.any():
                continue
            name = plan.name_of(int(room_idx))
            temp[mask] = env.temperature_c(name, t_grid[mask])
            light[mask] = env.light_lux(name, t_grid[mask])

        pressure_base = env.pressure_hpa(t_abs)
        light_out = np.empty((n_badges, n), dtype=np.float32)
        pressure = np.full((n_badges, n), np.nan, dtype=np.float32)
        for b in range(n_badges):
            rng = rngs[b]
            act = active[b]
            temp[b, act] += rng.normal(0.0, self.temp_noise_c, int(act.sum()))
            light_factor = np.where(worn[b], self.worn_light_factor, 1.0)
            noisy = light[b] * light_factor * (
                1.0 + rng.normal(0.0, self.light_noise_rel, n)
            )
            light_out[b] = np.where(act, np.maximum(noisy, 0.0), np.nan)
            pressure[b, act] = (
                pressure_base[act]
                + rng.normal(0.0, self.pressure_noise_hpa, int(act.sum()))
            )
        return temp, pressure, light_out
