"""System Management Controller (SMC).

The card's management microcontroller: it owns the sensor inventory
(power, temperatures, fan, voltage/current rails, memory) and answers
two masters — the in-band SysMgmt path coming over SCIF, and the
platform BMC over IPMB for the out-of-band path.  Both see the *same*
sensor values at the same instant, which the out-of-band tests verify.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.errors import SensorError
from repro.xeonphi.card import PhiCard

#: Canonical SMC sensor names (the Table I rows the Phi supports).
SMC_SENSORS = (
    "power_w",
    "die_temp_c",
    "intake_temp_c",
    "exhaust_temp_c",
    "gddr_temp_c",
    "fan_rpm",
    "core_voltage_v",
    "core_current_a",
    "memory_used_b",
    "memory_free_b",
    "power_limit_w",
)


class SystemManagementController:
    """SMC for one card: named sensor reads at a virtual time."""

    def __init__(self, card: PhiCard):
        self.card = card
        self._readers: dict[str, Callable[[float], float]] = {
            "power_w": lambda t: float(card.power_gauge.read(t)),
            "die_temp_c": lambda t: float(card.die_temperature_c(t)),
            "intake_temp_c": card.intake_temperature_c,
            "exhaust_temp_c": card.exhaust_temperature_c,
            "gddr_temp_c": lambda t: float(card.die_temperature_c(t)) - 8.0,
            "fan_rpm": lambda t: float(card.fan_speed_rpm(t)),
            "core_voltage_v": card.core_rail_voltage,
            "core_current_a": card.core_rail_current,
            "memory_used_b": lambda t: 512.0 * 1024**2,  # uOS residency
            "memory_free_b": lambda t: float(card.model.gddr_bytes) - 512.0 * 1024**2,
            "power_limit_w": lambda t: card.power_limit_w,
        }

    def set_power_limit(self, watts: float, t: float) -> None:
        """Write the card power cap through the SMC (the set half of the
        Table I 'Get/Set Power Limit' row)."""
        self.card.set_power_limit(watts, t)

    def sensor_names(self) -> list[str]:
        return list(SMC_SENSORS)

    def read_sensor(self, name: str, t: float) -> float:
        """Read one sensor at virtual time ``t``."""
        reader = self._readers.get(name)
        if reader is None:
            raise SensorError(
                f"SMC of {self.card.model.name}: no sensor {name!r}; "
                f"have {sorted(self._readers)}"
            )
        return float(reader(t))

    def read_sensor_block(self, name: str, times: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`read_sensor` over a time grid, elementwise
        identical to a loop of scalar reads."""
        times = np.asarray(times, dtype=np.float64)
        card = self.card
        if name == "power_w":
            return np.asarray(card.power_gauge.read(times), dtype=np.float64)
        if name == "core_voltage_v":
            return card.core_rail_voltage(times)
        if name == "core_current_a":
            return card.core_rail_current(times)
        if name == "exhaust_temp_c":
            return card.exhaust_temperature_c(times)
        if name == "fan_rpm":
            return card.fan_speed_rpm(times)
        if name in ("die_temp_c", "gddr_temp_c"):
            die = np.asarray(card.die_temperature_c(times), dtype=np.float64)
            return die if name == "die_temp_c" else die - 8.0
        # The rest do not depend on time: one read covers the grid.
        return np.full(times.shape, self.read_sensor(name, 0.0))

    def read_all(self, t: float) -> dict[str, float]:
        """Snapshot of every sensor at ``t`` (one SMC scan)."""
        return {name: self.read_sensor(name, t) for name in SMC_SENSORS}
