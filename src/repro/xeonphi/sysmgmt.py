"""The in-band SysMgmt SCIF API.

"When an API call is made to the lower-level library to gather
environmental data, it must travel across the SCIF to the card where
user libraries call kernel functions which allow for access of the
registers which contain the pertinent data.  This explains the rise in
power consumption as a result of using the API; code that wasn't
already executing on the device before the call was made must run,
collect, and return."  (paper §II-D)

Costs reproduced here:

* 14.2 ms per query charged to the host-side caller (≈14 % overhead at
  the paper's polling cadence);
* while a polling session is active, the card burns extra power because
  its cores are woken per query — the source of the Figure 7 gap.
"""

from __future__ import annotations

import json

import numpy as np

from repro.errors import ScifError
from repro.host.process import Process
from repro.obs.instruments import collector
from repro.workloads.base import Component

_OBS = collector("sysmgmt")
from repro.xeonphi.card import PhiCard
from repro.xeonphi.scif import SCIF_SYSMGMT_PORT, ScifNetwork
from repro.xeonphi.smc import SystemManagementController

#: Total per-query cost of the in-band path (paper: "a staggering 14.2 ms").
SYSMGMT_QUERY_LATENCY_S = 14.2e-3

#: Core utilization while servicing a query: the wake-collect-return
#: path occupies roughly one core's worth of the card briefly; sustained
#: polling therefore raises card power by a couple of watts.
_WAKE_UTILIZATION = 0.08
_WAKE_SECONDS_PER_QUERY = 8.0e-3


class _PollingFootprint:
    """Card-side utilization of an in-band polling session.

    Constant ``level`` between start and stop, zero outside.  The object
    stays live on the card's load board; stop() just closes the window.
    """

    def __init__(self, level: float, t_start: float):
        self.level = level
        self.t_start = t_start
        self.t_stop = np.inf

    def value(self, t):
        times = np.asarray(t, dtype=np.float64)
        active = (times >= self.t_start) & (times < self.t_stop)
        return np.where(active, self.level, 0.0)

    def change_points(self):
        """The live window edges (an open window has no stop yet)."""
        edges = np.array([self.t_start, self.t_stop], dtype=np.float64)
        return edges[np.isfinite(edges)]


class SysMgmtApi:
    """A host-side handle to one card's SysMgmt agent.

    Construction performs the SCIF connect from host (node 0) to the
    card's SysMgmt port, as Figure 6 draws it.
    """

    def __init__(self, network: ScifNetwork, card: PhiCard,
                 smc: SystemManagementController,
                 process: Process | None = None):
        self.network = network
        self.card = card
        self.smc = smc
        self.process = process
        card_node = card.mic_index + 1
        # The agent listens on the card; the host connects.
        self._agent = network.listen(card_node, SCIF_SYSMGMT_PORT)
        self._endpoint = network.connect(0, card_node, SCIF_SYSMGMT_PORT)
        self._footprint: _PollingFootprint | None = None
        self._queries = 0

    # -- query path ---------------------------------------------------------

    def query(self, sensor: str) -> float:
        """One in-band sensor read: request over SCIF, card-side
        collection, reply.  Charges the full 14.2 ms to the caller."""
        if not self._endpoint.connected:
            _OBS.record_error("disconnected")
            raise ScifError("SysMgmt connection closed")
        request = json.dumps({"op": "read", "sensor": sensor}).encode()
        self._endpoint.send(request)
        # Card side: wake, read the register, reply.  The SCIF transit
        # latency was charged by send(); the remainder of the 14.2 ms is
        # the card-side wake + kernel path + return trip.
        self._agent.recv()
        from repro.xeonphi.scif import message_latency

        remainder = SYSMGMT_QUERY_LATENCY_S - 2 * message_latency(len(request))
        self.network.clock.advance(max(remainder, 0.0))
        value = self.smc.read_sensor(sensor, self.network.clock.now)
        reply = json.dumps({"value": value}).encode()
        self._agent.send(reply)
        payload = json.loads(self._endpoint.recv())
        if self.process is not None and self.process.alive:
            self.process.charge(SYSMGMT_QUERY_LATENCY_S)
        self._queries += 1
        _OBS.record_query(SYSMGMT_QUERY_LATENCY_S)
        return float(payload["value"])

    def query_power_w(self) -> float:
        return self.query("power_w")

    # -- the power side effect ----------------------------------------------

    def start_polling(self, interval_s: float, t: float) -> None:
        """Declare a sustained polling session at ``interval_s``.

        Adds the wake footprint to the card's load board: utilization
        0.028 for 8 ms per query, averaged over the polling interval —
        which at the paper's cadence raises card power by ~2 W over the
        daemon path.
        """
        if interval_s <= 0.0:
            raise ScifError(f"polling interval must be positive, got {interval_s}")
        if self._footprint is not None:
            raise ScifError("polling session already active")
        # Wake duty cycle: 8 ms of ~3% core occupation per query.  The
        # *power* bump is larger than the duty suggests because waking
        # halted cores costs a near-fixed activation energy; fold that in
        # as a floor.
        duty = min(_WAKE_SECONDS_PER_QUERY / interval_s, 1.0)
        level = _WAKE_UTILIZATION * (0.35 + 0.65 * duty)
        self._footprint = _PollingFootprint(level, t)
        self.card.board.add_parasitic(Component.PHI_CORES, self._footprint)

    def stop_polling(self, t: float) -> None:
        """End the polling session: footprint drops to zero from ``t``."""
        if self._footprint is None:
            raise ScifError("no polling session active")
        self._footprint.t_stop = t
        # Closing the window changes future board evaluations; bump the
        # version so cached energy integrals refresh.
        self.card.board.version += 1
        self._footprint = None

    @property
    def queries_issued(self) -> int:
        return self._queries

    def close(self) -> None:
        self._endpoint.close()
        self.network.unbind(self.card.mic_index + 1, SCIF_SYSMGMT_PORT)
