"""Assembled BG/Q machines.

:class:`BgqMachine` wires the pieces together: racks, one BPM per node
board, the environmental database, and an EMON interface per node
board, built on first use because the envdb sweep never touches it —
everything the Figure 1/2 and Table III experiments need.  ``mira()``
builds the 48-rack configuration (49,152 nodes) the paper profiles;
small configurations are the default for tests.
"""

from __future__ import annotations

from repro.bgq.bpm import BulkPowerModule
from repro.bgq.emon import EmonInterface
from repro.bgq.envdb import DEFAULT_POLL_INTERVAL_S, EnvironmentalDatabase
from repro.bgq.topology import NodeBoard, Rack, bgq_machine
from repro.errors import ConfigError
from repro.sim.clock import VirtualClock
from repro.sim.events import EventQueue
from repro.sim.rng import RngRegistry
from repro.workloads.base import Workload

#: Mira: Argonne's 48-rack system.
MIRA_RACKS = 48


class BgqMachine:
    """A BG/Q installation with monitoring wired up."""

    def __init__(self, racks: int = 1, rng: RngRegistry | None = None,
                 poll_interval_s: float = DEFAULT_POLL_INTERVAL_S,
                 start_poller: bool = True, envdb_shards: int = 1):
        self.rng = rng if rng is not None else RngRegistry()
        self.clock = VirtualClock()
        self.events = EventQueue(self.clock)
        self.racks: list[Rack] = bgq_machine(racks, self.rng)
        self.envdb = EnvironmentalDatabase(self.events, poll_interval_s,
                                           shards=envdb_shards)
        self._bpms: dict[str, BulkPowerModule] = {}
        self._emons: dict[str, EmonInterface] = {}
        for board in self.node_boards():
            bpm = BulkPowerModule(
                board, seed=self.rng.seed(f"bpm.{board.location}")
            )
            self._bpms[board.location] = bpm
            self.envdb.register_bpm(bpm)
        if start_poller:
            self.envdb.start()

    @classmethod
    def mira(cls, **kwargs) -> "BgqMachine":
        """The full 48-rack Mira configuration (expensive; used by the
        scale benchmarks, not unit tests)."""
        return cls(racks=MIRA_RACKS, **kwargs)

    # -- structure -------------------------------------------------------------

    def node_boards(self) -> list[NodeBoard]:
        return [board for rack in self.racks for board in rack.node_boards()]

    @property
    def node_count(self) -> int:
        return sum(rack.node_count for rack in self.racks)

    def bpm(self, location: str) -> BulkPowerModule:
        try:
            return self._bpms[location]
        except KeyError:
            raise ConfigError(f"no BPM at {location!r}") from None

    def emon(self, location: str) -> EmonInterface:
        """The EMON interface of one node board, built on first use
        (its sensors' seeds are pure functions of names)."""
        emon = self._emons.get(location)
        if emon is None:
            try:
                board = self._bpms[location].node_board
            except KeyError:
                raise ConfigError(f"no node board at {location!r}") from None
            emon = self._emons[location] = EmonInterface(board, self.clock)
        return emon

    # -- job placement -----------------------------------------------------------

    def run_job(self, workload: Workload, node_count: int, t_start: float) -> list[NodeBoard]:
        """Schedule ``workload`` on the first boards covering
        ``node_count`` nodes (32 nodes per board).

        Returns the boards used.  Jobs land on whole node boards, as BG/Q
        partitions do.
        """
        if node_count <= 0:
            raise ConfigError(f"node count must be positive, got {node_count}")
        boards_needed = -(-node_count // 32)  # ceil
        boards = self.node_boards()
        if boards_needed > len(boards):
            raise ConfigError(
                f"job needs {boards_needed} node boards, machine has {len(boards)}"
            )
        used = boards[:boards_needed]
        for board in used:
            board.board.schedule(workload, t_start)
        return used

    def advance_to(self, t: float) -> None:
        """Run the environmental poller (and anything else queued) to ``t``."""
        self.events.run_until(t)
