"""The seven BG/Q power domains.

MonEQ "allows us to read the individual voltage and current data points
for each of the 7 BG/Q domains" (paper §II-A); Figure 2 stacks them:
chip core, DRAM, link chip core, HSS network, optics, PCI Express and
SRAM.  Each domain is a DC rail on the node board: EMON exposes its
voltage and current, and power is their product.

Budgets below are per **node card** (32 compute nodes), chosen so the
idle card draws ~700 W DC and an MMPS-loaded card ~1.5-1.6 kW — which,
through a ~90 %-efficient bulk power module, reproduces Figure 1's
800-1800 W AC-input band and Figure 2's ~2 kW stacked peak.
"""

from __future__ import annotations

import enum
import functools
import operator
from dataclasses import dataclass

from repro.workloads.base import Component


class BgqDomain(enum.Enum):
    """The 7 MonEQ domains, in Figure 2's legend order."""

    CHIP_CORE = "chip_core"
    DRAM = "dram"
    LINK_CHIP_CORE = "link_chip_core"
    HSS_NETWORK = "hss_network"
    OPTICS = "optics"
    PCI_EXPRESS = "pci_express"
    SRAM = "sram"


@dataclass(frozen=True)
class DomainSpec:
    """Electrical parameters of one domain rail, per node card."""

    domain: BgqDomain
    component: str        # workload component driving it
    idle_w: float
    dynamic_w: float
    nominal_v: float
    #: Voltage droop at full load (fraction of nominal).
    droop: float = 0.03
    #: Sensor generation phase offset (s) — domains are not all sampled
    #: at the same instant (the paper's EMON inconsistency).
    sample_phase: float = 0.0


#: Domain table, per node card.
BGQ_DOMAINS: list[DomainSpec] = [
    DomainSpec(BgqDomain.CHIP_CORE, Component.BGQ_CHIP_CORE,
               idle_w=330.0, dynamic_w=500.0, nominal_v=0.90, sample_phase=0.000),
    DomainSpec(BgqDomain.DRAM, Component.BGQ_DRAM,
               idle_w=160.0, dynamic_w=250.0, nominal_v=1.35, sample_phase=0.040),
    DomainSpec(BgqDomain.LINK_CHIP_CORE, Component.BGQ_LINK_CHIP,
               idle_w=60.0, dynamic_w=100.0, nominal_v=1.00, sample_phase=0.080),
    DomainSpec(BgqDomain.HSS_NETWORK, Component.BGQ_HSS,
               idle_w=60.0, dynamic_w=150.0, nominal_v=1.20, sample_phase=0.120),
    DomainSpec(BgqDomain.OPTICS, Component.BGQ_OPTICS,
               idle_w=50.0, dynamic_w=120.0, nominal_v=3.30, sample_phase=0.160),
    DomainSpec(BgqDomain.PCI_EXPRESS, Component.BGQ_PCIE,
               idle_w=20.0, dynamic_w=40.0, nominal_v=3.30, sample_phase=0.200),
    DomainSpec(BgqDomain.SRAM, Component.BGQ_SRAM,
               idle_w=20.0, dynamic_w=40.0, nominal_v=0.90, sample_phase=0.240),
]


def domain_spec(domain: BgqDomain) -> DomainSpec:
    """Spec for one domain."""
    for spec in BGQ_DOMAINS:
        if spec.domain is domain:
            return spec
    raise KeyError(domain)  # pragma: no cover - enum is closed


#: Node-card totals implied by the table (used by tests and DESIGN.md).
#: The idle total folds the rails left to right in table order, as
#: ``NodeBoard.total_power`` does, so it is bit-identical to an unloaded
#: board's total and the envdb sweep can use it in place of one.
NODE_CARD_IDLE_W = functools.reduce(operator.add,
                                    (spec.idle_w for spec in BGQ_DOMAINS))
NODE_CARD_PEAK_W = NODE_CARD_IDLE_W + sum(spec.dynamic_w for spec in BGQ_DOMAINS)
