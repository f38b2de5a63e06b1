"""Power and energy models.

The paper's single most quantitative claim (Section 1) is electrical: a
4 Gbyte/s, 256-bit-wide memory system built from discrete 16-bit SDRAMs
needs about ten times the power of an eDRAM with an internal 256-bit
interface, because off-chip drivers charge large board-wire capacitances.
This package provides:

* :mod:`repro.power.interface` — CV^2 f switching power of a data/address
  interface, parameterized by per-line capacitance and swing,
* :mod:`repro.power.idd` — datasheet-style IDD operating-current model of
  the DRAM core (activate/precharge, read/write burst, background,
  refresh),
* :mod:`repro.power.system` — system-level roll-up over N chips and the
  embedded-vs-discrete comparison,
* :mod:`repro.power.thermal` — junction temperature and its effect on
  retention time / refresh rate (the paper's noted downside: per-chip
  power may *increase* when memory moves on-die),
* :mod:`repro.power.signal` — interconnect delay and noise margin, on-chip
  vs. board trace,
* :mod:`repro.power.supplies` — the DRAM and logic supply rails and their
  predicted reversal.
"""

from repro._exports import lazy_exports

_EXPORTS = {
    "InterfaceSpec": "interface",
    "InterfacePowerModel": "interface",
    "ON_CHIP_BUS": "interface",
    "OFF_CHIP_BUS": "interface",
    "IddParameters": "idd",
    "CorePowerModel": "idd",
    "PC100_IDD": "idd",
    "EDRAM_IDD": "idd",
    "MemorySystemPower": "system",
    "SystemPowerModel": "system",
    "discrete_vs_embedded_power": "system",
    "ThermalModel": "thermal",
    "retention_time_at": "thermal",
    "InterconnectModel": "signal",
    "OFF_CHIP_TRACE": "signal",
    "ON_CHIP_WIRE": "signal",
    "speed_advantage": "signal",
    "SupplyDomain": "supplies",
    "SupplyPlan": "supplies",
    "projected_plan": "supplies",
    "reversal_year": "supplies",
}
__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
