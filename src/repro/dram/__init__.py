"""DRAM device models: timing, bank state machines, parts and macros.

This package is the simulator substrate for the paper's Section 4
("DRAM Performance") claims.  It models synchronous DRAM at the command
level: per-bank state machines with row-activate / read / write /
precharge / refresh commands, timing constraints (tRCD, tCAS/CL, tRP,
tRAS, tRC, tRRD, tRFC), a catalog of late-90s commodity SDRAM parts, and
an eDRAM macro generator implementing the Siemens flexible concept of
Section 5 (256 Kbit / 1 Mbit building blocks, 16-512 bit interfaces,
configurable banks and page length, 7 ns cycle).
"""

from repro._exports import lazy_exports

_EXPORTS = {
    "TimingParameters": "timing",
    "PC100_TIMING": "timing",
    "EDRAM_TIMING": "timing",
    "CommandType": "commands",
    "Command": "commands",
    "Bank": "bank",
    "BankState": "bank",
    "DRAMDevice": "device",
    "Organization": "organizations",
    "AddressMapping": "organizations",
    "MappingScheme": "organizations",
    "SDRAMPart": "catalog",
    "COMMODITY_PARTS": "catalog",
    "smallest_system": "catalog",
    "EDRAMMacro": "edram",
    "SiemensConceptRules": "edram",
    "SIEMENS_CONCEPT": "edram",
    "RefreshScheduler": "refresh",
    "TraceChecker": "tracecheck",
    "TraceReport": "tracecheck",
    "Violation": "tracecheck",
    "streaming_read_trace": "tracecheck",
}
__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
