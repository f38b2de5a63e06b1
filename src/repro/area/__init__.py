"""Silicon area models for merged DRAM/logic dies.

This package models the area side of the paper's Section 1 and Section 3
trade-offs: memory cell technologies, the choice of a DRAM-based versus
logic-based versus merged base process, memory macro area (array plus
periphery), logic gate density, and whole-die composition including
pad-limitation effects.
"""

from repro._exports import lazy_exports

_EXPORTS = {
    "CellTechnology": "cell",
    "DRAM_1T1C": "cell",
    "SRAM_6T": "cell",
    "EDRAM_CELLS": "cell",
    "BaseProcess": "process",
    "ProcessKind": "process",
    "DRAM_BASED_025": "process",
    "LOGIC_BASED_025": "process",
    "MERGED_025": "process",
    "MacroAreaModel": "macro",
    "MacroArea": "macro",
    "LogicAreaModel": "logic",
    "DieComposition": "die",
    "DieAreaModel": "die",
    "PadRing": "die",
}
__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
