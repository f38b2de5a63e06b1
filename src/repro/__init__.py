"""repro: reproduction of "Embedded DRAM Architectural Trade-Offs".

Wehn & Hein, DATE 1998.  The library provides analytical power / area /
cost / test models and a cycle-level DRAM simulator for exploring the
embedded-DRAM design space the paper describes: memory size, interface
width, number of banks, page length and word width as *design parameters*
rather than commodity givens.

Quick start::

    from repro.dram import EDRAMMacro
    from repro.power import discrete_vs_embedded_power

    macro = EDRAMMacro.build(size_bits=8 * 2**20, width=256)
    print(macro.peak_bandwidth_bits_per_s / 8e9, "GB/s")

    discrete, embedded, ratio = discrete_vs_embedded_power()
    print(f"discrete needs {ratio:.1f}x the power")

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-claim-by-claim reproduction record.
"""

from repro._exports import lazy_exports

__version__ = "1.0.0"

_EXPORTS = {"units": "units", "errors": "errors"}
__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
__all__ += ["__version__"]
