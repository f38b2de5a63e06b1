"""Reporting: ASCII tables and experiment records for the bench harness."""

from repro._exports import lazy_exports

_EXPORTS = {
    "Table": "tables",
    "format_si": "tables",
    "format_bits": "tables",
    "ExperimentReport": "report",
    "ClaimCheck": "report",
    "PerfReport": "profiling",
    "Stopwatch": "profiling",
    "measure": "profiling",
    "append_history": "runreport",
    "check_regression": "runreport",
    "load_history": "runreport",
    "load_ledger": "runreport",
    "render_html": "runreport",
    "render_markdown": "runreport",
    "summarize_ledger": "runreport",
}
__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
