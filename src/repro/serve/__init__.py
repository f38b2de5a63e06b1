"""Exploration service: a JSON batch API over the design-space tools.

``repro serve`` turns the library's sweep and exploration machinery
into a long-lived process: submit jobs, stream progress, fetch Pareto
fronts and run reports, and let a content-addressed result cache plus
request coalescing absorb repeated and concurrent identical work.
See docs/SERVICE.md for the API reference and cache semantics.
"""

from repro._exports import lazy_exports

_EXPORTS = {
    "ExplorationService": "handlers",
    "InProcessClient": "client",
    "RequestCoalescer": "coalescer",
    "RequestError": "protocol",
    "ReproServer": "server",
    "ResultCache": "cache",
    "SCHEMA_VERSION": "protocol",
    "ServeClient": "client",
    "ServeClientError": "client",
    "canonical_json": "protocol",
    "get_workload": "workloads",
    "parse_job": "protocol",
    "register_workload": "workloads",
    "route": "handlers",
    "run_server": "server",
    "unregister_workload": "workloads",
    "workload_names": "workloads",
    "workload_parameters": "workloads",
}
__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
