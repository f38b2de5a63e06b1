"""Wire protocol for the exploration service: schemas, fingerprints.

The service speaks one versioned JSON dialect (``SCHEMA_VERSION``) over
plain HTTP.  This module is the *entire* contract surface: strict
payload validation (unknown fields are rejected, not ignored — a typoed
``axess`` must fail loudly, not silently run the default sweep),
canonical serialization, and the content-addressed job fingerprint the
result cache and request coalescer key on.

Validation errors raise :class:`RequestError`, which carries both a
machine-readable ``code`` and the HTTP status the server maps it to.
The name deliberately avoids ``ProtocolError`` — that name already
means "illegal DRAM command sequence" in :mod:`repro.errors`.

Fingerprints hash the *canonical* job document (sorted keys, no
whitespace, schema version folded in), so two byte-different requests
describing the same work coalesce, while any semantic difference —
axis order included, because sweep point order follows axis order —
yields a different key.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.units import GBIT, MBIT

#: Version stamped on every request/response envelope.  Bump on any
#: backward-incompatible change to the job or response documents.
SCHEMA_VERSION = 1

#: Job kinds the service executes.
JOB_KINDS = ("sweep", "explore")

#: Evaluation backends per job kind.  Sweep workloads are scalar python
#: functions evaluated point by point, so "auto" and "scalar" run the
#: same ``Sweep.run`` path: both parse to one job, whose canonical form
#: and fingerprint name "auto", so they share one cache entry.
SWEEP_BACKENDS = ("auto", "scalar")
EXPLORE_BACKENDS = ("batched", "scalar")

#: Hard cap on sweep cartesian size — a service must bound work per
#: request; beyond this, split the job client-side.
MAX_SWEEP_POINTS = 4096

_SCALAR_TYPES = (bool, int, float, str)


class RequestError(ConfigurationError):
    """Invalid request at the protocol layer (maps to a 4xx response).

    Attributes:
        code: Machine-readable error code for clients.
        http_status: Status the HTTP layer responds with.
    """

    def __init__(
        self,
        message: str,
        code: str = "bad_request",
        http_status: int = 400,
    ) -> None:
        super().__init__(message)
        self.code = code
        self.http_status = http_status


def canonical_json(document) -> str:
    """The one true serialization: sorted keys, no whitespace.

    Both the fingerprint and the cached result text use this form, so
    byte comparison of two serializations is semantic comparison.
    """
    return json.dumps(
        document, sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def fingerprint_document(document) -> str:
    """sha256 over the canonical form of a JSON-able document."""
    return hashlib.sha256(canonical_json(document).encode("utf-8")).hexdigest()


# -- validation helpers ------------------------------------------------------


def _expect_object(payload, where: str) -> dict:
    if not isinstance(payload, dict):
        raise RequestError(
            f"{where} must be a JSON object, got {type(payload).__name__}"
        )
    return payload


def _reject_unknown(payload: dict, allowed, where: str) -> None:
    unknown = sorted(set(payload) - set(allowed))
    if unknown:
        raise RequestError(
            f"unknown field(s) in {where}: {', '.join(unknown)} "
            f"(allowed: {', '.join(sorted(allowed))})"
        )


def _string_field(payload: dict, key: str, where: str) -> str:
    value = payload.get(key)
    if not isinstance(value, str) or not value:
        raise RequestError(f"{where}.{key} must be a non-empty string")
    return value


def _bool_field(payload: dict, key: str, where: str, default: bool) -> bool:
    value = payload.get(key, default)
    if not isinstance(value, bool):
        raise RequestError(f"{where}.{key} must be a boolean")
    return value


def _number_field(
    payload: dict,
    key: str,
    where: str,
    *,
    default=None,
    required: bool = False,
    positive: bool = True,
):
    value = payload.get(key, default)
    if value is None:
        if required:
            raise RequestError(f"{where}.{key} is required")
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise RequestError(f"{where}.{key} must be a number")
    if positive and value <= 0:
        raise RequestError(f"{where}.{key} must be > 0")
    return float(value)


def _int_tuple_field(payload: dict, key: str, where: str):
    values = payload.get(key)
    if values is None:
        return None
    if not isinstance(values, list) or not values:
        raise RequestError(f"{where}.{key} must be a non-empty array")
    out = []
    for index, value in enumerate(values):
        if isinstance(value, bool) or not isinstance(value, int) or value <= 0:
            raise RequestError(
                f"{where}.{key}[{index}] must be a positive integer"
            )
        out.append(value)
    return tuple(out)


# -- job specs ---------------------------------------------------------------


@dataclass(frozen=True)
class SweepJobSpec:
    """A validated sweep job: a named workload over a parameter grid.

    ``axes`` preserves request order — sweep point order follows axis
    order, so order is part of the job's identity.
    """

    workload: str
    axes: tuple  # ((name, (value, ...)), ...) in request order
    skip_errors: bool = False
    #: Execution hint only: fan the sweep across this many local worker
    #: processes (0 = serial).  Deliberately excluded from
    #: :meth:`canonical` and :meth:`fingerprint` — where a job runs
    #: must not change what it computes, so a 4-worker run shares its
    #: cache entry (byte-identically) with the serial run.
    workers: int = field(default=0, compare=False)
    #: Server-side deadline in seconds; the job is cooperatively
    #: cancelled once it lapses.  Excluded from the fingerprint for the
    #: same reason as ``workers``: how long a job may run does not
    #: change what it computes, so a deadline-bearing request still
    #: coalesces with (and is served from the cache of) the same job
    #: submitted without one.
    deadline_s: float | None = field(default=None, compare=False)

    kind = "sweep"

    @property
    def n_points(self) -> int:
        total = 1
        for _, values in self.axes:
            total *= len(values)
        return total

    def canonical(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": self.kind,
            "workload": self.workload,
            "axes": [[name, list(values)] for name, values in self.axes],
            "backend": "auto",  # every sweep backend is this one path
            "skip_errors": self.skip_errors,
        }

    def fingerprint(self) -> str:
        from repro.core.sweep import Sweep

        return Sweep(axes=dict(self.axes)).content_key(
            schema_version=SCHEMA_VERSION,
            kind=self.kind,
            workload=self.workload,
            backend="auto",
            skip_errors=self.skip_errors,
            axis_order=[name for name, _ in self.axes],
        )


@dataclass(frozen=True)
class ExploreJobSpec:
    """A validated design-space exploration job (E10-style).

    ``requirements`` holds the fully resolved
    :class:`~repro.core.requirements.ApplicationRequirements` field
    values (presets expanded at parse time), so equivalent requests
    share one fingerprint.
    """

    requirements: tuple  # sorted ((field, value), ...) pairs
    backend: str = "batched"
    widths: tuple | None = None
    bank_options: tuple | None = None
    #: Server-side deadline (see :class:`SweepJobSpec.deadline_s`);
    #: excluded from the fingerprint.
    deadline_s: float | None = field(default=None, compare=False)

    kind = "explore"

    requirements_dict: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "requirements_dict", dict(self.requirements))

    def canonical(self) -> dict:
        document = {
            "schema_version": SCHEMA_VERSION,
            "kind": self.kind,
            "requirements": dict(self.requirements),
            "backend": self.backend,
        }
        if self.widths is not None:
            document["widths"] = list(self.widths)
        if self.bank_options is not None:
            document["bank_options"] = list(self.bank_options)
        return document

    def fingerprint(self) -> str:
        return fingerprint_document(self.canonical())

    def to_requirements(self):
        from repro.core.requirements import ApplicationRequirements

        fields = self.requirements_dict
        return ApplicationRequirements(
            name=fields["name"],
            capacity_bits=int(fields["capacity_mbit"] * MBIT),
            sustained_bandwidth_bits_per_s=(
                fields["bandwidth_gbit_s"] * GBIT
            ),
            max_latency_ns=fields.get("max_latency_ns"),
            power_budget_w=fields.get("power_budget_w"),
            volume_per_year=int(fields.get("volume_per_year", 1_000_000)),
            portable=fields.get("portable", False),
            read_fraction=fields.get("read_fraction", 0.67),
            locality=fields.get("locality", 0.7),
        )


# -- parsing -----------------------------------------------------------------

_SWEEP_FIELDS = (
    "kind",
    "workload",
    "axes",
    "backend",
    "skip_errors",
    "workers",
    "deadline_s",
)

#: Cap on the `workers:` execution hint — a service must bound the
#: processes one request can spawn.
MAX_SWEEP_WORKERS = 8
_EXPLORE_FIELDS = (
    "kind",
    "requirements",
    "backend",
    "widths",
    "bank_options",
    "deadline_s",
)
_REQUIREMENT_FIELDS = (
    "name",
    "capacity_mbit",
    "bandwidth_gbit_s",
    "max_latency_ns",
    "power_budget_w",
    "volume_per_year",
    "portable",
    "read_fraction",
    "locality",
)

#: Named requirement presets, so ``"requirements": "mpeg2"`` submits the
#: paper's E10 customer without the client spelling out the budget.
REQUIREMENT_PRESETS = {
    "mpeg2": lambda: _mpeg2_preset(),
}


def _mpeg2_preset() -> dict:
    from repro.experiments.e10_design_space import mpeg2_requirements

    source = mpeg2_requirements()
    return {
        "name": source.name,
        "capacity_mbit": source.capacity_bits / MBIT,
        "bandwidth_gbit_s": source.sustained_bandwidth_bits_per_s / GBIT,
        "max_latency_ns": source.max_latency_ns,
        "volume_per_year": source.volume_per_year,
        "locality": source.locality,
    }


def _parse_axes(payload: dict, workload: str) -> tuple:
    from repro.serve.workloads import workload_parameters

    axes = payload.get("axes")
    axes = _expect_object(axes, "job.axes")
    if not axes:
        raise RequestError("job.axes must name at least one axis")
    accepted = workload_parameters(workload)
    parsed = []
    for name, values in axes.items():
        if name not in accepted:
            raise RequestError(
                f"job.axes: workload {workload!r} has no parameter "
                f"{name!r} (accepts: {', '.join(accepted)})"
            )
        if not isinstance(values, list) or not values:
            raise RequestError(
                f"job.axes.{name} must be a non-empty array of scalars"
            )
        for index, value in enumerate(values):
            if not isinstance(value, _SCALAR_TYPES):
                raise RequestError(
                    f"job.axes.{name}[{index}] must be a scalar "
                    f"(bool/int/float/str), got {type(value).__name__}"
                )
        parsed.append((name, tuple(values)))
    return tuple(parsed)


def _parse_sweep(payload: dict) -> SweepJobSpec:
    from repro.serve.workloads import has_workload, workload_names

    _reject_unknown(payload, _SWEEP_FIELDS, "sweep job")
    workload = _string_field(payload, "workload", "job")
    if not has_workload(workload):
        raise RequestError(
            f"unknown workload {workload!r} "
            f"(available: {', '.join(workload_names())})",
            code="unknown_workload",
        )
    backend = payload.get("backend", "auto")
    if backend not in SWEEP_BACKENDS:
        raise RequestError(
            f"job.backend must be one of {SWEEP_BACKENDS}, got {backend!r}"
        )
    workers = payload.get("workers", 0)
    if (
        isinstance(workers, bool)
        or not isinstance(workers, int)
        or workers < 0
    ):
        raise RequestError("job.workers must be a nonnegative integer")
    if workers > MAX_SWEEP_WORKERS:
        raise RequestError(
            f"job.workers is capped at {MAX_SWEEP_WORKERS}, got {workers}",
            code="too_large",
            http_status=413,
        )
    spec = SweepJobSpec(
        workload=workload,
        axes=_parse_axes(payload, workload),
        skip_errors=_bool_field(payload, "skip_errors", "job", False),
        workers=workers,
        deadline_s=_number_field(payload, "deadline_s", "job"),
    )
    if spec.n_points > MAX_SWEEP_POINTS:
        raise RequestError(
            f"sweep has {spec.n_points} points, over the per-job cap of "
            f"{MAX_SWEEP_POINTS}; split the axes across several jobs",
            code="too_large",
            http_status=413,
        )
    return spec


def _parse_requirements(value) -> tuple:
    if isinstance(value, str):
        preset = REQUIREMENT_PRESETS.get(value)
        if preset is None:
            raise RequestError(
                f"unknown requirements preset {value!r} "
                f"(available: {', '.join(sorted(REQUIREMENT_PRESETS))})"
            )
        value = preset()
    value = _expect_object(value, "job.requirements")
    _reject_unknown(value, _REQUIREMENT_FIELDS, "job.requirements")
    where = "job.requirements"
    fields = {
        "name": _string_field(value, "name", where),
        "capacity_mbit": _number_field(
            value, "capacity_mbit", where, required=True
        ),
        "bandwidth_gbit_s": _number_field(
            value, "bandwidth_gbit_s", where, required=True
        ),
    }
    for optional in ("max_latency_ns", "power_budget_w"):
        number = _number_field(value, optional, where)
        if number is not None:
            fields[optional] = number
    volume = value.get("volume_per_year")
    if volume is not None:
        if isinstance(volume, bool) or not isinstance(volume, int):
            raise RequestError(f"{where}.volume_per_year must be an integer")
        if volume <= 0:
            raise RequestError(f"{where}.volume_per_year must be > 0")
        fields["volume_per_year"] = volume
    if "portable" in value:
        fields["portable"] = _bool_field(value, "portable", where, False)
    for fraction in ("read_fraction", "locality"):
        number = _number_field(value, fraction, where)
        if number is not None:
            if not 0.0 <= number <= 1.0:
                raise RequestError(f"{where}.{fraction} must be in [0, 1]")
            fields[fraction] = number
    return tuple(sorted(fields.items()))


def _parse_explore(payload: dict) -> ExploreJobSpec:
    _reject_unknown(payload, _EXPLORE_FIELDS, "explore job")
    if "requirements" not in payload:
        raise RequestError("job.requirements is required")
    backend = payload.get("backend", "batched")
    if backend not in EXPLORE_BACKENDS:
        raise RequestError(
            f"job.backend must be one of {EXPLORE_BACKENDS}, got {backend!r}"
        )
    return ExploreJobSpec(
        requirements=_parse_requirements(payload["requirements"]),
        backend=backend,
        widths=_int_tuple_field(payload, "widths", "job"),
        bank_options=_int_tuple_field(payload, "bank_options", "job"),
        deadline_s=_number_field(payload, "deadline_s", "job"),
    )


def parse_job(payload):
    """Validate a submitted job document into a frozen spec.

    Raises :class:`RequestError` (→ 4xx) on any malformation; a
    returned spec is fully executable and fingerprintable.
    """
    payload = _expect_object(payload, "job")
    kind = payload.get("kind")
    if kind not in JOB_KINDS:
        raise RequestError(
            f"job.kind must be one of {JOB_KINDS}, got {kind!r}"
        )
    if kind == "sweep":
        return _parse_sweep(payload)
    return _parse_explore(payload)


# -- response envelopes ------------------------------------------------------


def ok_envelope(**fields) -> dict:
    envelope = {"schema_version": SCHEMA_VERSION, "ok": True}
    envelope.update(fields)
    return envelope


def error_envelope(code: str, message: str) -> dict:
    """The error response document."""
    return {
        "schema_version": SCHEMA_VERSION,
        "ok": False,
        "error": {"code": code, "message": message},
    }
