"""Durable content-addressed result store for sweep-scale execution.

ROADMAP item 3's durability layer: a :class:`ResultStore` maps a
*fingerprint* — sha256 of the canonical JSON describing one unit of
work (see :func:`point_fingerprint` and
:meth:`Sweep.content_key <repro.core.sweep.Sweep.content_key>`) — to
the canonical *text* of its result.  Storing text, not objects, keeps
the correctness contract checkable: a replayed result is byte-identical
to the original because it literally is the same string (the same
argument :mod:`repro.serve.cache` makes for the service cache, which is
now built on this class).

Durability discipline
---------------------

* **Append-only JSONL spill** — one ``{"fingerprint", "result"}``
  record per line, written through a persistent handle and flushed per
  append (``fsync=True`` additionally fsyncs, for stores that must
  survive power loss, e.g. the work-queue segment files a ``SIGKILL``ed
  worker leaves behind).
* **Torn tails are harmless** — a record killed mid-write fails JSON
  decoding and is skipped on load; every complete record before it is
  trusted.
* **Atomic compaction** — :meth:`compact` rewrites the spill through a
  temp file in the same directory, fsyncs it, and ``os.replace``\\ s it
  over the old spill, so a crash at any instant leaves either the old
  or the new file, never a hybrid.  Compaction drops dead records:
  superseded duplicates and (for LRU-bounded stores) evicted entries,
  fixing the unbounded-growth / eviction-resurrection bug the bounded
  service cache used to have.  It runs on its own once the spill holds
  more than :data:`SPILL_RATIO` times the live entries.

With ``maxsize=None`` (the default) the store is unbounded and nothing
is ever evicted; with a bound it behaves as an LRU whose spill is kept
in sync by compaction.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from collections import OrderedDict
from pathlib import Path

from repro.errors import ConfigurationError

#: Auto-compaction trigger: spill records per live entry (with a floor
#: of 8 records, so tiny stores do not churn).
SPILL_RATIO = 2.0


def canonical_text(document) -> str:
    """Canonical JSON: sorted keys, no whitespace, repeatable bytes."""
    return json.dumps(
        document, sort_keys=True, separators=(",", ":"), default=str
    )


def point_fingerprint(context: dict, parameters: dict) -> str:
    """Content key of one unit of work: context + its parameters.

    ``context`` pins everything that selects the computation (sweep
    signature, workload name, flags); ``parameters`` the point itself.
    Values must be JSON-able (``default=str`` catches stragglers the
    same way :meth:`Sweep.content_key` does).
    """
    document = {"context": context, "parameters": parameters}
    return hashlib.sha256(
        canonical_text(document).encode("utf-8")
    ).hexdigest()


def encode_outcome(outcome) -> str:
    """A :class:`~repro.core.parallel.PointOutcome` as canonical text.

    Successful values are pickled and base64-wrapped (they are
    arbitrary evaluation results), matching the sweep journal's
    encoding, so the text stays line-oriented UTF-8.
    """
    import base64
    import pickle

    if outcome.ok:
        document = {
            "ok": True,
            "value": base64.b64encode(
                pickle.dumps(outcome.value)
            ).decode("ascii"),
        }
    else:
        document = {"ok": False, "error": outcome.error}
    return canonical_text(document)


def decode_outcome(text: str):
    """Inverse of :func:`encode_outcome`; None on any corruption."""
    import base64
    import pickle

    from repro.core.parallel import PointOutcome

    try:
        document = json.loads(text)
        if document.get("ok"):
            value = pickle.loads(base64.b64decode(document["value"]))
            return PointOutcome(ok=True, value=value)
        return PointOutcome(ok=False, error=document.get("error"))
    except Exception:
        return None


class ResultStore:
    """Thread-safe, durable map of fingerprint -> canonical result text.

    Attributes:
        path: Optional JSONL spill file (loaded on construction,
            appended per :meth:`put`, rewritten by :meth:`compact`).
        maxsize: In-memory entry cap (None = unbounded).  Bounded
            stores evict LRU and compact the spill so evicted entries
            do not resurrect on reload.
        fsync: fsync the spill after every append (durable across
            power loss / ``SIGKILL``, at a per-put cost).
        hits / misses / evictions: Running counters.
    """

    def __init__(
        self,
        path=None,
        maxsize: int | None = None,
        fsync: bool = False,
    ) -> None:
        if maxsize is not None and maxsize < 1:
            raise ConfigurationError("store maxsize must be >= 1")
        self.path = Path(path) if path is not None else None
        self.maxsize = maxsize
        self.fsync = fsync
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._lock = threading.RLock()
        self._entries: OrderedDict = OrderedDict()
        self._handle = None
        #: Records currently in the spill file (live + dead); drives
        #: the auto-compaction trigger.
        self._spill_records = 0
        if self.path is not None and self.path.exists():
            self._spill_records = self._load()
            self._maybe_compact()

    # -- loading / persistence ----------------------------------------------

    def _load(self) -> int:
        """Replay the spill; returns the number of records read."""
        records = 0
        with open(self.path, "r", encoding="utf-8") as handle:
            for line in handle:
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue  # torn tail from an interrupted append
                fingerprint = record.get("fingerprint")
                result = record.get("result")
                if isinstance(fingerprint, str) and isinstance(result, str):
                    records += 1
                    self._insert(fingerprint, result)
        return records

    def _insert(self, fingerprint: str, text: str) -> None:
        self._entries[fingerprint] = text
        self._entries.move_to_end(fingerprint)
        if self.maxsize is not None:
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self.evictions += 1

    def _append_record(self, fingerprint: str, text: str) -> None:
        if self._handle is None:
            self._handle = open(self.path, "a", encoding="utf-8")
        self._handle.write(
            json.dumps({"fingerprint": fingerprint, "result": text}) + "\n"
        )
        self._handle.flush()
        if self.fsync:
            os.fsync(self._handle.fileno())
        self._spill_records += 1

    def _maybe_compact(self) -> None:
        """Compact when dead records dominate the spill.

        Dead = superseded duplicates + evicted entries.  The threshold
        is :data:`SPILL_RATIO` times the live set.
        """
        if self.path is None:
            return
        live = len(self._entries)
        if self._spill_records <= max(8, int(live * SPILL_RATIO)):
            return
        self._compact_locked()

    def compact(self) -> int:
        """Rewrite the spill to exactly the live entries, atomically.

        Returns the number of records dropped.  The rewrite goes
        through a temp file in the spill's directory which is fsynced
        and ``os.replace``\\ d over the original, so an interruption at
        any point leaves a complete file.
        """
        with self._lock:
            if self.path is None:
                return 0
            return self._compact_locked()

    def _compact_locked(self) -> int:
        dropped = self._spill_records - len(self._entries)
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        tmp_path = self.path.with_name(self.path.name + ".compact.tmp")
        with open(tmp_path, "w", encoding="utf-8") as handle:
            # Oldest-recency first, so replaying the compacted file
            # reconstructs the same LRU order.
            for fingerprint, text in self._entries.items():
                handle.write(
                    json.dumps(
                        {"fingerprint": fingerprint, "result": text}
                    )
                    + "\n"
                )
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, self.path)
        self._spill_records = len(self._entries)
        return max(dropped, 0)

    # -- core map operations -------------------------------------------------

    def get(self, fingerprint: str):
        """The stored result text, or None; refreshes LRU recency."""
        with self._lock:
            text = self._entries.get(fingerprint)
            if text is None:
                self.misses += 1
                return None
            self._entries.move_to_end(fingerprint)
            self.hits += 1
            return text

    def put(self, fingerprint: str, text: str) -> None:
        """Store a result; appends to the spill when configured."""
        if not isinstance(text, str):
            raise ConfigurationError("store holds canonical text only")
        with self._lock:
            known = self._entries.get(fingerprint)
            self._insert(fingerprint, text)
            if self.path is not None and known != text:
                self._append_record(fingerprint, text)
                self._maybe_compact()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, fingerprint: str) -> bool:
        with self._lock:
            return fingerprint in self._entries

    def keys(self) -> list:
        with self._lock:
            return list(self._entries)

    # -- lifecycle -----------------------------------------------------------

    def flush(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.flush()
                if self.fsync:
                    os.fsync(self._handle.fileno())

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def stats(self) -> dict:
        with self._lock:
            return {
                "entries": len(self._entries),
                "maxsize": self.maxsize,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "spill_records": self._spill_records,
                "persistent": self.path is not None,
            }


def coerce_store(store) -> tuple:
    """Normalize a ``store=`` argument to ``(store | None, owned)``.

    Accepts None (off), a path (opened unbounded, owned — the callee
    closes it) or an already-open :class:`ResultStore` (shared; the
    caller keeps ownership).
    """
    if store is None:
        return None, False
    if isinstance(store, ResultStore):
        return store, False
    if isinstance(store, (str, Path)):
        return ResultStore(path=store), True
    raise ConfigurationError(
        f"store must be a path or ResultStore, got {type(store).__name__}"
    )
