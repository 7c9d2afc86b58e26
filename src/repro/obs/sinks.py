"""Pluggable trace sinks.

A sink is anything with ``emit(record)`` and ``flush()`` (see the
``Sink`` protocol in :mod:`repro.obs.trace`).  Three implementations
cover the project's needs:

* :class:`InMemorySink` — accumulates records in a list; tests and
  benchmarks summarize it directly;
* :class:`JsonlSink` — appends one JSON object per line to a file
  (the format ``repro trace summarize`` reads back);
* :class:`LoggingSink` — mirrors records onto the ``repro.trace``
  logger for environments that already aggregate logs.

Sinks are called synchronously from instrumented code, so they do the
minimum per record; none of them are installed unless tracing was
explicitly enabled.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from typing import Any, TextIO

from .log import get_logger
from .summary import TraceSummary, summarize_records


class InMemorySink:
    """Accumulates records in memory; thread-safe.

    ``records`` returns a snapshot list; :meth:`summary` rolls the
    current contents up without clearing them.
    """

    def __init__(self) -> None:
        self._records: list[dict[str, Any]] = []
        self._lock = threading.Lock()

    def emit(self, record: dict[str, Any]) -> None:
        with self._lock:
            self._records.append(record)

    def flush(self) -> None:
        return None

    @property
    def records(self) -> list[dict[str, Any]]:
        with self._lock:
            return list(self._records)

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def clear(self) -> None:
        with self._lock:
            self._records.clear()

    def summary(self) -> TraceSummary:
        return summarize_records(self.records)


class JsonlSink:
    """Writes one compact JSON object per line to ``path``.

    Opens the file lazily on first emit (so constructing a sink never
    touches the filesystem), truncates by default, and counts emitted
    records.  Use as a context manager or call :meth:`close`.
    """

    def __init__(self, path: Path | str, *, append: bool = False):
        self.path = Path(path)
        self._append = append
        self._fh: TextIO | None = None
        self._lock = threading.Lock()
        self.emitted = 0

    def _handle(self) -> TextIO:
        """The open file, opened on first use; the caller holds ``_lock``."""
        if self._fh is None:
            self._fh = open(self.path, "a" if self._append else "w", encoding="utf-8")
        return self._fh

    def emit(self, record: dict[str, Any]) -> None:
        line = json.dumps(record, separators=(",", ":"), sort_keys=False)
        with self._lock:
            self._handle().write(line + "\n")
            self.emitted += 1

    def flush(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.flush()

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class LoggingSink:
    """Mirrors trace records onto the ``repro.trace`` logger.

    Spans and events log at DEBUG, counters at DEBUG too — the bridge
    exists for environments that already collect logs, not for humans
    at a terminal (use ``repro trace summarize`` for that).
    """

    def __init__(self, subsystem: str = "trace"):
        self._log = get_logger(subsystem)

    def emit(self, record: dict[str, Any]) -> None:
        self._log.debug(
            "%s %s %s",
            record.get("type", "?"),
            record.get("name", "?"),
            json.dumps(record, separators=(",", ":"), default=str),
        )

    def flush(self) -> None:
        return None
