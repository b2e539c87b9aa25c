"""Structured event tracing.

A :class:`Tracer` collects ``(time, category, name, payload)`` records.
Subsystems emit into it when attached (it is optional everywhere), and
tests/benchmarks query it to assert on *behaviour* — e.g. "the runtime
opened at most MAX_ACTIVE_STREAMS streams" or "the second asymmetric
get performed one network operation, not two (pointer cache hit)".
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, Iterator, List, Optional, Set


@dataclasses.dataclass(frozen=True)
class TraceRecord:
    """One trace event on the virtual timeline."""

    time: float
    category: str
    name: str
    payload: Dict[str, Any]

    def __str__(self) -> str:
        fields = " ".join(f"{k}={v}" for k, v in self.payload.items())
        return f"[{self.time:.9f}] {self.category}.{self.name} {fields}"


class Tracer:
    """Append-only trace with simple query helpers."""

    def __init__(self, clock: Optional[Callable[[], float]] = None) -> None:
        self._clock = clock or (lambda: 0.0)
        self.records: List[TraceRecord] = []
        #: categories to record; None means record everything
        self.enabled_categories: Optional[Set[str]] = None

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Attach the virtual clock (done by the runtime at init)."""
        self._clock = clock

    def enable(self, *categories: str) -> "Tracer":
        """Restrict recording to the given categories (additive across
        calls); returns ``self`` for chaining."""
        if self.enabled_categories is None:
            self.enabled_categories = set()
        self.enabled_categories.update(categories)
        return self

    def enable_all(self) -> "Tracer":
        """Record every category again (the default)."""
        self.enabled_categories = None
        return self

    def emit(self, category: str, name: str, **payload: Any) -> None:
        """Record one event at the current virtual time."""
        if (
            self.enabled_categories is not None
            and category not in self.enabled_categories
        ):
            return
        self.records.append(TraceRecord(self._clock(), category, name, payload))

    # -- queries -------------------------------------------------------------

    def select(self, category: Optional[str] = None, name: Optional[str] = None) -> List[TraceRecord]:
        """All records matching the given category/name filters."""
        return [
            r
            for r in self.records
            if (category is None or r.category == category)
            and (name is None or r.name == name)
        ]

    def count(self, category: Optional[str] = None, name: Optional[str] = None) -> int:
        return len(self.select(category, name))

    def last(self, category: str, name: Optional[str] = None) -> TraceRecord:
        matches = self.select(category, name)
        if not matches:
            raise LookupError(f"no trace records for {category}/{name}")
        return matches[-1]

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    def __len__(self) -> int:
        return len(self.records)

    def clear(self) -> None:
        self.records.clear()
