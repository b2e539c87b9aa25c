"""Span profiling on the virtual clock, with causal links.

A :class:`SpanProfiler` records nested timed regions::

    with obs.span("rma.put", rank=r):
        ...

Each span captures the virtual start/end times, its nesting depth, and
a *track* — the timeline it renders on in a Chrome trace (per-rank by
convention: passing ``rank=3`` selects track ``rank3``).  Nesting is
maintained **per track**: two ranks' tasks interleave freely in an
SPMD run, yet each rank's spans nest against that rank's own open
spans, never a sibling's.

Causal tracing
--------------
Every span carries a unique ``span_id``; a :class:`TraceContext`
``(trace_id, span_id)`` names one span so it can travel on a simulated
message.  The send side captures the context of its innermost open
span (:meth:`SpanProfiler.capture`) and attaches it to the message; at
delivery time the receive side either links the context into its own
open span (:meth:`SpanProfiler.link`) or records a standalone delivery
span carrying the link (:meth:`SpanProfiler.record`).  The resulting
``links`` tuples are what the Chrome-trace exporter turns into
Perfetto flow arrows and the critical-path analyzer turns into
cross-rank DAG edges.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple


class TraceContext(NamedTuple):
    """A reference to one span, small enough to ride every message."""

    trace_id: str
    span_id: int


class SpanRecord(NamedTuple):
    """One completed span on the virtual timeline (an immutable tuple)."""

    name: str
    track: str
    start: float
    end: float
    depth: int
    args: Dict[str, Any]
    #: unique id within the profiler's trace
    span_id: int = 0
    #: span_id of the enclosing span on the same track (None at depth 0)
    parent_id: Optional[int] = None
    #: span_ids of causal predecessors on *other* tracks (message sends
    #: whose delivery this span observed)
    links: Tuple[int, ...] = ()

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def category(self) -> str:
        """Dotted-name prefix ("rma.put" -> "rma")."""
        return self.name.split(".", 1)[0]

    def to_dict(self) -> Dict[str, Any]:
        """JSONL-friendly form (used by the spill writer and CLI)."""
        return {
            "name": self.name,
            "track": self.track,
            "start": self.start,
            "end": self.end,
            "depth": self.depth,
            "args": {k: str(v) for k, v in self.args.items()},
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "links": list(self.links),
        }

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "SpanRecord":
        return cls(
            name=doc["name"],
            track=doc["track"],
            start=float(doc["start"]),
            end=float(doc["end"]),
            depth=int(doc.get("depth", 0)),
            args=dict(doc.get("args", {})),
            span_id=int(doc.get("span_id", 0)),
            parent_id=doc.get("parent_id"),
            links=tuple(doc.get("links", ())),
        )

    def __str__(self) -> str:
        return (
            f"[{self.start:.9f}..{self.end:.9f}] {'  ' * self.depth}{self.name} "
            f"({self.track})"
        )


#: builds a record from its field tuple without the keyword-argument
#: parsing of ``SpanRecord(...)`` (the hot path of every closing span)
_new_record = tuple.__new__


class _NullSpan:
    """Shared no-op context manager for the disabled profiler."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: Any) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _ActiveSpan:
    """Context manager recording one span into the profiler.

    While open it sits on its track's stack and keeps a reference to
    that stack (``stack`` is None before entry and after exit), so a
    holder of the span — a rendezvous peer — can link into it directly.
    """

    __slots__ = (
        "profiler",
        "name",
        "track",
        "args",
        "start",
        "depth",
        "span_id",
        "parent_id",
        "links",
        "stack",
    )

    def __init__(self, profiler: "SpanProfiler", name: str, track: str, args: Dict[str, Any]) -> None:
        self.profiler = profiler
        self.name = name
        self.track = track
        self.args = args
        self.links: List[int] = []
        self.stack: Optional[List[_ActiveSpan]] = None

    def __enter__(self) -> "_ActiveSpan":
        prof = self.profiler
        stack = prof._stacks.get(self.track)
        if stack is None:
            stack = prof._stacks[self.track] = []
        self.stack = stack
        self.depth = len(stack)
        self.parent_id = stack[-1].span_id if stack else None
        self.span_id = next(prof._ids)
        self.start = prof._clock()
        stack.append(self)
        return self

    def __exit__(self, *exc: Any) -> bool:
        prof = self.profiler
        stack = self.stack
        self.stack = None
        # Remove *this* span, not blindly the top: concurrent tasks on
        # one rank (e.g. multi-device OMPCCL slot tasks) may interleave
        # enter/exit order on a shared track.
        if stack and stack[-1] is self:
            stack.pop()
        else:  # pragma: no cover - interleaved same-track tasks
            try:
                stack.remove(self)
            except ValueError:
                pass
        prof.records.append(
            _new_record(
                SpanRecord,
                (
                    self.name,
                    self.track,
                    self.start,
                    prof._clock(),
                    self.depth,
                    self.args,
                    self.span_id,
                    self.parent_id,
                    tuple(self.links),
                ),
            )
        )
        return False

    def add_link(self, span_id: int) -> None:
        """Record a causal predecessor (self-links and repeats dropped)."""
        if span_id != self.span_id and span_id not in self.links:
            self.links.append(span_id)

    @property
    def context(self) -> TraceContext:
        """This span's :class:`TraceContext` (while it is open)."""
        return TraceContext(self.profiler.trace_id, self.span_id)


class SpanProfiler:
    """Collects :class:`SpanRecord` objects from ``span()`` regions."""

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        enabled: bool = True,
        trace_id: str = "trace0",
        store: Optional[Any] = None,
    ) -> None:
        from repro.obs.sampling import SpanStore

        self.enabled = enabled
        self.trace_id = trace_id
        self._clock = clock or (lambda: 0.0)
        #: completed spans — a budgeted, list-like
        #: :class:`~repro.obs.sampling.SpanStore` (lossless append order
        #: until its memory budget is hit, then per-track sampling)
        self.records: Any = store if store is not None else SpanStore()
        #: per-track stacks of currently open spans
        self._stacks: Dict[str, List[_ActiveSpan]] = {}
        self._ids = itertools.count(1)

    def set_budget(self, budget: Any) -> None:
        """Install a :class:`~repro.obs.sampling.SpanBudget` on the
        store (existing spans are re-admitted under it)."""
        self.records.set_budget(budget)

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Attach the virtual clock (done once by the world)."""
        self._clock = clock

    def _next_id(self) -> int:
        return next(self._ids)

    @staticmethod
    def _resolve_track(track: Optional[str], args: Dict[str, Any]) -> str:
        if track is not None:
            return track
        return f"rank{args['rank']}" if "rank" in args else "main"

    def span(self, name: str, track: Optional[str] = None, **args: Any):
        """A context manager timing one region.

        ``track`` names the Chrome-trace timeline; when omitted, a
        ``rank`` argument selects ``rank<r>``, else ``main``.
        """
        return self._open(name, track, args)

    def _open(self, name: str, track: Optional[str], args: Dict[str, Any]):
        """:meth:`span` with its arguments as one dict (callers that
        already hold them skip re-packing the keywords)."""
        if not self.enabled:
            return _NULL_SPAN
        return _ActiveSpan(self, name, self._resolve_track(track, args), args)

    # -- causal tracing --------------------------------------------------------

    def capture(self, track: Optional[str] = None, **args: Any) -> Optional[TraceContext]:
        """The context of the innermost open span on a track.

        This is what a message *sender* attaches to an outgoing
        operation.  Returns None when the profiler is disabled or no
        span is open on the track (nothing to point an arrow at).
        """
        if not self.enabled:
            return None
        stack = self._stacks.get(self._resolve_track(track, args))
        if not stack:
            return None
        return stack[-1].context

    def link(self, ctx: Optional[TraceContext], track: Optional[str] = None, **args: Any) -> bool:
        """Attach an incoming causal link to the innermost open span.

        Called at message *delivery* time on the receiving track.
        Returns True when a span was open to receive the link; False
        otherwise (caller may then :meth:`record` a standalone delivery
        span instead).  Self-links are dropped.
        """
        return self._link(ctx, self._resolve_track(track, args)) is not None

    def _link(self, ctx: Optional[TraceContext], track: str) -> Optional[_ActiveSpan]:
        """:meth:`link` on a resolved track; returns the span that took
        the link (None when none could)."""
        if not self.enabled or ctx is None or ctx.trace_id != self.trace_id:
            return None
        stack = self._stacks.get(track)
        if not stack:
            return None
        target = stack[-1]
        target.add_link(ctx.span_id)
        return target

    def link_span(
        self,
        target: Optional[TraceContext],
        link: Optional[TraceContext],
        track: Optional[str] = None,
        **args: Any,
    ) -> bool:
        """Attach ``link`` to a *specific* still-open span.

        Unlike :meth:`link` (which targets the innermost open span),
        this addresses the target by its own context — used by
        collective rendezvous, where a later-arriving rank must link
        itself into the earlier arrivals' still-open collective spans,
        whatever those tracks are doing now.  Returns False when the
        target span already closed (the link is then dropped; the
        reverse edge recorded by the later arrival still captures the
        dependency).
        """
        if (
            not self.enabled
            or target is None
            or link is None
            or target.trace_id != self.trace_id
            or link.trace_id != self.trace_id
            or target.span_id == link.span_id
        ):
            return False
        stack = self._stacks.get(self._resolve_track(track, args))
        for open_span in stack or ():
            if open_span.span_id == target.span_id:
                open_span.add_link(link.span_id)
                return True
        return False

    def record(
        self,
        name: str,
        start: float,
        end: float,
        track: Optional[str] = None,
        links: Sequence[TraceContext] = (),
        **args: Any,
    ) -> Optional[SpanRecord]:
        """Append one completed span directly (no context manager).

        Used for receiver-side *delivery* spans emitted from scheduler
        context (transfer completion callbacks), where no task is
        running and no span is open.  ``links`` are the sender contexts
        the delivery observed.
        """
        if not self.enabled:
            return None
        resolved = self._resolve_track(track, args)
        stack = self._stacks.get(resolved)
        rec = SpanRecord(
            name=name,
            track=resolved,
            start=start,
            end=end,
            depth=len(stack) if stack else 0,
            args=args,
            span_id=self._next_id(),
            parent_id=stack[-1].span_id if stack else None,
            links=tuple(
                c.span_id
                for c in links
                if c is not None and c.trace_id == self.trace_id
            ),
        )
        self.records.append(rec)
        return rec

    # -- queries -------------------------------------------------------------

    def select(self, name: Optional[str] = None, track: Optional[str] = None) -> List[SpanRecord]:
        return [
            r
            for r in self.records
            if (name is None or r.name == name)
            and (track is None or r.track == track)
        ]

    def count(self, name: Optional[str] = None) -> int:
        return len(self.select(name))

    def total_time(self, name: str) -> float:
        """Summed duration of every span with the given name."""
        return sum(r.duration for r in self.select(name))

    def __len__(self) -> int:
        return len(self.records)

    def clear(self) -> None:
        self.records.clear()
