"""Span-based tracing of simulated execution.

A :class:`Span` is one timed interval of work -- an adaptive run, a
query submission, one operator task -- with a tracer-assigned id, a
parent id, and a ``t0``/``t1`` interval in **simulated** seconds.  The
whole span tree is therefore a pure function of simulated execution:
two runs with the same seed produce byte-identical canonical traces at
any host worker count.  Host wall-clock timestamps are *optional*
side-channel data (``host_t0``/``host_t1``), captured only when the
tracer is created with ``host_time=True`` and stripped by the
canonicalizer (:mod:`repro.observe.canonical`) so golden fixtures stay
stable across machines.

Time bases
----------
Each :class:`~repro.engine.scheduler.Simulator` starts its clock at 0,
but an adaptive instance executes tens of such simulators in sequence.
The tracer carries a ``time_base`` that is added to every raw simulated
timestamp; the adaptive driver advances it by each run's response time,
so the instance's runs line up on one continuous timeline -- the
tomograph, industrialized.

Zero-cost when disabled
-----------------------
There is deliberately no "null tracer": instrumented call sites keep a
plain ``observer is not None`` guard, so disabled tracing costs one
attribute load and one comparison per site (see ``docs/perf.md``).
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter
from typing import Iterator

from ..errors import ObserveError

#: Interval-containment slack used by nesting checks (simulated seconds).
NEST_EPS = 1e-9

#: The tracer-owned root span every trace has exactly one of.
ROOT_KIND = "trace"


class Span:
    """One timed interval in the span tree (mutable until ended)."""

    __slots__ = (
        "span_id",
        "parent_id",
        "name",
        "kind",
        "t0",
        "t1",
        "attrs",
        "host_t0",
        "host_t1",
    )

    def __init__(
        self,
        span_id: int,
        parent_id: int | None,
        name: str,
        kind: str,
        t0: float,
        t1: float | None = None,
        attrs: dict | None = None,
        host_t0: float | None = None,
        host_t1: float | None = None,
    ) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.kind = kind
        self.t0 = t0
        self.t1 = t1
        self.attrs = attrs if attrs is not None else {}
        self.host_t0 = host_t0
        self.host_t1 = host_t1

    @property
    def finished(self) -> bool:
        return self.t1 is not None

    @property
    def duration(self) -> float:
        if self.t1 is None:
            raise ObserveError(f"span {self.span_id} ({self.name}) is still open")
        return self.t1 - self.t0

    def as_dict(self, *, host: bool = True) -> dict:
        """A plain-data projection (``host=False`` strips host fields)."""
        out: dict = {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "kind": self.kind,
            "t0": self.t0,
            "t1": self.t1,
        }
        if host:
            attrs = dict(self.attrs)
            if self.host_t0 is not None:
                out["host_t0"] = self.host_t0
            if self.host_t1 is not None:
                out["host_t1"] = self.host_t1
        else:
            attrs = {
                key: value
                for key, value in self.attrs.items()
                if not key.startswith("host_")
            }
        out["attrs"] = attrs
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Span({self.span_id}, {self.name!r}, kind={self.kind!r}, "
            f"t0={self.t0:.6f}, t1={self.t1})"
        )


class Tracer:
    """Collects the span tree of one observed execution.

    Every tracer owns exactly one root span (``kind="trace"``, starting
    at simulated time 0); spans begun without an explicit parent attach
    to the innermost span on the :meth:`scope` stack, which starts at
    the root.  Span ids are assigned in creation order on the simulator
    main thread, so they are deterministic.
    """

    def __init__(self, *, host_time: bool = False) -> None:
        self.host_time = host_time
        self.time_base = 0.0
        self._spans: list[Span] = []
        root = Span(
            0,
            None,
            "trace",
            ROOT_KIND,
            0.0,
            host_t0=perf_counter() if host_time else None,
        )
        self._spans.append(root)
        self._scope: list[Span] = [root]
        # Latest child end time per parent id: ending a span clamps its
        # t1 to cover every child (a fault-killed retry attempt can
        # outlive the run that superseded it).
        self._max_child_end: dict[int, float] = {}

    # ------------------------------------------------------------------
    @property
    def root(self) -> Span:
        return self._spans[0]

    @property
    def spans(self) -> tuple[Span, ...]:
        """Every span recorded so far, in creation (id) order."""
        return tuple(self._spans)

    @property
    def current(self) -> Span:
        """The innermost open scope (the default parent)."""
        return self._scope[-1]

    def advance(self, dt: float) -> None:
        """Shift the time base by ``dt`` simulated seconds (>= 0)."""
        if dt < 0:
            raise ObserveError(f"cannot advance the time base by {dt}")
        self.time_base += dt

    # ------------------------------------------------------------------
    def begin(
        self,
        name: str,
        kind: str,
        t: float,
        *,
        parent: Span | None = None,
        **attrs,
    ) -> Span:
        """Open a span at raw simulated time ``t`` (time base applied)."""
        if parent is None:
            parent = self._scope[-1]
        span = Span(
            len(self._spans),
            parent.span_id,
            name,
            kind,
            self.time_base + t,
            attrs=attrs if attrs else None,
            host_t0=perf_counter() if self.host_time else None,
        )
        self._spans.append(span)
        return span

    def end(self, span: Span, t: float, **attrs) -> Span:
        """Close ``span`` at raw simulated time ``t`` (base applied).

        The recorded end is clamped so the interval covers every child
        already recorded under this span.
        """
        if span.t1 is not None:
            raise ObserveError(f"span {span.span_id} ({span.name}) already ended")
        t1 = self.time_base + t
        floor = self._max_child_end.get(span.span_id)
        if floor is not None and floor > t1:
            t1 = floor
        if t1 < span.t0:
            t1 = span.t0
        span.t1 = t1
        if attrs:
            span.attrs.update(attrs)
        if self.host_time:
            span.host_t1 = perf_counter()
        self._note_child_end(span.parent_id, t1)
        return span

    def add(
        self,
        name: str,
        kind: str,
        t0: float,
        t1: float,
        *,
        parent: Span | None = None,
        **attrs,
    ) -> Span:
        """Record an already-finished span over ``[t0, t1]`` raw sim time."""
        if t1 < t0:
            raise ObserveError(f"span {name!r} ends before it starts ({t1} < {t0})")
        span = self.begin(name, kind, t0, parent=parent, **attrs)
        span.t1 = self.time_base + t1
        if self.host_time:
            span.host_t1 = span.host_t0
        self._note_child_end(span.parent_id, span.t1)
        return span

    def event(
        self, name: str, kind: str, t: float, *, parent: Span | None = None, **attrs
    ) -> Span:
        """A zero-duration span (an instant marker)."""
        return self.add(name, kind, t, t, parent=parent, **attrs)

    @contextmanager
    def scope(self, span: Span) -> Iterator[Span]:
        """Make ``span`` the default parent for spans begun inside."""
        self._scope.append(span)
        try:
            yield span
        finally:
            self._scope.pop()

    def finish(self) -> Span:
        """End the root span at the latest recorded child end.

        Idempotent; open non-root spans are left open (their presence is
        a bug the property tests catch).
        """
        root = self._spans[0]
        if root.t1 is None:
            root.t1 = max(self._max_child_end.get(0, root.t0), root.t0)
            if self.host_time:
                root.host_t1 = perf_counter()
        return root

    # ------------------------------------------------------------------
    def _note_child_end(self, parent_id: int | None, t1: float) -> None:
        if parent_id is None:
            return
        floor = self._max_child_end.get(parent_id)
        if floor is None or t1 > floor:
            self._max_child_end[parent_id] = t1

    def __len__(self) -> int:
        return len(self._spans)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Tracer(spans={len(self._spans)}, base={self.time_base:.6f})"
