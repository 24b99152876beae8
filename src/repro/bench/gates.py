"""Gates on a report: bounds on its metrics, given as data.

A gate is ``METRIC<=X`` or ``METRIC>=X``.  METRIC is a dotted path into
the report's JSON document; a step into a list is an integer index, so
``sweep.-1.speedup`` is the last sweep row's speedup and
``totals.p99_ms`` a loadgen report's overall p99.  ``repro bench NAME``
and ``repro serve --loadgen`` take them as repeatable ``--gate`` flags.

A bench may also declare *invariants*: paths that must be true wherever
the report has them, whatever gates were asked for (for example, that
memoized runs reproduce the serial engine's results).
"""

from __future__ import annotations

import re
from typing import Iterable

from ..errors import ReproError

_GATE = re.compile(
    r"^\s*([^<>=\s]+)\s*(<=|>=)\s*([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)\s*$"
)


def parse_gate(gate: str) -> tuple[str, str, float]:
    """``(path, op, bound)`` of one gate; :class:`ReproError` if malformed."""
    match = _GATE.match(gate)
    if match is None:
        raise ReproError(f"gate {gate!r} is not METRIC<=X or METRIC>=X, X a number")
    path, op, bound = match.groups()
    return path, op, float(bound)


def metric(report: dict, path: str):
    """The value at a dotted ``path``; :class:`ReproError` if absent."""
    value = report
    for step in path.split("."):
        try:
            value = value[int(step)] if isinstance(value, list) else value[step]
        except (KeyError, IndexError, TypeError, ValueError):
            raise ReproError(f"the report has no {path!r}") from None
    return value


def check_gates(
    report: dict, gates: Iterable[str] = (), invariants: Iterable[str] = ()
) -> None:
    """Raise :class:`ReproError` unless the report passes every check.

    An invariant the report lacks (its section did not run) is not
    checked; every gate's metric must exist and be a number.
    """
    failures = []
    for path in invariants:
        try:
            value = metric(report, path)
        except ReproError:
            continue
        if value is not True:
            failures.append(f"{path} is {value!r}")
    for gate in gates:
        path, op, bound = parse_gate(gate)
        value = metric(report, path)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ReproError(f"gate {gate!r}: {path} is {value!r}, not a number")
        if not (value <= bound if op == "<=" else value >= bound):
            failures.append(f"{path} is {value:g}, wanted {op} {bound:g}")
    if failures:
        raise ReproError("gate failed: " + "; ".join(failures))
