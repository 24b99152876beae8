"""The paper's end-to-end workflow: a session with a query cache.

Figure 2: a query arrives, is compiled to a serial plan and *cached*;
each further invocation of the same query template executes the current
plan, records the profile, and mutates the plan for next time -- the
user never calls the optimizer explicitly.  Once the convergence
algorithm finishes, every later invocation is served the global-minimum
plan from the cache.

This is the interface a database front-end would embed::

    session = AdaptiveSession(catalog, config)
    for _ in range(50):
        result = session.execute("SELECT SUM(x) FROM t WHERE y < 5")
    print(session.entry_for("SELECT SUM(x) FROM t WHERE y < 5").state)
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from ..config import SimulationConfig
from ..engine.scheduler import ExecutionResult
from ..errors import ReproError
from ..sql.lexer import statement_key, tokenize, tokens_key
from ..sql.planner import plan_sql
from ..storage.catalog import Catalog
from .adaptive import AdaptiveParallelizer, CreditDebitStep
from .convergence import ConvergenceParams, ConvergenceTracker
from .mutation import DEFAULT_PACK_FANIN_LIMIT


class EntryState(Enum):
    """Lifecycle of a cached query template."""

    ADAPTING = "adapting"
    CONVERGED = "converged"


@dataclass
class CacheEntry:
    """Per-query-template adaptation state: one step of the adaptive loop."""

    sql: str
    step: CreditDebitStep
    state: EntryState = EntryState.ADAPTING
    invocations: int = 0

    @property
    def tracker(self) -> ConvergenceTracker:
        """The template's convergence tracker (read-only view)."""
        return self.step.tracker

    @property
    def best_time(self) -> float:
        if self.tracker.runs <= 1:
            return self.tracker.serial_time
        return min(self.tracker.gme_time, self.tracker.serial_time)

    def summary(self) -> str:
        return (
            f"{self.state.value}: {self.invocations} invocation(s), "
            f"{self.tracker.runs} adaptive run(s), best "
            f"{self.best_time * 1000:.1f} ms"
        )


class AdaptiveSession:
    """Executes SQL, adapting each cached template across invocations.

    Templates are keyed by :func:`~repro.sql.lexer.statement_key`:
    whitespace and keyword/identifier case do not split a template,
    string literals do.  Each template steps one
    :class:`~repro.core.adaptive.CreditDebitStep`, the loop of
    :meth:`AdaptiveParallelizer.optimize`, by one run per invocation,
    through the runner of an internal unmemoized parallelizer:
    invocation ``k`` executes with seed ``config.seed + k``.
    """

    def __init__(
        self,
        catalog: Catalog,
        config: SimulationConfig | None = None,
        *,
        convergence: ConvergenceParams | None = None,
        pack_fanin_limit: int = DEFAULT_PACK_FANIN_LIMIT,
    ) -> None:
        self.catalog = catalog
        self.config = config if config is not None else SimulationConfig()
        self._parallelizer = AdaptiveParallelizer(
            self.config,
            convergence=convergence,
            pack_fanin_limit=pack_fanin_limit,
            memoize=False,
        )
        self._cache: dict[str, CacheEntry] = {}

    # ------------------------------------------------------------------
    def entry_for(self, sql: str) -> CacheEntry:
        try:
            return self._cache[statement_key(sql)]
        except KeyError:
            raise ReproError(f"query has never been executed: {sql!r}") from None

    def cached_queries(self) -> list[str]:
        return [entry.sql for entry in self._cache.values()]

    # ------------------------------------------------------------------
    def execute(self, sql: str) -> ExecutionResult:
        """Run one invocation of ``sql`` (compiling and caching if new).

        While the entry is adapting, each invocation runs the step's
        next plan and feeds the result back into it; once converged, the
        stored global-minimum plan is executed directly.
        """
        tokens = tokenize(sql)
        key = tokens_key(tokens)
        entry = self._cache.get(key)
        if entry is None:
            plan = plan_sql(sql, self.catalog, tokens)
            step = CreditDebitStep(self._parallelizer, plan)
            entry = self._cache[key] = CacheEntry(sql, step)
        entry.invocations += 1
        run = self._parallelizer.runner
        step = entry.step
        if entry.state is EntryState.ADAPTING:
            plan = step.next_plan()
            if plan is not None:
                result = run(plan, entry.invocations)
                step.observe(result)
                if not step.tracker.should_continue():
                    entry.state = EntryState.CONVERGED
                return result
            entry.state = EntryState.CONVERGED
        return run(step.history.choose(), entry.invocations)

    # ------------------------------------------------------------------
    def stats(self) -> dict[str, str]:
        """Per-template summaries, for monitoring dashboards."""
        return {entry.sql: entry.summary() for entry in self._cache.values()}
