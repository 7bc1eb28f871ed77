"""Operation accounting, counters and tracing spans for the benchmark.

A run is a sequence of rounds: set-up rounds that build the inputs and timed
passes over them.  Every call the benchmark makes into netrev goes through
``Recorder.call``, which wraps it in a span while the round is traced.
Spans live in memory (name, start, end, parent, round, run id) and are
written out when the run ends.  Counters are kept per round whether or not
it is traced, because the output checks and the quality numbers need them.
"""

import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional


@dataclass
class Span:
    id: int
    name: str
    parent: Optional[int]
    round: int
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self, run_id: str) -> dict:
        return {"run": run_id, "id": self.id, "name": self.name,
                "parent": self.parent, "round": self.round,
                "start": self.start, "end": self.end}


@dataclass
class Round:
    index: int
    kind: str        # "setup" or "pass"
    traced: bool
    sums: dict = field(default_factory=dict)
    samples: dict = field(default_factory=dict)
    seconds: float = 0.0
    references: list = field(default_factory=list)
    probe_seconds: float = 0.0


class Operation:
    """One checked unit of work; ``check`` records a failed expectation."""

    def __init__(self):
        self.problems = []

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)


class Recorder:
    def __init__(self, run_id: str, probe):
        """``probe`` times a reference computation; it runs before every
        operation of a pass, and its time is left out of the pass time."""
        self.run_id = run_id
        self.probe = probe
        self.rounds: list[Round] = []
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    @property
    def current(self) -> Round:
        return self.rounds[-1]

    @contextmanager
    def round(self, kind: str, traced: bool):
        rnd = Round(len(self.rounds), kind, traced)
        self.rounds.append(rnd)
        t0 = time.perf_counter()
        with self.span(f"bench.{kind}"):
            yield rnd
        rnd.seconds = time.perf_counter() - t0

    @contextmanager
    def span(self, name: str):
        if not (self.rounds and self.current.traced):
            yield
            return
        sp = Span(len(self.spans), name,
                  self._stack[-1].id if self._stack else None,
                  self.current.index, time.perf_counter())
        self.spans.append(sp)
        self._stack.append(sp)
        try:
            yield
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``<layer>.<what>``."""
        with self.span(name):
            return fn(*args, **kwargs)

    def add(self, name: str, value: float) -> None:
        self.current.sums[name] = self.current.sums.get(name, 0.0) + value

    def sample(self, name: str, value: float) -> None:
        self.current.samples.setdefault(name, []).append(float(value))

    @contextmanager
    def operation(self, label: str):
        """Count one attempted operation; it fails on an exception or on a
        failed check, and the run goes on either way."""
        rnd = self.current
        if rnd.kind == "pass":
            t0 = time.perf_counter()
            rnd.references.append(self.probe())
            rnd.probe_seconds += time.perf_counter() - t0
        op = Operation()
        self.attempted += 1
        try:
            yield op
        except Exception as exc:  # recorded as a failed operation
            op.problems.append(f"{type(exc).__name__}: {exc}")
        if op.problems:
            self.failed += 1
            self.failures.append(f"{label}: {'; '.join(op.problems)}")

    # -- aggregation -------------------------------------------------------

    def pass_seconds(self, traced: bool) -> list[float]:
        """Pass times without the reference probes; a traced pass also
        excludes its ``bench.decompose`` spans, which repeat work only the
        traced run does."""
        out = []
        for rnd in self.rounds:
            if rnd.kind != "pass" or rnd.traced != traced:
                continue
            extra = sum(sp.duration for sp in self.spans
                        if sp.round == rnd.index and sp.name == "bench.decompose")
            out.append(rnd.seconds - rnd.probe_seconds - extra)
        return out

    def span_totals(self, rnd: Round) -> tuple[dict, dict]:
        """(total seconds per span name, self seconds per layer) of a round.

        A span's self time is its duration minus that of its direct
        children.  Spans under ``bench.decompose`` count toward their names
        but not toward layer self time, so self times describe the pass.
        """
        spans = [sp for sp in self.spans if sp.round == rnd.index]
        by_id = {sp.id: sp for sp in spans}
        child_time: dict[int, float] = {}
        for sp in spans:
            if sp.parent is not None:
                child_time[sp.parent] = child_time.get(sp.parent, 0.0) + sp.duration
        totals: dict[str, float] = {}
        self_by_layer: dict[str, float] = {}
        for sp in spans:
            totals[sp.name] = totals.get(sp.name, 0.0) + sp.duration
            if self._under_decompose(sp, by_id):
                continue
            layer = sp.name.split(".", 1)[0]
            self_by_layer[layer] = (self_by_layer.get(layer, 0.0)
                                    + sp.duration - child_time.get(sp.id, 0.0))
        return totals, self_by_layer

    @staticmethod
    def _under_decompose(sp: Span, by_id: dict) -> bool:
        while sp is not None:
            if sp.name == "bench.decompose":
                return True
            sp = by_id.get(sp.parent)
        return False


def per_kind_mean(rows: list[dict]) -> dict:
    """Mean of each key over rows, a missing key counting as 0."""
    keys = {k for row in rows for k in row}
    return {k: statistics.fmean(row.get(k, 0.0) for row in rows) for k in keys}
