"""In-memory spans around the program's public functions, for the traced run.

Each wrapper is installed in the namespace where its caller looks the function
up (``ranking.fit`` for the call in ``rank_episode``, ``model.gradient_hessian``
for the call inside ``fit``), so the program itself is not edited. A span's
self time is its duration minus the durations of the spans opened inside it;
summed over every span, self times add up to the root span's duration.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    sid: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    child_time: float = 0.0
    children: int = 0


@dataclass
class Tracer:
    """Records spans and counters; one instance per traced call."""

    spans: list[Span] = field(default_factory=list)
    self_s: dict[str, float] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    _stack: list[Span] = field(default_factory=list)
    _installed: list[tuple[object, str, object]] = field(default_factory=list)

    def open(self, name: str) -> Span:
        parent = self._stack[-1].sid if self._stack else None
        span = Span(len(self.spans), parent, name, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        duration = span.end - span.start
        if self._stack:
            self._stack[-1].child_time += duration
            self._stack[-1].children += 1
        self.self_s[span.name] = self.self_s.get(span.name, 0.0) + duration - span.child_time

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, owner, attr: str, name: str, on_return=None) -> None:
        """Replace ``owner.attr`` by a spanned wrapper; ``on_return(tracer,
        result, args, span)`` may record counts. Absent attributes are skipped, so
        their time stays with the enclosing span."""
        original = getattr(owner, attr, None)
        if original is None:
            return

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(span)
            if on_return is not None:
                on_return(self, result, args, span)
            return result

        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def write(self, fh, round_no: int) -> None:
        """One JSON line per span; spans of one timed call share ``round``."""
        for s in self.spans:
            fh.write(json.dumps({"round": round_no, "id": s.sid, "parent": s.parent,
                                 "name": s.name, "start": s.start, "end": s.end}) + "\n")


# --- the program's layers ------------------------------------------------------------

def _counter(name: str):
    return lambda tracer, result, args, span: tracer.count(name)


def _count_len(name: str):
    return lambda tracer, result, args, span: tracer.count(name, len(result))


def _count_states(tracer: Tracer, result, args, span: Span) -> None:
    tracer.count("machine.build_machine.states", result.num_states)


def _count_rank_many(tracer: Tracer, result, args, span: Span) -> None:
    tracer.count("ranking.rank_many.episodes", len(args[0]))
    tracer.count("ranking.rank_many.skipped", len(result[1]))


def install_program_spans(tracer: Tracer, pkg) -> None:
    """Wrap the layer functions of the ``episoderank`` package ``pkg``."""
    datagen, episodes, machine, miner, model, ranking = (
        pkg.datagen, pkg.episodes, pkg.machine, pkg.miner, pkg.model, pkg.ranking)
    max_iter = getattr(model, "MAX_ITER", None)

    tracer.wrap(datagen, "load_sequences", "datagen.load_sequences")
    tracer.wrap(episodes, "load_episodes", "episodes.load_episodes")
    for owner in (ranking, machine):
        tracer.wrap(owner, "prefix_graphs", "episodes.prefix_graphs")

    tracer.wrap(miner, "mine_serial", "miner.mine_serial", _count_len("miner.candidates"))
    tracer.wrap(miner, "mine_parallel", "miner.mine_parallel", _count_len("miner.candidates"))
    tracer.wrap(miner, "merge_serial_intersections", "miner.merge_serial_intersections",
                _count_len("miner.candidates"))

    for owner in (ranking, miner, machine):
        tracer.wrap(owner, "build_machine", "machine.build_machine", _count_states)
    tracer.wrap(ranking, "block_prefix", "machine.block")
    tracer.wrap(ranking, "block_super", "machine.block")
    tracer.wrap(miner, "support", "machine.support")

    tracer.wrap(ranking, "collect_statistics", "model.collect_statistics")
    tracer.wrap(model, "gradient_hessian", "model.gradient_hessian",
                _counter("model.fit.newton_iters"))

    def fit_counts(tr: Tracer, result, args, span: Span) -> None:
        tr.count("model.fit.calls")
        # each Newton iteration is one gradient_hessian span directly under fit
        if max_iter is not None and span.children >= max_iter:
            tr.count("model.fit.capped")

    tracer.wrap(ranking, "fit", "model.fit", fit_counts)
    tracer.wrap(ranking, "transition_rates", "model.transition_rates")
    tracer.wrap(ranking, "reach_table", "model.reach_table")

    tracer.wrap(ranking, "tail_exact", "ranking.tail_exact", _counter("ranking.tail_exact.calls"))
    tracer.wrap(ranking, "tail_poisson", "ranking.tail_approx")
    tracer.wrap(ranking, "tail_normal", "ranking.tail_approx")
    tracer.wrap(ranking, "rank_episode", "ranking.rank_episode")
    tracer.wrap(ranking, "rank_many", "ranking.rank_many", _count_rank_many)
    tracer.wrap(ranking, "render_report", "ranking.render_report")


SPAN_METRICS = (
    "cli.main", "datagen.load_sequences", "episodes.load_episodes", "episodes.prefix_graphs",
    "miner.mine_serial", "miner.mine_parallel", "miner.merge_serial_intersections",
    "machine.build_machine", "machine.block", "machine.support",
    "model.collect_statistics", "model.fit", "model.gradient_hessian",
    "model.transition_rates", "model.reach_table",
    "ranking.tail_exact", "ranking.tail_approx", "ranking.rank_episode", "ranking.rank_many",
    "ranking.render_report",
)
COUNT_METRICS = (
    "miner.candidates", "machine.build_machine.states", "model.fit.calls",
    "model.fit.newton_iters", "model.fit.capped", "ranking.tail_exact.calls",
    "ranking.rank_many.episodes", "ranking.rank_many.skipped",
)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Self time of every layer span (``<name>.s``) and every counter."""
    out = {f"{name}.s": tracer.self_s.get(name, 0.0) for name in SPAN_METRICS}
    out.update({name: float(tracer.counts.get(name, 0)) for name in COUNT_METRICS})
    return out
