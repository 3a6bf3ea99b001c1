"""Turning fitted models into surprise ranks.

The observed support is a sum of independent per-sequence Bernoulli indicators
whose success probabilities depend only on sequence length, so its exact law is
Poisson-binomial: a convolution of one binomial per length class. The rank of
an episode under a model is the negative log survival probability of the
observed support; large rank = the model considers the support abnormally high.

Episodes are ranked in batches (:func:`rank_many`; :func:`rank_episode` is the
batch of one). A batch is a disjoint union of the episodes' machines: one walk
gives every support and, for the episodes with a partition model to fit, the
sufficient statistics; the independence models come in closed form from the
corpus label counts. :func:`rank_models` is the one path from fitted models to
ranks: one reach recursion over the union up to the longest sequence, the sink
column read at every length, then each member's tail; :func:`rank` is its call
for one model. Every episode also lists its partition models (every proper
prefix split, every same-vertex stricter candidate), fitted one by one on its
statistics; the combined rank is the lowest over that family. An episode's
numbers do not depend on the batch it shares.
"""

from __future__ import annotations

import math
import multiprocessing
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import gammaln, log_ndtr, xlog1py, xlogy

from .datagen import DataError, Dataset
from .episodes import Episode, EpisodeError, vertex_set_label
from .episodes import prefix_graphs  # noqa: F401  (perfbench/tracer.py wraps ranking.prefix_graphs)
from .machine import Machine, block_prefix, block_super, build_machine
from .miner import CandidateSet
from .model import (  # noqa: F401  (perfbench/tracer.py wraps ranking.collect_statistics)
    EMPTY_SPEC,
    MachineUnion,
    ModelParams,
    NumericalFitError,
    PartitionSpec,
    collapse_alphabet,
    collect_statistics,
    fit,
    fit_independence,
    reach_table,
    transition_rates,
    walk,
)

POISSON_MU_MAX = 10.0  # below this the normal approximation is unreliable
EXACT_LIMIT = 5_000  # most sequences the CLI lets --exact run on
INDEPENDENCE = "independence"
# array cells one batch of episodes fills at most (an episode needing more is
# a batch alone): the corpus events its walk reads plus its reach table's
# states x lengths. It bounds the batch's arrays and so the peak memory.
BATCH_CELLS = 1 << 15


# --- tail probabilities -----------------------------------------------------------

_BAND_CELLS = 1 << 20  # cells per block of the banded convolution: 8 MB of float64


def tail_exact(probs, n: int, counts=None) -> float:
    """Log survival P(X >= n), X the sum of independent Binomial(counts[k], probs[k]).

    ``counts`` defaults to one per probability (a Poisson-binomial over single
    sequences); grouping sequences of equal cover probability costs one banded
    convolution per class instead of one step per sequence. Mass reaching n
    successes is absorbed class by class, so the result is a sum of positive
    terms and stays accurate even when astronomically small.
    """
    probs = np.asarray(probs, dtype=float)
    counts = np.ones(len(probs), dtype=int) if counts is None else np.asarray(counts, dtype=int)
    if n <= 0:
        return 0.0
    if n > counts.sum():
        return -math.inf
    log_f = np.full(n, -np.inf)
    log_f[0] = 0.0  # log P(j successes so far), j = 0..n-1
    absorbed = -np.inf
    log_fact = gammaln(np.arange(counts.max() + 1) + 1.0)
    for p, c in zip(probs, counts):
        if c == 0:
            continue
        j = np.arange(c + 1)
        log_pmf = (log_fact[c] - log_fact[:c + 1] - log_fact[c::-1]
                   + xlogy(j, p) + xlog1py(c - j, -p))
        log_sf = np.logaddexp.accumulate(log_pmf[::-1])[::-1]  # log P(Bin >= x)
        # gammaln rounding scales the whole pmf by 1 + O(c eps); renormalise
        log_pmf -= log_sf[0]
        log_sf -= log_sf[0]
        lo = max(0, n - c)  # counts below lo cannot reach n within this class
        absorbed = np.logaddexp(absorbed, _log_sum_exp(log_f[lo:] + log_sf[n - lo:0:-1]))
        # new log_f[j] = log sum_b exp(log_f[j - b] + log_pmf[b]) over b < width
        width = min(c, n - 1) + 1
        padded = np.concatenate((np.full(width - 1, -np.inf), log_f))
        windows = sliding_window_view(padded, width)  # row j holds log_f[j-width+1..j]
        rows = max(1, _BAND_CELLS // width)  # bound the temporary at large supports
        log_f = np.concatenate([_log_sum_exp(windows[i:i + rows] + log_pmf[width - 1::-1])
                                for i in range(0, n, rows)])
    return float(absorbed)


def _log_sum_exp(terms: np.ndarray) -> np.ndarray:
    """log(sum(exp(terms))) over the last axis, max-shifted; all -inf gives -inf."""
    top = terms.max(axis=-1, keepdims=True)
    top[~np.isfinite(top)] = 0.0
    with np.errstate(divide="ignore"):
        return np.log(np.exp(terms - top).sum(axis=-1)) + top[..., 0]


def tail_normal(mu: float, sigma2: float, n: float) -> float:
    """Log survival of N(mu, sigma2) above n - 1/2 (continuity corrected).

    ``log_ndtr`` keeps full accuracy far into the tail, where the survival
    probability itself would underflow long before z reaches the hundreds.
    """
    if sigma2 <= 0.0:
        return 0.0 if n <= mu else -math.inf
    z = (n - 0.5 - mu) / math.sqrt(sigma2)
    return float(log_ndtr(-z))


def tail_poisson(mu: float, n: int) -> float:
    """Log survival P(Poisson(mu) >= n), stable deep into the upper tail."""
    if n <= 0:
        return 0.0
    if mu <= 0.0:
        return -math.inf
    if n <= mu:
        # survival is order one; the short lower sum has no cancellation issue
        k = np.arange(n)
        log_pmf = -mu + k * math.log(mu) - gammaln(k + 1)
        m = log_pmf.max()
        cdf = math.exp(m) * float(np.exp(log_pmf - m).sum())
        return math.log1p(-cdf) if cdf < 1.0 else -math.inf
    # direct series sum_{k>=n} pmf(k): decreasing terms, geometric remainder bound
    log_mu = math.log(mu)
    log_term = -mu + n * log_mu - float(gammaln(n + 1))
    acc = log_term
    k = n
    while True:
        k += 1
        log_term += log_mu - math.log(k)
        acc = np.logaddexp(acc, log_term)
        ratio = mu / (k + 1)
        if log_term + math.log(ratio / (1.0 - ratio)) < acc + math.log(1e-17):
            break
    return float(acc)


# --- ranks -------------------------------------------------------------------------

@dataclass
class RankResult:
    mu: float
    sigma2: float
    observed: int
    rank: float  # -log survival, natural log
    method: str  # exact | normal | poisson
    explainer: str
    zscore: float | None = None


def rank_models(union: MachineUnion, params: list[ModelParams], specs: list[PartitionSpec],
                dataset: Dataset, observed: list[int], exact: bool = False,
                explainer: str = INDEPENDENCE) -> list[RankResult]:
    """Rank each member's observed support against the member's fitted model.

    The cover probability of a sequence of length k is the sink entry of row
    k of one reach recursion over the union. The expected support and its
    variance are summed one length at a time in ``length_counts`` order, for
    all members at once. Each member then uses the Poisson approximation when
    its expected support is small (at most 10), the corrected normal
    approximation otherwise, or the exact Poisson-binomial law on request.
    """
    counts = dataset.length_counts()  # keyed in order of first appearance
    stay, edge_p = transition_rates(union, params, specs)
    sink = reach_table(union, stay, edge_p, max(counts, default=0))[:, union.sink]
    mu = sigma2 = np.zeros(len(union.members))
    for k, c in counts.items():
        p = sink[k]
        mu = mu + c * p
        sigma2 = sigma2 + c * p * (1.0 - p)
    lengths = sorted(counts)
    results = []
    for i, (m, s2, n) in enumerate(zip(mu.tolist(), sigma2.tolist(), observed)):
        zscore = (n - 0.5 - m) / math.sqrt(s2) if s2 > 0 else None
        if exact:
            method, log_surv = "exact", tail_exact(sink[lengths, i], n,
                                                   [counts[k] for k in lengths])
        elif m <= POISSON_MU_MAX:
            method, log_surv = "poisson", tail_poisson(m, n)
        else:
            method, log_surv = "normal", tail_normal(m, s2, n)
        if n <= 0:
            log_surv = 0.0  # P(X >= 0) = 1 identically
        results.append(RankResult(m, s2, n, max(0.0, -log_surv), method, explainer, zscore))
    return results


def rank(machine: Machine, params: ModelParams, spec: PartitionSpec, dataset: Dataset,
         observed: int, exact: bool = False, explainer: str = INDEPENDENCE) -> RankResult:
    """Rank the observed support against one fitted model (see :func:`rank_models`)."""
    return rank_models(MachineUnion([machine]), [params], [spec], dataset, [observed],
                       exact, explainer)[0]


@dataclass
class SpecEvaluation:
    explainer: str
    spec: PartitionSpec
    params: ModelParams
    result: RankResult


@dataclass
class EpisodeRanking:
    eid: str
    episode: Episode
    support: int
    ind: RankResult
    part: RankResult
    evaluations: list[SpecEvaluation] = field(default_factory=list)

    @property
    def rho_eta(self) -> tuple[float, float]:
        return rho_eta(self.ind.rank, self.part.rank)


def _beats(cand: RankResult, best: RankResult | None) -> bool:
    """True when ``cand`` ranks lower than ``best`` as printed (10 significant
    digits): among models whose ranks print alike, the first evaluated wins,
    not whichever carries the lowest rounding noise."""
    return best is None or float(_fmt(cand.rank)) < float(_fmt(best.rank))


def rank_episode(eid: str, episode: Episode, dataset: Dataset,
                 candidates: CandidateSet | None = None, exact: bool = False,
                 keep_evaluations: bool = False) -> EpisodeRanking:
    """Full pipeline for one episode: the batch of one of :func:`rank_many`.

    Raises the episode's EpisodeError or NumericalFitError.
    """
    result = _rank_batch([(eid, episode)], dataset, candidates, exact, keep_evaluations)[0]
    if isinstance(result, Exception):
        raise result
    return result


def _partition_models(machine: Machine,
                      candidates: CandidateSet | None) -> list[tuple[str, PartitionSpec]]:
    """Every proper prefix split in prefix-graph order, then every stricter
    candidate in input order."""
    episode = machine.episode
    full = (1 << episode.n) - 1
    models = [(f"prefix:{vertex_set_label(episode, w)}",
               PartitionSpec(block_prefix(machine, w), block_prefix(machine, full ^ w)))
              for w in machine.states if w not in (0, full)]
    if candidates is not None:
        models += [(f"super:{sup.eid}",
                    PartitionSpec(block_super(machine, sup.episode), frozenset()))
                   for sup in candidates.superepisodes_of(episode)]
    return models


def _rank_batch(episodes: list[tuple[str, Episode]], dataset: Dataset,
                candidates: CandidateSet | None, exact: bool,
                keep_evaluations: bool = False) -> list[EpisodeRanking | Exception]:
    """Rank a batch of episodes; a failing episode's exception takes its place.

    One walk over the union of the episodes' machines gives every support,
    and the statistics of the episodes with a partition model that boosts an
    edge. The independence models come from the label counts and are ranked
    together. Each boosted model is fitted on its episode's statistics and
    ranked alone (through the module's :func:`rank`); a model that boosts no
    edge is the independence model and reuses its rank instead of refitting.
    """
    out: list = [None] * len(episodes)
    ranked, machines, models = [], [], []
    for i, (_, episode) in enumerate(episodes):
        try:
            machine = build_machine(episode)
        except EpisodeError as exc:
            out[i] = exc
            continue
        ranked.append(i)
        machines.append(machine)
        models.append(_partition_models(machine, candidates))
    union = MachineUnion(machines)
    collapsed = [collapse_alphabet(dataset.alphabet, m.episode) for m in machines]
    supports, stats = walk(union, dataset, collapsed,
                           [any(not spec.is_empty for _, spec in ms) for ms in models])

    if dataset.total_events == 0:
        for i, observed in zip(ranked, supports):
            zero = RankResult(0.0, 0.0, observed, 0.0, "exact" if exact else "poisson",
                              INDEPENDENCE)
            out[i] = EpisodeRanking(*episodes[i], observed, zero, zero)
        return out

    params0 = fit_independence(dataset, collapsed)
    inds = rank_models(union, params0, [EMPTY_SPEC] * len(machines), dataset, supports, exact)
    for j, i in enumerate(ranked):
        machine, observed, ind = machines[j], supports[j], inds[j]
        evaluations = [SpecEvaluation(INDEPENDENCE, EMPTY_SPEC, params0[j], ind)]
        best: RankResult | None = None
        try:
            for explainer, spec in models[j]:
                if spec.is_empty:
                    params, cand = params0[j], ind
                else:
                    params = fit(machine, spec, stats[j])
                    cand = rank(machine, params, spec, dataset, observed, exact=exact,
                                explainer=explainer)
                if keep_evaluations:
                    evaluations.append(SpecEvaluation(explainer, spec, params, cand))
                if _beats(cand, best):
                    best = cand
        except NumericalFitError as exc:
            out[i] = exc
            continue
        out[i] = EpisodeRanking(*episodes[i], observed, ind, best or ind,
                                evaluations if keep_evaluations else [])
    return out


def rho_eta(r_ind: float, r_part: float) -> tuple[float, float]:
    """Relative rank drops in both directions; infinite sentinels on zero bases."""
    if r_ind == r_part:
        return 0.0, 0.0
    rho = (r_ind - r_part) / r_part if r_part != 0.0 else math.inf * (r_ind - r_part)
    eta = (r_part - r_ind) / r_ind if r_ind != 0.0 else math.inf * (r_part - r_ind)
    return rho, eta


def kendall_tau(ranking_a: list[tuple[str, float]], ranking_b: list[tuple[str, float]]) -> float:
    """Tie-corrected (tau-b) correlation of two scorings of the same ids.

    All-tied inputs score 0; fewer than two items gives the NaN sentinel.
    """
    ids_a = {i for i, _ in ranking_a}
    ids_b = {i for i, _ in ranking_b}
    if ids_a != ids_b:
        raise ValueError("rankings must cover the same ids")
    if len(ranking_a) < 2:
        return math.nan
    score_b = dict(ranking_b)
    xs = [s for _, s in ranking_a]
    ys = [score_b[i] for i, _ in ranking_a]
    if len(set(xs)) == 1 or len(set(ys)) == 1:
        return 0.0
    from scipy.stats import kendalltau  # only compare needs it; importing it is slow

    return float(kendalltau(xs, ys).statistic)


# --- batch ranking -----------------------------------------------------------------

_WORKER: dict = {}


def _init_worker(dataset: Dataset, candidates: CandidateSet | None, exact: bool) -> None:
    _WORKER.update(dataset=dataset, candidates=candidates, exact=exact)


def _rank_reported(batch, dataset, candidates, exact) -> list:
    """:func:`_rank_batch` with every failure as its (id, message) pair."""
    return [(eid, str(value)) if isinstance(value, Exception) else value
            for (eid, _), value in zip(batch, _rank_batch(batch, dataset, candidates, exact))]


def _rank_worker(batch: list[tuple[str, Episode]]) -> list:
    return _rank_reported(batch, **_WORKER)


def _batches(episodes: list[tuple[str, Episode]], dataset: Dataset,
             threads: int) -> list[list[tuple[str, Episode]]]:
    """Consecutive episodes that fill at most BATCH_CELLS cells together; with
    several threads, at most a quarter of each thread's share.

    An episode fills one cell per corpus event of its labels and one per
    reach-table entry, at most 2^n states (the vertex sets) times the lengths.
    """
    counts, id_of = dataset.label_counts(), dataset.alphabet.id_of
    rows = max(dataset.length_counts(), default=0) + 1
    cells = [sum(int(counts[lid]) for lid in {id_of(lab) for lab in ep.labels} - {None})
             + (rows << ep.n) for _, ep in episodes]
    bound = BATCH_CELLS
    if threads > 1:
        bound = min(bound, math.ceil(sum(cells) / (4 * threads)))
    batches: list[list[tuple[str, Episode]]] = []
    size = 0
    for item, n in zip(episodes, cells):
        if not batches or size + n > bound:
            batches.append([])
            size = 0
        batches[-1].append(item)
        size += n
    return batches


def rank_many(episodes: list[tuple[str, Episode]], dataset: Dataset,
              candidates: CandidateSet | None = None, exact: bool = False,
              threads: int = 1) -> tuple[list[EpisodeRanking], list[tuple[str, str]]]:
    """Rank episodes in bounded batches, optionally across at most ``threads``
    worker processes, each batch a task.

    An episode's result does not depend on the batch it shares, so results
    come back in input order and the same whatever the schedule; per-episode
    size and fitting failures are collected instead of aborting the batch.
    """
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:  # platform without fork: run in-process
        ctx = None
    if len(episodes) < 4 or ctx is None:
        threads = 1
    batches = _batches(episodes, dataset, threads)
    workers = min(threads, len(batches))
    if workers <= 1:
        raw = [_rank_reported(batch, dataset, candidates, exact) for batch in batches]
    else:
        with ctx.Pool(workers, _init_worker, (dataset, candidates, exact)) as pool:
            raw = pool.map(_rank_worker, batches, chunksize=1)
    values = [value for part in raw for value in part]
    rows = [value for value in values if isinstance(value, EpisodeRanking)]
    errors = [value for value in values if not isinstance(value, EpisodeRanking)]
    return rows, errors


# --- report ------------------------------------------------------------------------

REPORT_COLUMNS = ("id", "support", "mu_ind", "rank_ind", "mu_part", "rank_part",
                  "method", "explainer", "rho", "eta")


def _fmt(x: float, log10: bool = False) -> str:
    if log10:
        x = x / math.log(10.0) if math.isfinite(x) else x
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if math.isnan(x):
        return "nan"
    return f"{x:.10g}"


def sort_rows(rows: list[EpisodeRanking]) -> list[EpisodeRanking]:
    """Worst-explained first, comparing ranks as printed (10 significant digits)
    so that rows which print alike are ordered by id, not by last-ulp noise."""
    return sorted(rows, key=lambda r: (-float(_fmt(r.part.rank)), -float(_fmt(r.ind.rank)),
                                       r.eid))


def render_report(rows: list[EpisodeRanking], header_lines: list[str] = (),
                  log10: bool = False, errors: list[tuple[str, str]] = ()) -> str:
    """Deterministic TSV: one row per episode, worst-explained first."""
    lines = [f"# {h}" for h in header_lines]
    lines.append("\t".join(REPORT_COLUMNS))
    for r in sort_rows(rows):
        rho, eta = r.rho_eta
        lines.append("\t".join((
            r.eid,
            str(r.support),
            _fmt(r.ind.mu),
            _fmt(r.ind.rank, log10),
            _fmt(r.part.mu),
            _fmt(r.part.rank, log10),
            r.part.method,
            r.part.explainer,
            _fmt(rho),
            _fmt(eta),
        )))
    for eid, msg in errors:
        lines.append(f"# skipped {eid}: {msg}")
    return "\n".join(lines) + "\n"


def parse_report(text: str) -> list[dict]:
    """Read back the TSV produced by :func:`render_report`; DataError if the
    header lacks a report column or a row does not parse."""
    rows = []
    header: list[str] | None = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if header is None:
            missing = [col for col in REPORT_COLUMNS if col not in parts]
            if missing:
                raise DataError(f"not a rank report: missing columns {', '.join(missing)}")
            header = parts
            continue
        row = dict(zip(header, parts))
        try:
            row["support"] = int(row["support"])
            for col in ("mu_ind", "rank_ind", "mu_part", "rank_part", "rho", "eta"):
                row[col] = float(row[col])
        except (KeyError, ValueError) as exc:
            raise DataError(f"line {lineno}: malformed report row: {exc}") from None
        rows.append(row)
    return rows
