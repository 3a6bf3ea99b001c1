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
corpus label counts. Every episode also lists its partition models (every
proper prefix split, every same-vertex stricter candidate), fitted one by one
on its statistics. :func:`rank_models` is the one path from fitted models to
ranks, called once per batch for every model of every episode: one reach pass
over the union that keeps the sink column at the corpus's sequence lengths
only, then one tail call for the members of each tail method. The combined
rank is the lowest over an episode's family. An episode's numbers do not
depend on the batch it shares.
"""

from __future__ import annotations

import math
import multiprocessing
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit, gammaln, log_ndtr

from .datagen import DataError, Dataset
from .episodes import Episode, EpisodeError, vertex_set_label
from .episodes import prefix_graphs  # noqa: F401  (perfbench/tracer.py wraps ranking.prefix_graphs)
from .machine import Machine, Skeleton, block_prefix, block_super, build_machine
from .miner import CandidateSet
from .model import (  # noqa: F401  (perfbench/tracer.py wraps ranking.collect_statistics)
    EMPTY_SPEC,
    MachineUnion,
    ModelParams,
    NumericalFitError,
    PartitionSpec,
    collapse_alphabet,
    collect_statistics,
    distinct_labels,
    fit,
    fit_independence,
    reach_table,
    transition_rates,
    walk,
)

POISSON_MU_MAX = 10.0  # below this the normal approximation is unreliable
INDEPENDENCE = "independence"
# array cells one batch of episodes fills at most (an episode needing more is
# a batch alone): the corpus events its walk reads plus its reach table's
# states x distinct sequence lengths. It bounds the batch's arrays and so the
# peak memory.
BATCH_CELLS = 1 << 15


# --- tail probabilities -----------------------------------------------------------

TAIL_WINDOW = 45.0  # a tilted class keeps the pmf terms within e^-45 of its largest
_WINDOW_CELLS = 1 << 16  # classes x members x window cells evaluated at once: 512 KB
_NEWTON_STEPS = 200  # most safeguarded Newton steps for one saddlepoint
_LOG_1E17 = math.log(1e-17)


def tail_exact(probs, n, counts=None):
    """Log survival P(X >= n), X the sum of independent Binomial(counts[k], probs[k]).

    ``probs`` of shape [M, L] with ``n`` of shape [M] gives the survivals of M
    members as an array; ``probs`` [L] with a scalar ``n`` gives a float.
    ``counts`` [L] is shared by the members and defaults to one per probability
    (a Poisson-binomial over single sequences).

    Exponential tilting (Keich, J. Comput. Biol. 12(4), 2005): theta solves
    K'(theta) = n, K the cumulant generating function of X, so the tilted law
    P_theta(x) = P(x) e^(theta x - K(theta)) is centred on n, and
    P(X >= n) = e^(K(theta) - theta n) sum_{x >= n} P_theta(x) e^(-theta (x - n)),
    a sum of positive terms with weights at most 1. Each class's tilted
    binomial keeps the terms within e^-TAIL_WINDOW of its largest, and the
    classes are convolved in linear space; the cost grows with the classes'
    spreads, not with n or the number of sequences. Below the mean theta < 0,
    and the same sum over x < n gives P(X < n), returned as log1p(-P(X < n)).
    A member's value depends on its own inputs alone, not on the batch.
    """
    probs = np.asarray(probs, dtype=float)
    p = np.ascontiguousarray(np.atleast_2d(probs).T)  # [L, M]: members along the rows
    need = np.atleast_1d(np.asarray(n)).astype(np.int64)
    c = np.ones(len(p), dtype=np.int64) if counts is None else np.asarray(counts, dtype=np.int64)
    live = (p > 0.0) & (p < 1.0) & (c[:, None] > 0)  # classes whose count is random
    need = need - ((p >= 1.0) * c[:, None]).sum(axis=0)  # certain successes (exact integers)
    spread = np.where(live, c[:, None], 0).sum(axis=0)
    out = np.where(need <= 0, 0.0, -np.inf)  # certain below 1, impossible above spread
    every = np.flatnonzero((need > 0) & (need == spread))
    if every.size:  # every random trial succeeds
        out[every] = _class_sum(c[:, None] * np.log(np.where(live[:, every], p[:, every], 1.0)))
    tilt = np.flatnonzero((need > 0) & (need < spread))
    if tilt.size:
        out[tilt] = _tilted(p[:, tilt], live[:, tilt], need[tilt], c)
    return float(out[0]) if probs.ndim == 1 else out


def _class_sum(terms: np.ndarray) -> np.ndarray:
    """Sum over the class axis one class at a time: a member's sum then has
    the same rounding however many members share the array."""
    total = np.zeros(terms.shape[1:])
    for row in terms:
        total = total + row
    return total


def _tilted(p: np.ndarray, live: np.ndarray, n: np.ndarray, c: np.ndarray) -> np.ndarray:
    """:func:`tail_exact` of members with 0 < n < (trials of live classes);
    ``p`` and ``live`` are [L, M], ``n`` [M] net of certain successes."""
    p = np.where(live, p, 0.5)
    cl = np.where(live, c[:, None], 0)
    weight = cl.astype(float)
    logit = np.log(p) - np.log1p(-p)
    theta, mean = _saddlepoint(p, logit, live, weight, n)
    r = theta + logit  # tilted log-odds of each class
    # K(theta) = sum_k c_k log(1 - p_k + p_k e^theta), relatively accurate near 0
    log_mgf = np.log1p(p * np.expm1(np.minimum(theta, 700.0)))
    far = np.flatnonzero(theta > 700.0)
    log_mgf[:, far] = np.logaddexp(np.log1p(-p[:, far]), np.log(p[:, far]) + theta[far])
    shift = _class_sum(weight * log_mgf) - theta * n
    # each class's window lies inside its Bernstein range: a kept term has
    # pmf >= e^-TAIL_WINDOW / (c + 1), and pmf(j) <= exp(-d^2 / (2 (v + d/3)))
    # at distance d from the tilted mean
    q = expit(r)
    var = weight * q * expit(-r)
    bound = TAIL_WINDOW + np.log(weight + 1.0) + 1.0
    reach = bound / 3.0 + np.sqrt(bound * bound / 9.0 + 2.0 * bound * var)
    lo = np.clip(np.floor(weight * q - reach), 0, cl).astype(np.int64)
    hi = np.clip(np.ceil(weight * q + reach), 0, cl).astype(np.int64)
    # log pmf at each window's start; its rounding, up to c eps, scales the
    # whole class and cancels against the law's total below
    log_start = (gammaln(weight + 1.0) - gammaln(lo + 1.0) - gammaln(weight - lo + 1.0)
                 + lo * r - weight * np.logaddexp(0.0, r))
    upper = mean <= n
    tail, total = np.empty(len(n)), np.empty(len(n))
    # members per window grid: classes x members x the widest window <= _WINDOW_CELLS
    per = max(1, _WINDOW_CELLS // (len(p) * int((hi - lo).max() + 1)))
    for chunk in (slice(s, min(s + per, len(n))) for s in range(0, len(n), per)):
        width = int((hi[:, chunk] - lo[:, chunk]).max()) + 1
        j = lo[:, chunk, None] + np.arange(width - 1)
        inside = np.arange(width) <= (hi - lo)[:, chunk, None]
        # then steps log(pmf(j + 1) / pmf(j)) = log((c - j) / (j + 1)) + r, summed in
        # order: a term's rounding stays near eps times its distance from the start
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.log(weight[:, chunk, None] - j) - np.log(j + 1.0) + r[:, chunk, None]
        log_pmf = np.concatenate((log_start[:, chunk, None], step), axis=2).cumsum(axis=2)
        log_pmf = np.where(inside, log_pmf, -np.inf)
        keep = log_pmf >= log_pmf.max(axis=2, keepdims=True) - TAIL_WINDOW
        pmf = np.where(keep, np.exp(log_pmf), 0.0)
        first = keep.argmax(axis=2)
        last = width - keep[:, :, ::-1].argmax(axis=2)
        start = np.where(live[:, chunk], lo[:, chunk] + first, 0).sum(axis=0)
        for i, m in enumerate(range(chunk.start, chunk.stop)):
            law = None
            for k in np.flatnonzero(live[:, m]).tolist():
                window = pmf[k, i, first[k, i]:last[k, i]]
                law = window if law is None else np.convolve(law, window)
            # weights e^(-theta (x - n)) <= 1 over x >= n above the mean, x < n below
            t = int(n[m] - start[i])
            span = slice(max(t, 0), None) if upper[m] else slice(0, min(max(t, 0), len(law)))
            x = np.arange(len(law))[span] - t
            tail[m] = (law[span] * np.exp(-theta[m] * x)).sum()
            total[m] = law.sum()
    with np.errstate(divide="ignore"):
        log_tail = shift + np.log(tail) - np.log(total)
    return np.where(upper, log_tail, np.log1p(-np.exp(log_tail)))


def _saddlepoint(p, logit, live, weight, n) -> tuple[np.ndarray, np.ndarray]:
    """theta with K'(theta) = n for every member, and the mean K'(0).

    Newton on the increasing K'(theta) = sum_k c_k expit(theta + logit_k),
    kept inside a bracket where every class's tilted probability lies below
    or above n / (trials); a step leaving the bracket bisects it instead.
    A member stops once it is within 1e-6 standard deviations of n, or its
    bracket is pinned, and is not touched again.
    """
    mean = _class_sum(weight * p)
    spread = _class_sum(weight)
    odds = np.log(n / (spread - n))
    lo = odds - np.where(live, logit, -np.inf).max(axis=0)
    hi = odds - np.where(live, logit, np.inf).min(axis=0)
    with np.errstate(divide="ignore"):
        theta = np.clip(odds - np.log(mean / (spread - mean)), lo, hi)
    out = np.empty(len(n))
    todo = np.arange(len(n))
    for _ in range(_NEWTON_STEPS):
        r = theta + logit[:, todo]
        w = weight[:, todo]
        q = expit(r)
        g = _class_sum(w * q) - n[todo]
        h = _class_sum(w * q * expit(-r))
        done = (np.abs(g) <= 1e-6 * np.sqrt(h)) | (hi - lo <= 1e-12 * (1.0 + np.abs(theta)))
        out[todo[done]] = theta[done]
        more = ~done
        todo, theta, lo, hi, g, h = (a[more] for a in (todo, theta, lo, hi, g, h))
        if not todo.size:
            break
        lo = np.where(g < 0, theta, lo)
        hi = np.where(g > 0, theta, hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = theta - g / h
        theta = np.where((step > lo) & (step < hi), step, 0.5 * (lo + hi))
    out[todo] = theta
    return out, mean


def tail_normal(mu, sigma2, n):
    """Log survival of N(mu, sigma2) above n - 1/2 (continuity corrected).

    Elementwise: arrays give an array, scalars a float. ``log_ndtr`` keeps full
    accuracy far into the tail, where the survival probability itself would
    underflow long before z reaches the hundreds.
    """
    mu, sigma2, n = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in (mu, sigma2, n)))
    with np.errstate(divide="ignore", invalid="ignore"):
        z = (n - 0.5 - mu) / np.sqrt(sigma2)
    out = np.where(sigma2 > 0.0, log_ndtr(-z), np.where(n <= mu, 0.0, -np.inf))
    return float(out) if out.ndim == 0 else out


def tail_poisson(mu, n):
    """Log survival P(Poisson(mu) >= n), stable deep into the upper tail.

    Elementwise: arrays give an array, scalars a float. Each value is the
    same, bit for bit, as that member's one-member call.
    """
    mu, n = np.broadcast_arrays(np.asarray(mu, dtype=float), np.asarray(n))
    scalar = mu.ndim == 0
    mu, n = mu.ravel(), n.ravel().astype(np.int64)
    out = np.where(n <= 0, 0.0, -np.inf)  # and -inf for mu <= 0
    for i in np.flatnonzero((n > 0) & (mu > 0.0) & (n <= mu)).tolist():
        out[i] = _poisson_lower(float(mu[i]), int(n[i]))
    upper = np.flatnonzero((n > 0) & (mu > 0.0) & (n > mu))
    if upper.size:
        out[upper] = _poisson_series(mu[upper], n[upper])
    return float(out[0]) if scalar else out


def _poisson_lower(mu: float, n: int) -> float:
    """Survival of order one: 1 - the short lower sum, which has no cancellation issue."""
    k = np.arange(n)
    log_pmf = -mu + k * math.log(mu) - gammaln(k + 1)
    m = log_pmf.max()
    cdf = math.exp(m) * float(np.exp(log_pmf - m).sum())
    return math.log1p(-cdf) if cdf < 1.0 else -math.inf


def _logs(x: np.ndarray) -> np.ndarray:
    """``math.log`` of each entry (NumPy's vector log may differ in the last bit)."""
    return np.fromiter(map(math.log, x.tolist()), dtype=float, count=len(x))


def _poisson_series(mu: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Direct series sum_{k>=n} pmf(k) for n > mu: decreasing terms, stopped
    per member once the geometric remainder bound falls below 1e-17 of the sum."""
    log_mu = _logs(mu)
    log_term = -mu + n * log_mu - gammaln(n + 1)
    acc, k = log_term, n
    out = np.empty(len(mu))
    todo = np.arange(len(mu))
    while todo.size:
        k = k + 1
        log_term = log_term + (log_mu - _logs(k))
        acc = np.logaddexp(acc, log_term)
        ratio = mu / (k + 1)
        done = log_term + _logs(ratio / (1.0 - ratio)) < acc + _LOG_1E17
        out[todo[done]] = acc[done]
        more = ~done
        todo, mu, log_mu, log_term, acc, k = (
            a[more] for a in (todo, mu, log_mu, log_term, acc, k))
    return out


# --- ranks -------------------------------------------------------------------------

@dataclass
class RankResult:
    mu: float
    sigma2: float
    observed: int
    rank: float  # -log survival, natural log
    method: str  # exact | normal | poisson
    explainer: str


def rank_models(union: MachineUnion, params: list[ModelParams], specs: list[PartitionSpec],
                dataset: Dataset, observed: list[int], explainers: list[str],
                exact: bool = False) -> list[RankResult]:
    """Rank each member's observed support against the member's fitted model.

    A member is one model of a machine, which may repeat in the union, and
    ``explainers`` names each member's model in its result. The cover
    probability of a sequence depends only on its length: it is the sink
    entry of one reach pass over the union, which keeps the rows at the
    corpus's distinct lengths only. The expected support and its variance are
    summed one length at a time in ``length_counts`` order, for all members
    at once. Each member then uses the Poisson approximation when its
    expected support is small (at most 10), the corrected normal
    approximation otherwise, or the exact Poisson-binomial law on request;
    each tail is one call for all the members that use it.
    """
    counts = dataset.length_counts()  # keyed in order of first appearance
    lengths = sorted(counts)
    stay, edge_p = transition_rates(union, params, specs)
    sink = reach_table(union, stay, edge_p, lengths)[:, union.sink]  # [lengths, members]
    row = {k: r for r, k in enumerate(lengths)}
    mu = sigma2 = np.zeros(len(union.members))
    for k, c in counts.items():
        p = sink[row[k]]
        mu = mu + c * p
        sigma2 = sigma2 + c * p * (1.0 - p)
    observed = np.asarray(observed, dtype=np.int64)
    if exact:
        methods = np.full(len(mu), "exact")
        log_surv = tail_exact(sink.T, observed, [counts[k] for k in lengths])
    else:
        poisson = mu <= POISSON_MU_MAX
        methods = np.where(poisson, "poisson", "normal")
        log_surv = np.empty(len(mu))
        if poisson.any():
            log_surv[poisson] = tail_poisson(mu[poisson], observed[poisson])
        if not poisson.all():
            log_surv[~poisson] = tail_normal(mu[~poisson], sigma2[~poisson], observed[~poisson])
    log_surv[observed <= 0] = 0.0  # P(X >= 0) = 1 identically
    return [RankResult(m, s2, n, max(0.0, -ls), method, explainer)
            for m, s2, n, method, ls, explainer in zip(
                mu.tolist(), sigma2.tolist(), observed.tolist(), methods.tolist(),
                log_surv.tolist(), explainers)]


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


def _partition_models(machine: Machine, prefix_splits: list[tuple[int, PartitionSpec]],
                      supers: dict, candidates: CandidateSet | None
                      ) -> list[tuple[str, PartitionSpec]]:
    """Every proper prefix split in prefix-graph order, then every stricter
    candidate in input order.

    ``prefix_splits`` holds the splits of the machine's shape, and ``supers``
    the edge set of each stricter shape already met; a new one is added.
    """
    episode = machine.episode
    models = [(f"prefix:{vertex_set_label(episode, w)}", spec) for w, spec in prefix_splits]
    if candidates is not None:
        for sup in candidates.superepisodes_of(episode):
            edges = supers.get(sup.episode.edges)
            if edges is None:
                edges = supers[sup.episode.edges] = block_super(machine, sup.episode)
            models.append((f"super:{sup.eid}", PartitionSpec(edges, frozenset())))
    return models


def _prefix_splits(skeleton: Skeleton) -> list[tuple[int, PartitionSpec]]:
    """Every proper prefix W of a shape, in prefix-graph order, with its split:
    the edges blocked inside W and inside its complement."""
    full = (1 << skeleton.n) - 1
    return [(w, PartitionSpec(block_prefix(skeleton, w), block_prefix(skeleton, full ^ w)))
            for w in skeleton.states[1:-1]]


def _rank_batch(episodes: list[tuple[str, Episode]], dataset: Dataset,
                candidates: CandidateSet | None, exact: bool,
                keep_evaluations: bool = False) -> list[EpisodeRanking | Exception]:
    """Rank a batch of episodes; a failing episode's exception takes its place.

    Each shape met in the batch gets one skeleton, with its prefix splits and
    its stricter shapes' edge sets; an episode's machine is that skeleton and
    its labels. One walk over the union of the machines gives every support,
    and the statistics of the episodes with a partition model that boosts an
    edge. The independence models come from the label counts, and each
    boosted model is fitted on its episode's statistics; a model that boosts
    no edge is the independence model and reuses its rank instead of
    refitting. Then one :func:`rank_models` call ranks every model of every
    episode whose fits all succeeded, over a union that holds an episode's
    machine once for its independence model and once for each boosted model.
    """
    out: list = [None] * len(episodes)
    shapes: dict = {}  # (n, edges) -> (skeleton, prefix splits, stricter edge sets)
    ranked, machines, models = [], [], []
    for i, (_, episode) in enumerate(episodes):
        key = (episode.n, episode.edges)
        shape = shapes.get(key)
        try:
            if shape is None:
                machine = build_machine(episode)
                shape = shapes[key] = (machine.skeleton, _prefix_splits(machine.skeleton), {})
            else:
                machine = Machine(shape[0], episode)
        except EpisodeError as exc:
            out[i] = exc
            continue
        ranked.append(i)
        machines.append(machine)
        models.append(_partition_models(machine, shape[1], shape[2], candidates))
    union = MachineUnion(machines)
    collapsed = [collapse_alphabet(m.episode) for m in machines]
    supports, stats = walk(union, dataset, collapsed,
                           [any(not spec.is_empty for _, spec in ms) for ms in models])

    if dataset.total_events == 0:
        for i, observed in zip(ranked, supports):
            zero = RankResult(0.0, 0.0, observed, 0.0, "exact" if exact else "poisson",
                              INDEPENDENCE)
            out[i] = EpisodeRanking(*episodes[i], observed, zero, zero)
        return out

    params0 = fit_independence(dataset, collapsed)
    families = []  # (i, j, [(explainer, spec, params)]) of every episode fitted
    members = []  # (machine, params, spec, explainer, observed) of every model to rank
    for j, i in enumerate(ranked):
        machine = machines[j]
        try:
            family = [(explainer, spec,
                       params0[j] if spec.is_empty else fit(machine, spec, stats[j]))
                      for explainer, spec in models[j]]
        except NumericalFitError as exc:
            out[i] = exc
            continue
        families.append((i, j, family))
        members.append((machine, params0[j], EMPTY_SPEC, INDEPENDENCE, supports[j]))
        members += [(machine, params, spec, explainer, supports[j])
                    for explainer, spec, params in family if not spec.is_empty]
    ms, ps, ss, names, observed = zip(*members) if members else [()] * 5
    results = iter(rank_models(MachineUnion(ms), ps, ss, dataset, observed, names, exact))
    for i, j, family in families:
        ind = next(results)
        evaluations = [SpecEvaluation(INDEPENDENCE, EMPTY_SPEC, params0[j], ind)]
        best: RankResult | None = None
        for explainer, spec, params in family:
            cand = ind if spec.is_empty else next(results)
            if keep_evaluations:
                evaluations.append(SpecEvaluation(explainer, spec, params, cand))
            if _beats(cand, best):
                best = cand
        out[i] = EpisodeRanking(*episodes[i], supports[j], ind, best or ind,
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
    reach-table entry: at most 2^n states (the vertex sets) at each distinct
    sequence length of the corpus.
    """
    labels = [ep.labels for _, ep in episodes]
    member, lid, _ = distinct_labels(labels, dataset.alphabet)
    events = np.bincount(member, weights=dataset.label_counts()[lid], minlength=len(labels))
    rows = len(dataset.length_counts())
    cells = [int(k) + (rows << len(row)) for k, row in zip(events.tolist(), labels)]
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
    header lacks a report column, a row does not parse or repeats an id.

    An id may start with ``#``: after the header, a ``#`` line is a comment
    only when it does not split into the header's columns."""
    rows = []
    ids: set[str] = set()
    header: list[str] | None = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        parts = line.split("\t")
        if not line or line.startswith("#") and (header is None or len(parts) != len(header)):
            continue
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
        if row["id"] in ids:
            raise DataError(f"line {lineno}: duplicate id {row['id']!r}")
        ids.add(row["id"])
        rows.append(row)
    return rows
