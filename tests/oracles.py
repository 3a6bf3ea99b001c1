"""Reference implementations the tests compare the library against.

These are the plain, one-step-at-a-time forms of what the library computes
with arrays, plus small wrappers that only tests use.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import gammaln, xlog1py, xlogy

from episoderank.datagen import Alphabet, Dataset
from episoderank.episodes import (
    Episode,
    EpisodeError,
    StrictnessError,
    addable,
    describe,
    is_proper_superepisode_same_vertices,
    is_strict,
    make_episode,
    parallel,
    prefix_graphs,
    serial,
    strictify,
    vertex_set_label,
)
from episoderank.machine import Machine, build_machine
from episoderank.miner import CandidateSet
from episoderank.model import (
    EMPTY_SPEC,
    STAR,
    T_CAP,
    CollapsedAlphabet,
    ModelParams,
    PartitionSpec,
    StateStats,
    MachineUnion,
    boost_masks,
    collapse_alphabet,
    gradient_hessian,
    log_conditionals,
    support,
)
from episoderank.ranking import INDEPENDENCE, RankResult, rank_episode, rank_models


def rows(dataset: Dataset) -> list[list[int]]:
    """The label ids of each sequence: ``tokens`` sliced by ``offsets``."""
    bounds = dataset.offsets.tolist()
    tokens = dataset.tokens.tolist()
    return [tokens[a:b] for a, b in zip(bounds, bounds[1:])]


def symbol_rows(dataset: Dataset) -> list[list[str]]:
    """The label strings of each sequence."""
    return [[dataset.alphabet.symbols[lid] for lid in row] for row in rows(dataset)]


def dataset_from_rows(rows: Iterable[Iterable[str]]) -> Dataset:
    """Intern the events of each row, in order of first appearance; each row
    is one sequence."""
    alphabet = Alphabet()
    ids: list[int] = []
    offsets = [0]
    for row in rows:
        ids.extend(map(alphabet.intern, row))
        offsets.append(len(ids))
    return Dataset(alphabet, np.array(ids, dtype=np.int32), np.array(offsets, dtype=np.int64))


def load_sequences_by_line(path: str) -> tuple[Dataset, int]:
    """``datagen.load_sequences`` one line at a time: each line read in text
    mode is split by ``str.split()``. Returns the dataset and the number of
    blank lines skipped."""
    blank = 0

    def nonblank(fh):
        nonlocal blank
        for line in fh:
            tokens = line.split()
            if tokens:
                yield tokens
            else:
                blank += 1

    with open(path, "r", encoding="utf-8") as fh:
        dataset = dataset_from_rows(nonblank(fh))
    return dataset, blank


def out_edges(machine: Machine) -> list[list[int]]:
    """Indices of each state's outgoing edges, in edge order."""
    found: list[list[int]] = [[] for _ in range(machine.num_states)]
    for idx, src in enumerate(machine.edge_src.tolist()):
        found[src].append(idx)
    return found


@dataclass(frozen=True)
class MachineEdge:
    src: int
    dst: int
    label: str
    vertex: int  # vertex added by this transition


class EdgeListMachine:
    """The per-episode machine that shape skeletons replaced: its own states
    and one ``MachineEdge`` per edge, in (source state, added vertex) order,
    with the boosted edge sets, masks and rendering computed edge by edge."""

    def __init__(self, episode: Episode):
        if not is_strict(episode):
            raise StrictnessError("machine construction requires a strict episode")
        self.episode = episode
        self.states = prefix_graphs(episode)
        index = {mask: i for i, mask in enumerate(self.states)}
        preds = episode.predecessor_masks()
        self.edges = [MachineEdge(i, index[mask | 1 << v], episode.labels[v], v)
                      for i, mask in enumerate(self.states) for v in addable(preds, mask)]
        self.source, self.sink = 0, len(self.states) - 1

    def block_prefix(self, w_mask: int) -> frozenset[int]:
        return frozenset(idx for idx, e in enumerate(self.edges)
                         if self.states[e.src] & w_mask and (1 << e.vertex) & w_mask)

    def block_super(self, stricter: Episode) -> frozenset[int]:
        if not is_proper_superepisode_same_vertices(self.episode, stricter):
            raise ValueError("second episode must be a proper same-vertex superepisode")
        preds = stricter.predecessor_masks()
        closed = [all(preds[v] & ~mask == 0 for v in range(stricter.n) if mask >> v & 1)
                  for mask in self.states]
        return frozenset(idx for idx, e in enumerate(self.edges)
                         if e.src != self.source and closed[e.src]
                         and preds[e.vertex] & ~self.states[e.src] == 0)

    def boost_masks(self, spec: PartitionSpec, collapsed: CollapsedAlphabet) -> np.ndarray:
        masks = np.zeros((2, len(self.states), collapsed.size), dtype=bool)
        for layer, edge_set in enumerate((spec.c1, spec.c2)):
            for idx in edge_set:
                e = self.edges[idx]
                masks[layer, e.src, collapsed.class_of(e.label)] = True
        return masks

    def render(self) -> str:
        lines = [f"machine: {len(self.states)} states, {len(self.edges)} edges"]
        for i, mask in enumerate(self.states):
            tag = " (source)" if i == self.source else (" (sink)" if i == self.sink else "")
            lines.append(f"  state {i} {vertex_set_label(self.episode, mask)}{tag}")
        for idx, e in enumerate(self.edges):
            lines.append(f"  edge {idx}: {e.src} -{e.label}-> {e.dst}")
        return "\n".join(lines)


def brute_force_covers(episode: Episode, sequence: Sequence[str]) -> bool:
    """Backtracking oracle: injective label- and order-preserving embedding.

    Exponential in the worst case; intended for small instances only
    (|V| * |S| <= 64 or so) as an independent check of the greedy walk.
    """
    n = episode.n
    if n == 0:
        return True
    preds = episode.predecessor_masks()
    # vertices in a fixed topological order so parents are assigned first
    topo: list[int] = []
    placed = 0
    remaining = list(range(n))
    while remaining:
        v = next(u for u in remaining if preds[u] & ~placed == 0)
        topo.append(v)
        placed |= 1 << v
        remaining.remove(v)

    positions_by_label: dict[str, list[int]] = {}
    for i, s in enumerate(sequence):
        positions_by_label.setdefault(s, []).append(i)

    assigned = [0] * n  # vertex -> sequence position

    def assign(depth: int, used: int) -> bool:
        if depth == n:
            return True
        v = topo[depth]
        lo = -1
        pm = preds[v]
        while pm:
            bit = pm & -pm
            lo = max(lo, assigned[bit.bit_length() - 1])
            pm ^= bit
        for pos in positions_by_label.get(episode.labels[v], ()):  # ascending
            if pos <= lo or used >> pos & 1:
                continue
            assigned[v] = pos
            if assign(depth + 1, used | 1 << pos):
                return True
        return False

    return assign(0, 0)


def block_super_by_machine(machine: Machine, stricter: Episode) -> frozenset[int]:
    """``block_super`` by building the stricter episode's machine and mapping
    each of its non-source edges to the edge here that leaves the same state
    mask and adds the same vertex."""
    if not is_proper_superepisode_same_vertices(machine.episode, stricter):
        raise ValueError("second episode must be a proper same-vertex superepisode")
    other = build_machine(stricter)
    state_of = {mask: i for i, mask in enumerate(machine.states)}
    edge_by_src_vertex = {pair: idx for idx, pair in enumerate(
        zip(machine.edge_src.tolist(), machine.edge_vertex.tolist()))}
    picked = []
    for src, vertex in zip(other.edge_src.tolist(), other.edge_vertex.tolist()):
        src_mask = other.states[src]
        if src_mask == 0:
            continue
        picked.append(edge_by_src_vertex[(state_of[src_mask], vertex)])
    return frozenset(picked)


def transitions(machine: Machine) -> list[dict[str, int]]:
    """Each state's next state per outgoing edge label."""
    labels, dst = machine.edge_labels, machine.edge_dst
    return [{labels[idx]: int(dst[idx]) for idx in idxs} for idxs in out_edges(machine)]


def induced(episode: Episode, vertices: Iterable[int]) -> Episode:
    """Sub-episode on the given vertex ids with all edges among them."""
    keep = sorted(set(vertices))
    if any(v < 0 or v >= episode.n for v in keep):
        raise EpisodeError(f"vertex ids {keep} invalid for episode of size {episode.n}")
    pos = {v: i for i, v in enumerate(keep)}
    labels = tuple(episode.labels[v] for v in keep)
    edges = frozenset((pos[u], pos[v]) for u, v in episode.edges if u in pos and v in pos)
    return Episode(labels, edges)  # closed subgraph of a closed DAG stays closed/canonical


def transitive_closure(episode: Episode) -> Episode:
    """Close the edge relation (identity for stored episodes)."""
    return make_episode(episode.labels, episode.edges)


def greedy(machine: Machine, sequence: Iterable[str], start: int | None = None) -> int:
    """Fold the sequence through the machine, staying put on unmatched events."""
    state = machine.source if start is None else start
    out = transitions(machine)
    for label in sequence:
        state = out[state].get(label, state)
    return state


def covers(machine: Machine, sequence: Iterable[str]) -> bool:
    """True iff the greedy walk over the whole sequence reaches the sink."""
    return greedy(machine, sequence) == machine.sink


def identity_collapse(alphabet: Alphabet) -> CollapsedAlphabet:
    """No collapsing: one class per alphabet symbol plus an unused catch-all."""
    by_symbol = {sym: i for i, sym in enumerate(alphabet.symbols)}
    return CollapsedAlphabet(tuple(alphabet.symbols) + (STAR,), len(alphabet), by_symbol)


def sequential_statistics(machine: Machine, dataset: Dataset,
                          collapsed: CollapsedAlphabet | None = None) -> tuple[StateStats, int]:
    """The per-event walk that ``collect_statistics`` replaced.

    Each sequence with an episode label is walked one episode event at a time
    through per-state dict transitions; the noise between those events, after
    the last one, and in sequences without any is credited to the catch-all
    class in bulk. Counts are exact integers, so the walker must match exactly.
    """
    if collapsed is None:
        collapsed = collapse_alphabet(machine.episode)
    S, K, star = machine.num_states, collapsed.size, collapsed.star
    table: list[dict[int, int]] = [{} for _ in range(S)]
    for src, lid, dst in zip(machine.edge_src.tolist(),
                             dataset.alphabet.ids_of(machine.edge_labels).tolist(),
                             machine.edge_dst.tolist()):
        if lid >= 0:
            table[src][lid] = dst
    label_ids = set(dataset.alphabet.ids_of(machine.episode.labels).tolist()) - {-1}
    class_of = [collapsed.class_of(sym) for sym in dataset.alphabet.symbols]

    c_acc = [0] * S
    n_acc = [[0] * K for _ in range(S)]
    covered = touched_events = 0
    for seq in rows(dataset):
        events = [(pos, lid) for pos, lid in enumerate(seq) if lid in label_ids]
        if not events:
            continue
        touched_events += len(seq)
        state = machine.source
        last = 0
        for pos, lid in events:
            gap = pos - last
            if gap:
                n_acc[state][star] += gap
                c_acc[state] += gap
            n_acc[state][class_of[lid]] += 1
            c_acc[state] += 1
            state = table[state].get(lid, state)
            last = pos + 1
        tail = len(seq) - last
        if tail:
            n_acc[state][star] += tail
            c_acc[state] += tail
        if state == machine.sink:
            covered += 1

    rest = dataset.total_events - touched_events
    if rest:
        n_acc[machine.source][star] += rest
        c_acc[machine.source] += rest
    if machine.source == machine.sink:
        covered = dataset.num_sequences
    return StateStats(collapsed, np.array(c_acc, dtype=float), np.array(n_acc, dtype=float)), covered


def masks_of(machine: Machine, spec: PartitionSpec, collapsed: CollapsedAlphabet) -> np.ndarray:
    """The ``bool[2, S, K]`` boost masks of one machine: ``model.boost_masks``
    of its one-member union."""
    return boost_masks(MachineUnion([machine]), [spec], [collapsed])


def coords(params: ModelParams) -> np.ndarray:
    """The K+2 coordinates of ``params`` that the likelihood and its
    derivatives take: the class weights, then t1 and t2."""
    return np.concatenate([params.u, [params.t1, params.t2]])


def _log_p(params: ModelParams, machine: Machine, spec: PartitionSpec) -> np.ndarray:
    return log_conditionals(params.u, params.t1, params.t2,
                            masks_of(machine, spec, params.collapsed))


def conditional_label_prob(params: ModelParams, machine: Machine, spec: PartitionSpec,
                           state: int, label: str) -> float:
    """Probability of one model class (an episode label or ``*``) given a state."""
    cls = params.collapsed.classes.index(label)
    return float(np.exp(_log_p(params, machine, spec)[state, cls]))


def sequence_log_prob(machine: Machine, params: ModelParams, spec: PartitionSpec,
                      sequence: Iterable[str]) -> float:
    """Log-probability of a concrete event sequence under the model."""
    log_p = _log_p(params, machine, spec)
    out = transitions(machine)
    state = machine.source
    total = 0.0
    for symbol in sequence:
        total += float(log_p[state, params.collapsed.class_of(symbol)])
        state = out[state].get(symbol, state)
    return total


def transition_rates_from_probs(machine: Machine,
                                label_probs: dict[str, float]) -> tuple[np.ndarray, np.ndarray]:
    """Stay and per-edge probabilities from directly given label probabilities."""
    edge_p = np.zeros(len(machine.edge_src))
    stay = np.ones(machine.num_states)
    labels = machine.edge_labels
    for state, idxs in enumerate(out_edges(machine)):
        acc = 0.0
        for idx in idxs:
            p = label_probs.get(labels[idx], 0.0)
            edge_p[idx] = p
            acc += p
        stay[state] = 1.0 - acc
    return stay, edge_p


def reach_table_by_add_at(machine: Machine, stay: np.ndarray, edge_p: np.ndarray,
                          max_length: int) -> np.ndarray:
    """The per-length loop that ``reach_table`` replaced: the stay terms, then
    ``np.add.at`` of the incoming edge terms in edge order."""
    src, dst = machine.edge_src, machine.edge_dst
    table = np.zeros((max_length + 1, machine.num_states))
    table[0, machine.source] = 1.0
    for k in range(1, max_length + 1):
        prev = table[k - 1]
        nxt = prev * stay
        if len(src):
            np.add.at(nxt, dst, edge_p * prev[src])
        table[k] = nxt
    return table


def newton_independence(machine: Machine, stats: StateStats,
                        t_cap: float = T_CAP) -> ModelParams:
    """The independence fit by plain Newton steps on the free class weights.

    Pins the class ``fit`` pins, holds the classes that never occur at the
    floor, starts from the log frequency ratios and steps until the step is
    below 1e-15.
    """
    collapsed = stats.collapsed
    totals = stats.n.sum(axis=0)
    pinned = collapsed.star if totals[collapsed.star] > 0 else int(np.flatnonzero(totals)[0])
    u = np.full(collapsed.size, -t_cap)
    observed = totals > 0
    u[observed] = np.log(totals[observed] / totals[pinned])
    free = observed.copy()
    free[pinned] = False
    masks = masks_of(machine, EMPTY_SPEC, collapsed)
    for _ in range(50):
        grad, hess = gradient_hessian(stats, np.concatenate([u, [0.0, 0.0]]), masks)
        step = np.linalg.solve(-hess[:-2, :-2][np.ix_(free, free)], grad[:-2][free])
        u[free] += step
        if not step.size or np.abs(step).max() < 1e-15:
            break
    return ModelParams(collapsed, u, 0.0, 0.0, pinned)


def rank(machine: Machine, params: ModelParams, spec: PartitionSpec, dataset: Dataset,
         observed: int, exact: bool = False, explainer: str = INDEPENDENCE) -> RankResult:
    """Rank the observed support against one fitted model: the one-member call
    of ``ranking.rank_models``."""
    return rank_models(MachineUnion([machine]), [params], [spec], dataset, [observed],
                       [explainer], exact)[0]


def rank_combined(episode: Episode, dataset: Dataset,
                  candidates: CandidateSet | None = None, exact: bool = False) -> RankResult:
    """Smallest rank over all prefix partitions and same-vertex stricter candidates."""
    return rank_episode("", episode, dataset, candidates, exact=exact).part


_BAND_CELLS = 1 << 20  # cells per block of the banded convolution: 8 MB of float64


def tail_exact_banded(probs, n: int, counts=None) -> float:
    """Log survival P(X >= n), X the sum of independent Binomial(counts[k], probs[k]),
    by the banded log-space convolution that ``ranking.tail_exact`` replaced.

    One class at a time: the law of the count so far is kept in log space below
    n, mass reaching n is absorbed through the class's log survival, and the
    rest is convolved with the class's log-pmf as one banded n x width array.
    O(sum_k n * min(counts[k], n)) work, every term positive.
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


def tail_poisson_loop(mu: float, n: int) -> float:
    """Log survival P(Poisson(mu) >= n) for one member: the scalar series loop
    that ``ranking.tail_poisson`` runs for a whole batch at once."""
    if n <= 0:
        return 0.0
    if mu <= 0.0:
        return -math.inf
    if n <= mu:
        k = np.arange(n)
        log_pmf = -mu + k * math.log(mu) - gammaln(k + 1)
        m = log_pmf.max()
        cdf = math.exp(m) * float(np.exp(log_pmf - m).sum())
        return math.log1p(-cdf) if cdf < 1.0 else -math.inf
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


def count_supports(episodes: list[tuple[str, Episode]],
                   dataset: Dataset) -> tuple[dict[str, int], dict[str, str]]:
    """Machine-based support per episode; size-cap failures reported per id."""
    supports: dict[str, int] = {}
    errors: dict[str, str] = {}
    for eid, episode in episodes:
        try:
            supports[eid] = support(build_machine(episode), dataset)
        except EpisodeError as exc:
            errors[eid] = str(exc)
    return supports, errors


def dfs_mine_serial(dataset: Dataset, min_support: int, max_len: int) -> CandidateSet:
    """The depth-first, one node at a time search that ``mine_serial`` replaced:
    per-sequence Python lists of label positions, one projection per node."""
    if min_support < 1:
        raise ValueError("min_support must be >= 1")
    out = CandidateSet()
    if max_len < 1:
        return out

    # per-label, per-sequence sorted positions for fast "next occurrence after"
    positions: dict[int, dict[int, list[int]]] = {}
    seq_count: dict[int, int] = {}
    sequences = rows(dataset)
    for seq_idx, seq in enumerate(sequences):
        seen: set[int] = set()
        for pos, lid in enumerate(seq):
            positions.setdefault(lid, {}).setdefault(seq_idx, []).append(pos)
            if lid not in seen:
                seen.add(lid)
                seq_count[lid] = seq_count.get(lid, 0) + 1

    symbols = dataset.alphabet.symbols

    def extend(pattern: list[int], projection: list[tuple[int, int]]) -> None:
        episode = serial([symbols[lid] for lid in pattern])
        out.add(describe(episode), episode, len(projection))
        if len(pattern) == max_len:
            return
        counts: dict[int, int] = {}
        for seq_idx, pos in projection:
            for lid in set(sequences[seq_idx][pos + 1:]):
                counts[lid] = counts.get(lid, 0) + 1
        for lid in sorted((l for l, c in counts.items() if c >= min_support),
                          key=lambda l: symbols[l]):
            new_proj = []
            for seq_idx, pos in projection:
                plist = positions[lid].get(seq_idx)
                if plist is None:
                    continue
                i = bisect_right(plist, pos)
                if i < len(plist):
                    new_proj.append((seq_idx, plist[i]))
            extend(pattern + [lid], new_proj)

    for lid in sorted((l for l, c in seq_count.items() if c >= min_support),
                      key=lambda l: symbols[l]):
        extend([lid], [(seq_idx, plist[0]) for seq_idx, plist in sorted(positions[lid].items())])
    return out


def dfs_mine_parallel(dataset: Dataset, min_support: int, max_size: int) -> CandidateSet:
    """The depth-first search over per-sequence label counters that
    ``mine_parallel`` replaced; emits strictified multisets."""
    if min_support < 1:
        raise ValueError("min_support must be >= 1")
    out = CandidateSet()
    if max_size < 1:
        return out

    seq_counters: list[dict[int, int]] = []
    for seq in rows(dataset):
        counter: dict[int, int] = {}
        for lid in seq:
            counter[lid] = counter.get(lid, 0) + 1
        seq_counters.append(counter)

    symbols = dataset.alphabet.symbols

    def extend(multiset: list[int], projection: list[int]) -> None:
        episode = strictify(parallel([symbols[lid] for lid in multiset]))
        out.add(describe(episode), episode, len(projection))
        if len(multiset) == max_size:
            return
        last = multiset[-1]
        last_sym = symbols[last]
        counts: dict[int, int] = {}
        for seq_idx in projection:
            for lid, cnt in seq_counters[seq_idx].items():
                sym = symbols[lid]
                if sym < last_sym:
                    continue
                needed = multiset.count(lid) + 1
                if cnt >= needed:
                    counts[lid] = counts.get(lid, 0) + 1
        for lid in sorted((l for l, c in counts.items() if c >= min_support),
                          key=lambda l: symbols[l]):
            needed = multiset.count(lid) + 1
            new_proj = [s for s in projection if seq_counters[s].get(lid, 0) >= needed]
            extend(multiset + [lid], new_proj)

    singles: dict[int, list[int]] = {}
    for seq_idx, counter in enumerate(seq_counters):
        for lid in counter:
            singles.setdefault(lid, []).append(seq_idx)
    for lid in sorted((l for l, seqs in singles.items() if len(seqs) >= min_support),
                      key=lambda l: symbols[l]):
        extend([lid], singles[lid])
    return out


def reduction_by_search(episode: Episode) -> frozenset[tuple[int, int]]:
    """Transitive reduction by looking for an intermediate vertex of every edge."""
    edges = episode.edges
    return frozenset((u, v) for u, v in edges
                     if not any((u, w) in edges and (w, v) in edges for w in range(episode.n)))
