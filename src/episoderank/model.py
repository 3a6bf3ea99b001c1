"""Log-linear sequence models over a machine: fitting and reach probabilities.

The model generates each event conditioned on the machine state reached by the
greedy walk over the preceding events: ``p(l | H) = exp(u_l + t_i [some
outgoing edge of H labelled l lies in C_i]) / Z_H``. With both boosted edge
sets empty this is the plain independence model, whose fit has a closed form:
the machine state does not matter, so p(k | H) is the class frequency. With a
boosted edge set the log-likelihood is still concave in ``(u, t1, t2)``, so a
damped Newton iteration finds the global maximum.

Labels that do not occur in the host episode cannot move the machine, so they
are collapsed into one catch-all class; this shrinks the parameter dimension
from |alphabet|+2 to at most |episode|+3 without changing any fitted
probability the rank depends on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .datagen import Alphabet, Dataset

if TYPE_CHECKING:
    from .machine import Machine

T_CAP = 25.0
RIDGE = 1e-9
GRAD_TOL = 1e-8
MAX_ITER = 200

STAR = "*"


class NumericalFitError(RuntimeError):
    """Newton iteration hit a non-finite likelihood or gradient."""


@dataclass(frozen=True)
class CollapsedAlphabet:
    """Mapping from dataset symbols to model classes; the last class catches
    every symbol absent from the episode."""

    classes: tuple[str, ...]
    star: int
    _by_symbol: dict

    @property
    def size(self) -> int:
        return len(self.classes)

    def class_of(self, symbol: str) -> int:
        return self._by_symbol.get(symbol, self.star)

    def class_of_ids(self, alphabet: Alphabet) -> np.ndarray:
        out = np.full(len(alphabet), self.star, dtype=np.int64)
        for sym, cls in self._by_symbol.items():
            sid = alphabet.id_of(sym)
            if sid is not None:
                out[sid] = cls
        return out


def collapse_alphabet(alphabet: Alphabet, episode) -> CollapsedAlphabet:
    """Each distinct episode label keeps its own class; the rest share one."""
    distinct = sorted(set(episode.labels))
    by_symbol = {lab: i for i, lab in enumerate(distinct)}
    return CollapsedAlphabet(tuple(distinct) + (STAR,), len(distinct), by_symbol)


@dataclass(frozen=True, eq=False)
class PartitionSpec:
    """Two disjoint boosted edge sets of a machine (either may be empty)."""

    c1: frozenset
    c2: frozenset

    def __post_init__(self):
        if self.c1 & self.c2:
            raise ValueError("boosted edge sets must be disjoint")

    @property
    def is_empty(self) -> bool:
        return not self.c1 and not self.c2


EMPTY_SPEC = PartitionSpec(frozenset(), frozenset())


@dataclass(eq=False)
class StateStats:
    """Per-state event counts from one greedy pass over the dataset.

    ``n[H, k]`` counts events of class ``k`` read while the walk sat in state
    ``H``; ``c[H]`` is the row sum. These are the sufficient statistics: the
    likelihood of any boosted model over the same machine depends on the data
    only through them.
    """

    collapsed: CollapsedAlphabet
    c: np.ndarray
    n: np.ndarray

    def total_events(self) -> float:
        return float(self.c.sum())


def _walk(machine: Machine, dataset: Dataset, collapsed: CollapsedAlphabet):
    """Greedy walk of every sequence that holds an episode label.

    Only events whose label occurs in the episode can move the machine, so the
    walk reads just their occurrences, gathered by ``Dataset.positions_of``. It
    moves all touched sequences in lockstep, one machine move per round: each
    jumps to its next event that leaves its state, ``state = table[state,
    class]``. A walk moves at most once per episode vertex, so the number of
    rounds does not grow with sequence length.

    Returns the flat positions of those events, their classes, the touched
    sequence each belongs to, the state each is read in, and the final state of
    every touched sequence.
    """
    arrays = machine.arrays(collapsed)
    table, moves = arrays.table, arrays.moves
    pos = dataset.positions_of({dataset.alphabet.id_of(lab) for lab in machine.episode.labels}
                               - {None})
    cls = collapsed.class_of_ids(dataset.alphabet)[dataset.tokens[pos]]
    seq = dataset.sequence_ids[pos]
    group = np.cumsum(_run_starts(seq)) - 1  # touched-sequence number of each event
    touched = int(group[-1]) + 1 if len(group) else 0

    state = np.full(touched, machine.source)
    before = np.empty(len(pos), dtype=np.intp)  # state each event is read in
    unread = np.arange(len(pos))
    while len(unread):
        g = group[unread]
        at = state[g]
        hit = unread[moves[at, cls[unread]]]
        # hits ascend, so a sequence's next move is the first hit of its run
        hit = hit[_run_starts(group[hit])]
        mover = group[hit]
        cut = np.full(touched, len(pos))  # next move of each sequence, if any
        cut[mover] = hit
        read = unread <= cut[g]
        before[unread[read]] = at[read]
        state[mover] = table[state[mover], cls[hit]]
        unread = unread[~read]
    return pos, cls, seq, group, before, state


def _run_starts(values: np.ndarray) -> np.ndarray:
    """True at every entry that differs from the one before it, and at the first."""
    starts = np.empty(len(values), dtype=bool)
    starts[:1] = True
    np.not_equal(values[1:], values[:-1], out=starts[1:])
    return starts


def collect_statistics(machine: Machine, dataset: Dataset,
                       collapsed: CollapsedAlphabet | None = None) -> tuple[StateStats, int]:
    """One greedy walk of every sequence: sufficient statistics plus the support.

    The events the walk skips are credited in bulk to the catch-all class of
    the state the walk sits in; sequences without any episode label stay at
    the source.
    """
    if collapsed is None:
        collapsed = collapse_alphabet(dataset.alphabet, machine.episode)
    S, K, star = machine.num_states, collapsed.size, collapsed.star
    offsets = dataset.offsets
    pos, cls, seq, group, before, state = _walk(machine, dataset, collapsed)
    runs = np.bincount(group)
    last = np.cumsum(runs) - 1  # last event of each touched sequence
    heads = last - runs + 1
    gap = np.empty_like(pos)  # events read since the previous episode event
    gap[1:] = pos[1:] - pos[:-1] - 1
    gap[heads] = pos[heads] - offsets[seq[heads]]
    tail = offsets[seq[last] + 1] - pos[last] - 1

    cells = S * K
    n = (np.bincount(before * K + cls, minlength=cells)
         + np.bincount(before * K + star, weights=gap, minlength=cells)
         + np.bincount(state * K + star, weights=tail, minlength=cells)).reshape(S, K)
    n[machine.source, star] += dataset.total_events - len(pos) - gap.sum() - tail.sum()
    return StateStats(collapsed, n.sum(axis=1), n), _covered(machine, dataset, state)


def _covered(machine: Machine, dataset: Dataset, state: np.ndarray) -> int:
    if machine.source == machine.sink:
        return dataset.num_sequences
    return int(np.count_nonzero(state == machine.sink))


def support(machine: Machine, dataset: Dataset) -> int:
    """Number of dataset sequences whose greedy walk reaches the sink."""
    collapsed = collapse_alphabet(dataset.alphabet, machine.episode)
    return _covered(machine, dataset, _walk(machine, dataset, collapsed)[-1])


@dataclass(frozen=True, eq=False)
class ModelParams:
    """Fitted weights: per-class ``u`` (one coordinate pinned to zero as the
    gauge) and the two transition boosts."""

    collapsed: CollapsedAlphabet
    u: np.ndarray
    t1: float
    t2: float
    pinned: int

    def to_dict(self) -> dict:
        return {
            "u": {lab: float(w) for lab, w in zip(self.collapsed.classes, self.u)},
            "t1": float(self.t1),
            "t2": float(self.t2),
            "pinned": self.collapsed.classes[self.pinned],
        }


# --- conditional distributions -------------------------------------------------

def log_conditionals(u: np.ndarray, t1: float, t2: float, masks: np.ndarray) -> np.ndarray:
    """``[S, K]`` array of log p(k | H), one row per state.

    The outgoing labels of a state are distinct, so no class of a state is
    boosted by both t1 and t2.
    """
    return _log_normalize(u + t1 * masks[0] + t2 * masks[1])


def _log_normalize(z: np.ndarray) -> np.ndarray:
    """Each row of ``z`` minus its log partition function.

    The log partition function is taken as ``m + log1p(sum over k != argmax of
    exp(z_k - m))``: when one class carries almost all the mass, ``log`` of a
    sum near 1 would lose the small terms to rounding, enough to stall Newton
    steps near the optimum.
    """
    shifted = z - z.max(axis=1, keepdims=True)
    rest = np.exp(shifted)
    rest[np.arange(len(rest)), shifted.argmax(axis=1)] = 0.0
    return shifted - np.log1p(rest.sum(axis=1, keepdims=True))


def _model_log_conditionals(params: ModelParams, machine: Machine,
                            spec: PartitionSpec) -> np.ndarray:
    return log_conditionals(params.u, params.t1, params.t2,
                            machine.boost_masks(spec, params.collapsed))


# --- likelihood, gradient, hessian ---------------------------------------------

def log_likelihood(stats: StateStats, params: ModelParams, machine: Machine,
                   spec: PartitionSpec) -> float:
    """Sum over states of ``n . log p(. | H)``."""
    return float((stats.n * _model_log_conditionals(params, machine, spec)).sum())


def _free_layout(params: ModelParams) -> list[int]:
    """Gauge-fixed coordinate order: classes without the pinned one, then t1, t2."""
    K = params.collapsed.size
    return [k for k in range(K) if k != params.pinned] + [K, K + 1]


def gradient_hessian(stats: StateStats, params: ModelParams, machine: Machine,
                     spec: PartitionSpec) -> tuple[np.ndarray, np.ndarray]:
    """Gradient and (negative semidefinite) hessian of the log-likelihood.

    Coordinates follow :func:`_free_layout`: per-class weights with the pinned
    coordinate removed, then the two transition boosts. With ``V`` the
    conditional distributions (one row per state), ``B_i`` the boost masks,
    ``R = n - cV`` and ``W_i = rowsum(V B_i)``, the gradient is ``(colsum R,
    sum R B_i)`` and the curvature blocks are ``diag(sum cV) - V'cV``, ``sum
    cV B_i - (cV)'W_i`` and ``diag(sum cW) - W'cW``.
    """
    masks = machine.boost_masks(spec, stats.collapsed)
    V = np.exp(log_conditionals(params.u, params.t1, params.t2, masks))
    cV = stats.c[:, None] * V
    R = stats.n - cV
    W = (V * masks).sum(axis=2).T  # [S, 2] boosted mass per state
    cW = stats.c[:, None] * W
    grad = np.concatenate([R.sum(axis=0), (R * masks).sum(axis=(1, 2))])
    cross = (cV * masks).sum(axis=1).T - cV.T @ W
    curv = np.block([[np.diag(cV.sum(axis=0)) - V.T @ cV, cross],
                     [cross.T, np.diag(cW.sum(axis=0)) - W.T @ cW]])
    layout = _free_layout(params)
    return grad[layout], -curv[np.ix_(layout, layout)]


# --- fitting --------------------------------------------------------------------

def _pick_pinned(collapsed: CollapsedAlphabet, totals: np.ndarray) -> int:
    """Pin the catch-all class unless it never occurs, then the first label
    class with events (the model is shift-invariant in u, so any observed
    class works as the gauge)."""
    if totals[collapsed.star] > 0:
        return collapsed.star
    for k in range(collapsed.size):
        if totals[k] > 0:
            return k
    raise NumericalFitError("cannot fit a model to zero events")


def fit(machine: Machine, spec: PartitionSpec, stats: StateStats,
        t_cap: float = T_CAP, max_iter: int = MAX_ITER,
        grad_tol: float = GRAD_TOL) -> ModelParams:
    """Maximize the likelihood inside the box.

    All weights live in ``[-t_cap, t_cap]``; classes with zero total count are
    held at the floor (their gradient only ever points further down), and a
    boost with an empty edge set stays at zero. With both edge sets empty the
    maximum has a closed form; otherwise damped Newton steps are backtracked
    until the likelihood is non-decreasing, and convergence is a small
    projected gradient. The result is a deterministic function of the inputs.
    """
    collapsed = stats.collapsed
    K = collapsed.size
    totals = stats.n.sum(axis=0)
    if totals.sum() <= 0:
        raise NumericalFitError("cannot fit a model to zero events")
    pinned = _pick_pinned(collapsed, totals)

    u = np.full(K, -t_cap)
    nz = totals > 0
    # Without boosts the free classes solve n_k = N p_k, which gives
    # u_k = log(n_k / n_pinned) + log1p(z e^-t_cap) with z classes at the floor;
    # Newton starts boosted fits from the same point without the correction.
    floor_mass = (K - np.count_nonzero(nz)) * math.exp(-t_cap) if spec.is_empty else 0.0
    u[nz] = np.log(totals[nz]) - np.log(totals[pinned]) + math.log1p(floor_mass)
    # the clip binds only when one class outnumbers another e^t_cap (about
    # 7e10) times, so the closed form is the box-constrained maximum below that
    np.clip(u, -t_cap, t_cap, out=u)
    u[pinned] = 0.0
    if spec.is_empty:
        return ModelParams(collapsed, u, 0.0, 0.0, pinned)
    x = np.concatenate([u, [0.0, 0.0]])  # full layout: classes then t1, t2

    def make_params(vec: np.ndarray) -> ModelParams:
        return ModelParams(collapsed, vec[:K].copy(), float(vec[K]), float(vec[K + 1]), pinned)

    params = make_params(x)
    layout = _free_layout(params)
    # coordinates allowed to move: observed classes, boosts with edges
    movable = np.zeros(K + 2, dtype=bool)
    movable[:K] = nz
    movable[pinned] = False
    movable[K] = bool(spec.c1)
    movable[K + 1] = bool(spec.c2)
    movable_in_layout = movable[layout]

    ll = log_likelihood(stats, params, machine, spec)
    if not np.isfinite(ll):
        raise NumericalFitError("non-finite likelihood at the starting point")

    for _ in range(max_iter):
        grad, hess = gradient_hessian(stats, make_params(x), machine, spec)
        if not np.all(np.isfinite(grad)):
            raise NumericalFitError("non-finite gradient during fitting")
        xl = x[layout]
        free = movable_in_layout.copy()
        # freeze coordinates pressed outward against the box
        free &= ~((xl >= t_cap) & (grad > 0)) & ~((xl <= -t_cap) & (grad < 0))
        if not free.any() or float(np.abs(grad[free]).max()) < grad_tol:
            break
        sub = np.ix_(free, free)
        step = np.linalg.solve(-hess[sub] + RIDGE * np.eye(int(free.sum())), grad[free])

        alpha = 1.0
        improved = False
        while alpha > 1e-12:
            trial = xl.copy()
            trial[free] = np.clip(trial[free] + alpha * step, -t_cap, t_cap)
            x_new = x.copy()
            x_new[layout] = trial
            ll_new = log_likelihood(stats, make_params(x_new), machine, spec)
            if not np.isfinite(ll_new):
                raise NumericalFitError("non-finite likelihood during line search")
            if ll_new >= ll:
                x, ll = x_new, ll_new
                improved = True
                break
            alpha *= 0.5
        if not improved:
            break  # stationary under the box constraints

    return make_params(x)


# --- reach probabilities ----------------------------------------------------------

def transition_rates(machine: Machine, params: ModelParams,
                     spec: PartitionSpec) -> tuple[np.ndarray, np.ndarray]:
    """Per-state stay probability and per-edge traversal probability."""
    src, edge_cls = machine.edge_src, machine.arrays(params.collapsed).edge_cls
    if spec.is_empty:  # one distribution serves every state
        edge_p = np.exp(_log_normalize(params.u[None, :])[0, edge_cls])
    else:
        edge_p = np.exp(_model_log_conditionals(params, machine, spec)[src, edge_cls])
    leave = np.bincount(src, weights=edge_p, minlength=machine.num_states)
    return np.maximum(1.0 - leave, 0.0), edge_p


def reach_table(machine: Machine, stay: np.ndarray, edge_p: np.ndarray,
                max_length: int) -> np.ndarray:
    """Distribution over states of the greedy walk after 0..max_length events.

    Row ``k`` solves ``p(H, k) = stay_H p(H, k-1) + sum over incoming edges of
    p(edge) p(src, k-1)`` from the point mass on the source. A step is one
    ``bincount`` over the self-loops and then the edges, which adds each
    state's terms in that order: the stay term first, then the incoming edges
    in edge order.
    """
    S = machine.num_states
    src, dst = machine.step_src, machine.step_dst
    weight = np.concatenate((stay, edge_p))
    table = np.zeros((max_length + 1, S))
    table[0, machine.source] = 1.0
    prev = table[0]
    for k in range(1, max_length + 1):
        prev = table[k] = np.bincount(dst, weights=weight * prev[src], minlength=S)
    return table
