"""Log-linear sequence models over a machine: fitting and reach probabilities.

The model generates each event conditioned on the machine state reached by the
greedy walk over the preceding events: ``p(l | H) = exp(u_l + t_i [some
outgoing edge of H labelled l lies in C_i]) / Z_H``. With both boosted edge
sets empty this is the plain independence model, whose fit has a closed form:
the machine state does not matter, so p(k | H) is the class frequency, which
the corpus label counts give without a walk. With a boosted edge set the
log-likelihood is still concave in ``(u, t1, t2)``, so a damped Newton
iteration finds the global maximum.

Labels that do not occur in the host episode cannot move the machine, so they
are collapsed into one catch-all class; this shrinks the parameter dimension
from |alphabet|+2 to at most |episode|+3 without changing any fitted
probability the rank depends on.

The walk, the transition rates and the reach recursion run on a
:class:`MachineUnion`, a disjoint union of machines with every member's states
at an offset, so that one call serves a whole batch of episodes; a single
machine is the union of one. Each member's numbers are exactly what it gets
alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .datagen import Dataset

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


def collapse_alphabet(episode) -> CollapsedAlphabet:
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


class MachineUnion:
    """Disjoint union of machines: the batch axis of the walk, the rates and
    the reach recursion.

    Member ``i``'s state ``H`` is the global state ``offsets[i] + H``, and its
    edges follow those of the members before it, in its own order; every
    per-state or per-edge array of the union is its members' arrays joined in
    member order. Members of one shape share a skeleton, whose arrays are
    tiled at the members' offsets. ``source`` and ``sink`` hold each member's
    global source and sink (a machine's source is its first state and its
    sink its last), ``edge_member`` the member of every edge, and
    ``edge_vertex`` the vertex every edge adds, numbered along the members'
    label rows joined.
    """

    def __init__(self, members: Sequence[Machine]):
        self.members = list(members)
        index: dict = {}  # skeleton -> its number, in order of first use
        kind = np.array([index.setdefault(m.skeleton, len(index)) for m in self.members],
                        dtype=np.intp)
        skeletons = list(index)
        shape = np.array([(s.num_states, len(s.edge_src), s.n) for s in skeletons],
                         dtype=np.intp).reshape(-1, 3)
        states, edges, vertices = shape[kind].T
        self.offsets = np.concatenate(([0], np.cumsum(states)))
        self.num_states = int(self.offsets[-1])
        self.source = self.offsets[:-1]
        self.sink = self.offsets[1:] - 1
        self.edge_member = np.repeat(np.arange(len(self.members)), edges)
        tile = _ranges((np.cumsum(shape[:, 1]) - shape[:, 1])[kind], edges)
        shift = self.offsets[self.edge_member]
        self.edge_src = _join(s.edge_src for s in skeletons)[tile] + shift
        self.edge_dst = _join(s.edge_dst for s in skeletons)[tile] + shift
        self.edge_vertex = (_join(s.edge_vertex for s in skeletons)[tile]
                            + (np.cumsum(vertices) - vertices)[self.edge_member])

    def vertex_classes(self, collapsed: Sequence[CollapsedAlphabet]) -> np.ndarray:
        """The class of every vertex's label under its member's collapsed
        alphabet, along the members' label rows joined."""
        return np.fromiter((c.class_of(lab) for m, c in zip(self.members, collapsed)
                            for lab in m.episode.labels), dtype=np.intp)

    def edge_classes(self, collapsed: Sequence[CollapsedAlphabet]) -> np.ndarray:
        """Every edge's class under its member's collapsed alphabet."""
        return self.vertex_classes(collapsed)[self.edge_vertex]


def _join(arrays) -> np.ndarray:
    return np.concatenate([np.empty(0, dtype=np.intp), *arrays])


def _ranges(starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The runs ``starts[i], ..., starts[i] + sizes[i] - 1`` joined in order."""
    ends = np.cumsum(sizes)
    return np.repeat(starts - ends + sizes, sizes) + np.arange(ends[-1] if len(ends) else 0)


def distinct_labels(rows: Sequence[Sequence[str]], alphabet) -> tuple[np.ndarray, ...]:
    """Each row's distinct labels that ``alphabet`` holds, row by row in label id
    order: their row, their label id and the index of their first occurrence
    in the rows joined."""
    sizes = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
    ids = alphabet.ids_of(lab for row in rows for lab in row)
    row = np.repeat(np.arange(len(rows)), sizes)
    held = np.flatnonzero(ids >= 0)
    _, first = np.unique(row[held] * len(alphabet) + ids[held], return_index=True)
    at = held[first]
    return row[at], ids[at], at


def walk(union: MachineUnion, dataset: Dataset, collapsed: Sequence[CollapsedAlphabet],
         stats_for: Sequence[bool] | None = None) -> tuple[list[int], list[StateStats | None]]:
    """Greedy walk of every member over every sequence that holds one of its labels.

    Only events whose label occurs in an episode can move its machine, so the
    walk reads just their occurrences, gathered from ``Dataset.label_index``. A
    touched unit is a (member, sequence) pair; the events are laid out member
    by member, each member's in corpus order. All units move in lockstep, one
    machine move per round: each jumps to its next event that leaves its
    state, ``state = table[state, class]``, where ``table`` stacks the
    members' transitions at their state offsets and pads every row with
    "stay" up to the largest class count. A walk moves at most once per
    episode vertex, so the number of rounds does not grow with sequence
    length.

    Returns every member's support and, for the members flagged in
    ``stats_for``, its sufficient statistics (None for the others). The events
    the walk skips are credited in bulk to the catch-all class of the state
    the walk sits in; sequences without any of a member's labels stay at its
    source.
    """
    B = len(union.members)
    # one run of label-index positions per (member, distinct corpus label)
    member, lid, first = distinct_labels([m.episode.labels for m in union.members],
                                         dataset.alphabet)
    positions, label_start = dataset.label_index()
    sizes = dataset.label_counts()[lid]
    pos = positions[_ranges(label_start[lid], sizes)]
    member = np.repeat(member, sizes)
    cls = np.repeat(union.vertex_classes(collapsed)[first], sizes)
    # member, then position: the keys are a run per label, so a stable sort is a merge
    order = np.argsort(member * dataset.total_events + pos, kind="stable")
    member, pos, cls = member[order], pos[order], cls[order]
    seq = dataset.sequence_ids[pos]
    starts = _run_starts(seq) | _run_starts(member)
    group = np.cumsum(starts) - 1  # touched unit of each event
    unit_member = member[starts]
    touched = len(unit_member)

    need = np.zeros(B, dtype=bool) if stats_for is None else np.asarray(stats_for, dtype=bool)
    track = need.any()  # whether to record the state each event is read in
    K = max((c.size for c in collapsed), default=1)
    stay = np.arange(union.num_states)
    table = np.repeat(stay[:, None], K, axis=1)
    table[union.edge_src, union.edge_classes(collapsed)] = union.edge_dst
    # one flat slot per (state, class): a gather by one index is the faster
    table, moves = table.ravel(), (table != stay[:, None]).ravel()
    state = union.source[unit_member]
    before = np.empty(len(pos), dtype=np.intp)  # state each event is read in
    unread = np.arange(len(pos))
    while len(unread):
        g = group[unread]
        at = state[g]
        # (a mask of scattered hits indexes faster as positions)
        hit = unread[np.flatnonzero(moves[at * K + cls[unread]])]
        # hits ascend, so a unit's next move is the first hit of its run
        hit = hit[_run_starts(group[hit])]
        mover = group[hit]
        cut = np.full(touched, len(pos))  # next move of each unit, if any
        cut[mover] = hit
        read = unread <= cut[g]
        if track:
            before[unread[read]] = at[read]
        state[mover] = table[state[mover] * K + cls[hit]]
        unread = unread[~read]

    supports = np.bincount(unit_member[state == union.sink[unit_member]], minlength=B)
    supports[union.source == union.sink] = dataset.num_sequences  # the empty episode
    stats: list[StateStats | None] = [None] * B
    if track:
        runs = np.bincount(group, minlength=touched)
        last = np.cumsum(runs) - 1  # last event of each unit
        heads = last - runs + 1
        gap = np.empty_like(pos)  # events read since the previous episode event
        gap[1:] = pos[1:] - pos[:-1] - 1
        gap[heads] = pos[heads] - dataset.offsets[seq[heads]]
        ends = dataset.offsets[seq[heads] + 1]  # end of each unit's sequence
        tail = ends - pos[last] - 1
        star = np.array([c.star for c in collapsed], dtype=np.intp)
        ev, un = need[member], need[unit_member]
        row, unit_row = before[ev] * K, state[un] * K
        # one bincount: each event in its class, the gaps before it and the
        # tail after a unit's last event in the catch-all class
        n = np.bincount(np.concatenate((row + cls[ev], row + star[member[ev]],
                                        unit_row + star[unit_member[un]])),
                        weights=np.concatenate((np.ones(len(row)), gap[ev], tail[un])),
                        minlength=union.num_states * K).reshape(-1, K)
        touched_events = np.bincount(unit_member, weights=ends - dataset.offsets[seq[heads]],
                                     minlength=B)
        for i in np.flatnonzero(need).tolist():
            col, (lo, hi) = collapsed[i], union.offsets[i:i + 2]
            n_i = n[lo:hi, :col.size].copy()
            # sequences without the member's labels sit at its source throughout
            n_i[0, col.star] += dataset.total_events - touched_events[i]
            stats[i] = StateStats(col, n_i.sum(axis=1), n_i)
    return supports.tolist(), stats


def _run_starts(values: np.ndarray) -> np.ndarray:
    """True at every entry that differs from the one before it, and at the first."""
    starts = np.empty(len(values), dtype=bool)
    starts[:1] = True
    np.not_equal(values[1:], values[:-1], out=starts[1:])
    return starts


def collect_statistics(machine: Machine, dataset: Dataset,
                       collapsed: CollapsedAlphabet | None = None) -> tuple[StateStats, int]:
    """One greedy walk of every sequence: sufficient statistics plus the support.

    The walk of a union of one; see :func:`walk`.
    """
    if collapsed is None:
        collapsed = collapse_alphabet(machine.episode)
    supports, stats = walk(MachineUnion([machine]), dataset, [collapsed], [True])
    return stats[0], supports[0]


def support(machine: Machine, dataset: Dataset) -> int:
    """Number of dataset sequences whose greedy walk reaches the sink."""
    collapsed = collapse_alphabet(machine.episode)
    return walk(MachineUnion([machine]), dataset, [collapsed])[0][0]


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


# --- likelihood, gradient, hessian ---------------------------------------------

def log_likelihood(stats: StateStats, x: np.ndarray, masks: np.ndarray) -> float:
    """Sum over states of ``n . log p(. | H)`` at the K+2 coordinates ``x``:
    the per-class weights in class order, then the two transition boosts.
    ``masks`` is ``Machine.boost_masks(spec, collapsed)``."""
    return float((stats.n * log_conditionals(x[:-2], x[-2], x[-1], masks)).sum())


def gradient_hessian(stats: StateStats, x: np.ndarray,
                     masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gradient and (negative semidefinite) hessian of the log-likelihood.

    Takes the ``x`` and ``masks`` of :func:`log_likelihood` and answers in
    the same K+2 coordinates. With ``V`` the conditional distributions (one
    row per state), ``B_i`` the boost masks, ``R = n - cV`` and ``W_i =
    rowsum(V B_i)``, the gradient is ``(colsum R, sum R B_i)`` and the
    curvature blocks are ``diag(sum cV) - V'cV``, ``sum cV B_i - (cV)'W_i`` and
    ``diag(sum cW) - W'cW``. Adding one constant to every class weight leaves
    each conditional unchanged, so the class gradient sums to zero and the
    hessian maps the class shift ``(1, ..., 1, 0, 0)`` to zero: the gauge
    that :func:`fit` fixes by holding the pinned class.
    """
    V = np.exp(log_conditionals(x[:-2], x[-2], x[-1], masks))
    cV = stats.c[:, None] * V
    R = stats.n - cV
    W = (V * masks).sum(axis=2).T  # [S, 2] boosted mass per state
    cW = stats.c[:, None] * W
    grad = np.concatenate([R.sum(axis=0), (R * masks).sum(axis=(1, 2))])
    cross = (cV * masks).sum(axis=1).T - cV.T @ W
    curv = np.block([[np.diag(cV.sum(axis=0)) - V.T @ cV, cross],
                     [cross.T, np.diag(cW.sum(axis=0)) - W.T @ cW]])
    return grad, -curv


# --- fitting --------------------------------------------------------------------

def _class_weights(collapsed: Sequence[CollapsedAlphabet], totals: np.ndarray,
                   closed_form: bool) -> list[tuple[np.ndarray, int]]:
    """Per-class weights and the pinned class of every member of a batch.

    ``totals`` holds each member's class totals, joined in member order. The
    pinned class is the catch-all class unless it never occurs, then the
    first label class with events (the model is shift-invariant in u, so any
    observed class works as the gauge). Without boosts the free classes solve
    n_k = N p_k, which gives u_k = log(n_k / n_pinned) + log1p(z e^-T_CAP)
    with z classes at the floor; Newton starts boosted fits from the same
    point without the correction. The arithmetic is elementwise, so a member
    gets the same weights in any batch.
    """
    sizes = np.array([c.size for c in collapsed], dtype=np.intp)
    starts = np.cumsum(sizes) - sizes
    member = np.repeat(np.arange(len(sizes)), sizes)
    if np.any(np.bincount(member, weights=totals, minlength=len(sizes)) <= 0):
        raise NumericalFitError("cannot fit a model to zero events")
    nz = totals > 0
    observed = np.flatnonzero(nz)
    star = starts + np.array([c.star for c in collapsed], dtype=np.intp)
    pinned = np.where(nz[star], star, observed[np.searchsorted(observed, starts)])
    floor = [math.log1p(z * math.exp(-T_CAP)) if closed_form else 0.0
             for z in np.bincount(member[~nz], minlength=len(sizes)).tolist()]
    owner = member[nz]
    u = np.full(len(totals), -T_CAP)
    u[nz] = np.log(totals[nz]) - np.log(totals[pinned])[owner] + np.array(floor)[owner]
    # the clip binds only when one class outnumbers another e^T_CAP (about
    # 7e10) times, so the closed form is the box-constrained maximum below that
    np.clip(u, -T_CAP, T_CAP, out=u)
    u[pinned] = 0.0
    return [(u[lo:lo + k].copy(), p - lo)
            for lo, k, p in zip(starts.tolist(), sizes.tolist(), pinned.tolist())]


def fit_independence(dataset: Dataset,
                     collapsed: Sequence[CollapsedAlphabet]) -> list[ModelParams]:
    """Closed-form independence fits of a batch, from the corpus label counts.

    Under an episode's own collapsed alphabet (:func:`collapse_alphabet`) the
    walk counts every event once, in its label's class if the episode holds
    the label and in the catch-all class otherwise. So the class totals of
    its statistics are the label counts, the catch-all class taking the
    events left over, and this fit needs no walk. The totals are exact
    integers, so the weights are those :func:`fit` gets from the walk's
    statistics, bit for bit.
    """
    # each member's label classes, then its catch-all class
    sizes = np.fromiter((c.size for c in collapsed), dtype=np.intp, count=len(collapsed))
    ids = dataset.alphabet.ids_of(lab for c in collapsed for lab in c.classes[:c.star])
    labels = np.ones(int(sizes.sum()), dtype=bool)
    labels[np.cumsum(sizes) - 1] = False
    totals = np.zeros(len(labels), dtype=np.int64)
    totals[np.flatnonzero(labels)[ids >= 0]] = dataset.label_counts()[ids[ids >= 0]]
    held = np.add.reduceat(totals, np.cumsum(sizes) - sizes) if len(sizes) else totals
    totals[~labels] = dataset.total_events - held
    return [ModelParams(col, u, 0.0, 0.0, pinned) for col, (u, pinned)
            in zip(collapsed, _class_weights(collapsed, totals.astype(float),
                                             closed_form=True))]


def fit(machine: Machine, spec: PartitionSpec, stats: StateStats) -> ModelParams:
    """Maximize the likelihood inside the box.

    All weights live in ``[-T_CAP, T_CAP]``; classes with zero total count are
    held at the floor (their gradient only ever points further down), and a
    boost with an empty edge set stays at zero. With both edge sets empty the
    maximum has a closed form; otherwise damped Newton steps are backtracked
    until the likelihood is non-decreasing, and convergence is a small
    projected gradient. The boost masks are built once, and the iteration
    moves one vector of the K+2 coordinates of :func:`log_likelihood` and
    :func:`gradient_hessian`, turned into a :class:`ModelParams` only on
    return. The pinned class is frozen at zero like a floored class, which
    takes the hessian's null direction, the class shift, out of every Newton
    system. The result is a deterministic function of the inputs.
    """
    collapsed = stats.collapsed
    K = collapsed.size
    totals = stats.n.sum(axis=0)
    u, pinned = _class_weights([collapsed], totals, closed_form=spec.is_empty)[0]
    if spec.is_empty:
        return ModelParams(collapsed, u, 0.0, 0.0, pinned)
    masks = machine.boost_masks(spec, collapsed)
    x = np.concatenate([u, [0.0, 0.0]])

    # coordinates allowed to move: observed classes but the pinned one, boosts with edges
    movable = np.concatenate([totals > 0, [bool(spec.c1), bool(spec.c2)]])
    movable[pinned] = False

    ll = log_likelihood(stats, x, masks)
    if not np.isfinite(ll):
        raise NumericalFitError("non-finite likelihood at the starting point")

    for _ in range(MAX_ITER):
        grad, hess = gradient_hessian(stats, x, masks)
        if not np.all(np.isfinite(grad)):
            raise NumericalFitError("non-finite gradient during fitting")
        # freeze coordinates pressed outward against the box
        free = movable & ~((x >= T_CAP) & (grad > 0)) & ~((x <= -T_CAP) & (grad < 0))
        if not free.any() or float(np.abs(grad[free]).max()) < GRAD_TOL:
            break
        step = np.linalg.solve(-hess[np.ix_(free, free)] + RIDGE * np.eye(int(free.sum())),
                               grad[free])
        alpha = 1.0
        while alpha > 1e-12:
            x_new = x.copy()
            x_new[free] = np.clip(x[free] + alpha * step, -T_CAP, T_CAP)
            ll_new = log_likelihood(stats, x_new, masks)
            if not np.isfinite(ll_new):
                raise NumericalFitError("non-finite likelihood during line search")
            if ll_new >= ll:
                x, ll = x_new, ll_new
                break
            alpha *= 0.5
        else:
            break  # stationary under the box constraints

    return ModelParams(collapsed, x[:K], float(x[K]), float(x[K + 1]), pinned)


# --- reach probabilities ----------------------------------------------------------

def transition_rates(machine: Machine | MachineUnion, params,
                     spec) -> tuple[np.ndarray, np.ndarray]:
    """Per-state stay probability and per-edge traversal probability.

    Takes one machine with its fitted ``params`` and ``spec``, or a
    :class:`MachineUnion` with a sequence of each, one per member. A member
    whose spec boosts nothing has one distribution for every state, a row of
    ``u``; such members with equal class counts share one
    :func:`_log_normalize` call, which sums every row's terms in the same
    order as for a row alone.
    """
    if not isinstance(machine, MachineUnion):
        machine, params, spec = MachineUnion([machine]), [params], [spec]
    union = machine
    edge_cls = union.edge_classes([p.collapsed for p in params])
    edge_p = np.empty(len(edge_cls))
    plain: dict[int, list[int]] = {}  # class count -> members boosting nothing
    for i, (m, p, s) in enumerate(zip(union.members, params, spec)):
        if s.is_empty:
            plain.setdefault(p.collapsed.size, []).append(i)
        else:
            on = union.edge_member == i
            log_p = log_conditionals(p.u, p.t1, p.t2, m.boost_masks(s, p.collapsed))
            edge_p[on] = np.exp(log_p[m.edge_src, edge_cls[on]])
    row = np.zeros(len(union.members), dtype=np.intp)  # member's row in its class count's batch
    for members in plain.values():
        row[members] = np.arange(len(members))
        on = np.isin(union.edge_member, members)
        log_p = _log_normalize(np.stack([params[i].u for i in members]))
        edge_p[on] = np.exp(log_p[row[union.edge_member[on]], edge_cls[on]])
    leave = np.bincount(union.edge_src, weights=edge_p, minlength=union.num_states)
    return np.maximum(1.0 - leave, 0.0), edge_p


def reach_table(machine: Machine | MachineUnion, stay: np.ndarray, edge_p: np.ndarray,
                lengths: Sequence[int]) -> np.ndarray:
    """Distribution over states of the greedy walk after each of ``lengths`` events.

    ``lengths`` ascend from 0 or more; row ``i`` of the ``[len(lengths), S]``
    result is the distribution after ``lengths[i]`` events. It solves
    ``p(H, k) = stay_H p(H, k-1) + sum over incoming edges of p(edge)
    p(src, k-1)`` from the point mass on the source (on every member's
    source, for a union), one rolling state vector stepped up to the last
    length; only the rows asked for are kept. A step is one ``bincount`` over
    all self-loops and then all edges, which adds each state's terms in that
    order: the stay term first, then the incoming edges in edge order. So a
    member of a union gets the columns it gets alone, bit for bit.
    """
    if not isinstance(machine, MachineUnion):
        machine = MachineUnion([machine])
    if np.any(np.diff(lengths, prepend=0) < 0):
        raise ValueError("reach_table lengths must be non-negative and ascend")
    S = machine.num_states
    loops = np.arange(S)
    src = np.concatenate((loops, machine.edge_src))
    dst = np.concatenate((loops, machine.edge_dst))
    weight = np.concatenate((stay, edge_p))
    table = np.empty((len(lengths), S))
    state = np.zeros(S)
    state[machine.source] = 1.0
    done = 0
    for row, k in enumerate(lengths):
        for _ in range(k - done):
            state = np.bincount(dst, weights=weight * state[src], minlength=S)
        table[row] = state
        done = k
    return table
