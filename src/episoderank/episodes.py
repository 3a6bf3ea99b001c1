"""Labelled-DAG episode patterns: closure, strictness, prefix subgraphs.

An episode is a DAG with string-labelled vertices. A sequence matches it when
the labels can be found in an order consistent with the edges. Episodes are
stored transitively closed and in a canonical vertex order (sorted by label,
equal labels by their chain order), which makes structural comparison a plain
index-wise check.

One order rule underlies closure, strictness repair, the prefix subgraphs and
the machine: a vertex may come next once all its predecessors are placed
(:func:`addable`); :func:`linear_extension` places vertices by it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence


class EpisodeError(ValueError):
    """Base class for episode construction/validation failures."""


class CycleError(EpisodeError):
    """Edge relation contains a directed cycle."""

    def __init__(self, cycle: list[int]):
        self.cycle = cycle
        super().__init__(f"edge relation has a cycle through vertices {cycle}")


class StrictnessError(EpisodeError):
    """Two equal-label vertices are unordered."""


class SizeCapError(EpisodeError):
    """Episode exceeds a configured size limit."""


VERTEX_CAP = 16


@dataclass(frozen=True, slots=True)
class Episode:
    """Transitively closed episode in canonical vertex order.

    ``labels[i]`` is the label of vertex ``i``; ``edges`` holds ordered pairs
    ``(u, v)`` meaning u must occur before v. Instances are immutable and
    hashable; construct via :func:`make_episode` (or the ``serial`` /
    ``parallel`` helpers) which closes and canonicalizes.
    """

    labels: tuple[str, ...]
    edges: frozenset[tuple[int, int]]

    @property
    def n(self) -> int:
        return len(self.labels)

    def predecessor_masks(self) -> list[int]:
        """Bitmask of (closed) predecessors per vertex."""
        preds = [0] * self.n
        for u, v in self.edges:
            preds[v] |= 1 << u
        return preds

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Episode({describe(self)})"


def addable(preds: Sequence[int], placed: int) -> list[int]:
    """The vertices outside ``placed`` whose predecessors all lie inside it, in
    ascending order: the vertices that may come next. ``preds[v]`` is the
    bitmask of v's predecessors."""
    outside = ~placed
    return [v for v, p in enumerate(preds) if outside >> v & 1 and not p & outside]


def linear_extension(preds: Sequence[int], pick: Callable[[list[int]], int]) -> list[int]:
    """A topological order: place ``pick(addable(preds, placed))`` until every
    vertex is placed.

    When no vertex is ready, every unplaced vertex has an unplaced predecessor;
    walking predecessors back from one reaches a repeated vertex, and the walk
    between the repeats, read forward, is the cycle raised as CycleError.
    """
    order: list[int] = []
    placed = 0
    while len(order) < len(preds):
        ready = addable(preds, placed)
        if not ready:
            v = next(v for v in range(len(preds)) if not placed >> v & 1)
            walk: list[int] = []
            while v not in walk:
                walk.append(v)
                v = (preds[v] & ~placed).bit_length() - 1  # highest unplaced predecessor
            raise CycleError([v] + walk[walk.index(v):][::-1])
        v = pick(ready)
        order.append(v)
        placed |= 1 << v
    return order


def _close_edges(n: int, edges: Iterable[tuple[int, int]]) -> frozenset[tuple[int, int]]:
    """Transitive closure of a DAG edge relation; raises CycleError otherwise."""
    preds = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise EpisodeError(f"edge ({u},{v}) out of range for {n} vertices")
        preds[v] |= 1 << u
    ancestors = [0] * n
    for v in linear_extension(preds, min):  # a vertex's ancestors come first
        for u in range(n):
            if preds[v] >> u & 1:
                ancestors[v] |= ancestors[u] | 1 << u
    return frozenset((u, v) for v in range(n) for u in range(n) if ancestors[v] >> u & 1)


def _canonical_permutation(labels: Sequence[str], closed: frozenset[tuple[int, int]]) -> list[int]:
    """Vertex order sorted by label, equal labels by their chain position.

    For strict episodes the equal-label chain position is unique; otherwise
    ties fall back to the original index (best-effort, strict inputs are the
    contract everywhere canonical uniqueness matters).
    """
    n = len(labels)
    same_before = [0] * n
    for u, v in closed:
        if labels[u] == labels[v]:
            same_before[v] += 1
    order = sorted(range(n), key=lambda v: (labels[v], same_before[v], v))
    return order


def make_episode(labels: Sequence[str], edges: Iterable[tuple[int, int]]) -> Episode:
    """Build a canonical, transitively closed episode from raw parts."""
    labels = tuple(labels)
    closed = _close_edges(len(labels), edges)
    order = _canonical_permutation(labels, closed)
    pos = [0] * len(labels)  # old id -> new id
    for new, old in enumerate(order):
        pos[old] = new
    new_labels = tuple(labels[old] for old in order)
    new_edges = frozenset((pos[u], pos[v]) for u, v in closed)
    return Episode(new_labels, new_edges)


def serial(labels: Sequence[str]) -> Episode:
    """Total-order episode over the given labels, in the given order."""
    n = len(labels)
    return make_episode(labels, [(i, j) for i in range(n) for j in range(i + 1, n)])


def parallel(labels: Sequence[str]) -> Episode:
    """Edgeless episode over the given labels."""
    return make_episode(labels, [])


def transitive_reduction(episode: Episode) -> frozenset[tuple[int, int]]:
    """Minimal edge set whose closure equals the stored (closed) edges: an
    edge is implied when some vertex lies between its ends."""
    succ = [0] * episode.n
    pred = [0] * episode.n
    for u, v in episode.edges:
        succ[u] |= 1 << v
        pred[v] |= 1 << u
    return frozenset((u, v) for u, v in episode.edges if not succ[u] & pred[v])


def is_strict(episode: Episode) -> bool:
    """True iff every equal-label vertex pair is ordered by an edge."""
    for u in range(episode.n):
        for v in range(u + 1, episode.n):
            if episode.labels[u] == episode.labels[v]:
                if (u, v) not in episode.edges and (v, u) not in episode.edges:
                    return False
    return True


def strictify(episode: Episode) -> Episode:
    """Chain equal-label vertices into a total order consistent with the edges.

    For a parallel episode this produces the strict episode matched by exactly
    the same sequences. For general inputs the chain follows a topological
    order of the closed episode, so the result is always a DAG.
    """
    groups: dict[str, list[int]] = {}  # each label's vertices in topological order
    for v in linear_extension(episode.predecessor_masks(), min):
        groups.setdefault(episode.labels[v], []).append(v)
    chains = {pair for verts in groups.values() for pair in zip(verts, verts[1:])}
    return make_episode(episode.labels, episode.edges | chains)


def prefix_graphs(episode: Episode) -> list[int]:
    """All ancestor-closed vertex sets as bitmasks, ordered by (size, mask).

    Includes the empty set and the full vertex set. The count is exponential
    for parallel episodes, hence the vertex cap ``VERTEX_CAP``.
    """
    if episode.n > VERTEX_CAP:
        raise SizeCapError(
            f"episode has {episode.n} vertices, above the cap of {VERTEX_CAP}")
    preds = episode.predecessor_masks()
    seen = {0}
    frontier = [0]
    while frontier:
        mask = frontier.pop()
        for v in addable(preds, mask):
            nxt = mask | 1 << v
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return sorted(seen, key=lambda m: (bin(m).count("1"), m))


def is_proper_superepisode_same_vertices(g: Episode, h: Episode) -> bool:
    """True iff h has the same labels as g and strictly more order constraints.

    Both episodes must be canonical; the canonical order makes the vertex
    correspondence index-wise.
    """
    if g.labels != h.labels:
        return False
    return g.edges < h.edges


def describe(episode: Episode) -> str:
    """Compact one-line rendering, e.g. ``a-b-c|0<1|1<2`` (reduced edges)."""
    parts = ["-".join(episode.labels)]
    for u, v in sorted(transitive_reduction(episode)):
        parts.append(f"{u}<{v}")
    return "|".join(parts)


def vertex_set_label(episode: Episode, mask: int) -> str:
    """The labels of the vertices in ``mask``, in vertex order, as ``{a,b}``."""
    return "{" + ",".join(episode.labels[v] for v in range(episode.n) if mask >> v & 1) + "}"


# --- episode files (JSON lines) ---------------------------------------------

def record_line(eid: str, labels: str, edges: str, support: int | None = None) -> str:
    """One line of an episode file, from the JSON text of its fields: ``eid`` a
    string literal, ``labels`` and ``edges`` lists (``edge_list``). Every
    episode file is written through here. Its bytes are those of ``json.dumps``
    of the record: keys id, labels, edges, then support when given; ", " and
    ": " separators; non-ASCII characters escaped as \\uXXXX."""
    tail = "" if support is None else f', "support": {support}'
    return f'{{"id": {eid}, "labels": {labels}, "edges": {edges}{tail}}}\n'


def edge_list(edges: Iterable[tuple[int, int]]) -> str:
    """The JSON text of a list of edges."""
    return "[" + ", ".join(f"[{u}, {v}]" for u, v in edges) + "]"


def episode_line(eid: str, episode: Episode, support: int | None = None) -> str:
    """The episode-file line of an episode, with its reduced edge list."""
    return record_line(json.dumps(eid), json.dumps(list(episode.labels)),
                       edge_list(sorted(transitive_reduction(episode))), support)


def save_episodes(items: Iterable[tuple[str, Episode]], path: str) -> None:
    """Write episodes as JSON lines with reduced edge lists."""
    with open(path, "w", encoding="utf-8") as fh:
        for eid, episode in items:
            fh.write(episode_line(eid, episode))


def _index_pair(edge) -> tuple[int, int]:
    """An edge of an episode record: a list of two ints (a bool is no index)."""
    if not (isinstance(edge, list) and len(edge) == 2 and all(type(v) is int for v in edge)):
        raise TypeError(f"an edge must be two vertex indices, not {edge!r}")
    return edge[0], edge[1]


def load_episodes(path: str, auto_strictify: bool = False) -> list[tuple[str, Episode]]:
    """Read a JSON-lines episode file; close, validate and canonicalize.

    A record is rejected unless its id is a string without tabs or any line
    break ``str.splitlines`` knows (it is the first column of a report row,
    which ``ranking.parse_report`` reads back), its labels a non-empty list
    of strings and every edge a list of two ints. Non-strict episodes are
    rejected unless ``auto_strictify`` is set, in which case unordered
    equal-label vertices are chained.
    """
    out: list[tuple[str, Episode]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                eid, labels = obj["id"], obj["labels"]
                if not isinstance(eid, str) or "\t" in eid or "".join(eid.splitlines()) != eid:
                    raise TypeError(f"id must be a string without tabs or line breaks, not {eid!r}")
                if not isinstance(labels, list) or not all(isinstance(lab, str) for lab in labels):
                    raise TypeError(f"labels must be a list of strings, not {labels!r}")
                episode = make_episode(labels, [_index_pair(edge) for edge in obj["edges"]])
            except (KeyError, TypeError, ValueError) as exc:  # EpisodeError is a ValueError
                raise EpisodeError(f"{path}:{lineno}: malformed episode record: {exc}") from None
            if not episode.n:  # every sequence would cover it, whatever the model
                raise EpisodeError(f"{path}:{lineno}: episode {eid!r} has no labels")
            if not is_strict(episode):
                if not auto_strictify:
                    raise StrictnessError(
                        f"{path}:{lineno}: episode {eid!r} is not strict "
                        "(use --strictify to repair)")
                episode = strictify(episode)
            out.append((eid, episode))
    return out


