"""Frequent-episode candidate generation.

Produces serial episodes (depth-first search over projected occurrence lists),
parallel episodes (frequent label multisets, emitted strictified), and general
DAG candidates obtained by intersecting the orders of equal-multiset serial
episodes. Support is the number of sequences matching the episode; it is
anti-monotone, which is what makes the level-wise pruning sound.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from .datagen import Dataset
from .episodes import (
    Episode,
    describe,
    is_strict,
    make_episode,
    parallel,
    serial,
    strictify,
)
from .machine import build_machine
from .model import support


@dataclass
class Candidate:
    eid: str
    episode: Episode
    support: int | None = None


class CandidateSet:
    """Deduplicated episode collection with a label-multiset index."""

    def __init__(self):
        self.items: list[Candidate] = []
        self._by_key: dict[tuple, int] = {}
        self._by_labels: dict[tuple, list[int]] = {}

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self):
        return iter(self.items)

    def add(self, eid: str, episode: Episode, support_count: int | None = None) -> bool:
        """Insert unless an episode with the same canonical form exists."""
        key = (episode.labels, episode.edges)
        if key in self._by_key:
            return False
        self._by_key[key] = len(self.items)
        self._by_labels.setdefault(episode.labels, []).append(len(self.items))
        self.items.append(Candidate(eid, episode, support_count))
        return True

    def __contains__(self, episode: Episode) -> bool:
        return (episode.labels, episode.edges) in self._by_key

    def superepisodes_of(self, episode: Episode) -> list[Candidate]:
        """Candidates on the same labels whose order strictly extends this one."""
        out = []
        for idx in self._by_labels.get(episode.labels, ()):
            cand = self.items[idx]
            if episode.edges < cand.episode.edges:
                out.append(cand)
        return out


def _auto_id(episode: Episode) -> str:
    return describe(episode)


def mine_serial(dataset: Dataset, min_support: int, max_len: int) -> CandidateSet:
    """All serial episodes up to max_len with subsequence support >= min_support."""
    if min_support < 1:
        raise ValueError("min_support must be >= 1")
    out = CandidateSet()
    if max_len < 1:
        return out

    # per-label, per-sequence sorted positions for fast "next occurrence after"
    positions: dict[int, dict[int, list[int]]] = {}
    seq_count: dict[int, int] = {}
    for seq_idx, seq in enumerate(dataset.sequences):
        seen: set[int] = set()
        for pos, lid in enumerate(seq):
            positions.setdefault(lid, {}).setdefault(seq_idx, []).append(pos)
            if lid not in seen:
                seen.add(lid)
                seq_count[lid] = seq_count.get(lid, 0) + 1

    symbols = dataset.alphabet.symbols

    def extend(pattern: list[int], projection: list[tuple[int, int]]) -> None:
        episode = serial([symbols[lid] for lid in pattern])
        out.add(_auto_id(episode), episode, len(projection))
        if len(pattern) == max_len:
            return
        counts: dict[int, int] = {}
        for seq_idx, pos in projection:
            for lid in set(dataset.sequences[seq_idx][pos + 1:]):
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


def mine_parallel(dataset: Dataset, min_support: int, max_size: int) -> CandidateSet:
    """Frequent label multisets, emitted as strictified (chained) episodes.

    A sequence supports a multiset when it holds every label with at least the
    required multiplicity, which matches coverage of the strictified episode.
    """
    if min_support < 1:
        raise ValueError("min_support must be >= 1")
    out = CandidateSet()
    if max_size < 1:
        return out

    seq_counters: list[dict[int, int]] = []
    for seq in dataset.sequences:
        counter: dict[int, int] = {}
        for lid in seq:
            counter[lid] = counter.get(lid, 0) + 1
        seq_counters.append(counter)

    symbols = dataset.alphabet.symbols

    def extend(multiset: list[int], projection: list[int]) -> None:
        episode = strictify(parallel([symbols[lid] for lid in multiset]))
        out.add(_auto_id(episode), episode, len(projection))
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


def _is_serial(episode: Episode) -> bool:
    n = episode.n
    return len(episode.edges) == n * (n - 1) // 2


def merge_serial_intersections(candidates: CandidateSet, dataset: Dataset,
                               min_support: int) -> list[Candidate]:
    """General-DAG candidates: intersect the orders of equal-multiset serials.

    The intersection of two total orders on the same canonical vertex list is a
    transitively closed partial order that both linearizations extend; it is
    kept when strict, frequent and new. Returns the additions (also appended to
    the candidate set).
    """
    groups: dict[tuple, list[int]] = {}
    for idx, cand in enumerate(candidates.items):
        if cand.episode.n >= 2 and _is_serial(cand.episode):
            groups.setdefault(cand.episode.labels, []).append(idx)

    additions: list[Candidate] = []
    for labels in sorted(groups):
        members = groups[labels]
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                e1 = candidates.items[members[i]].episode
                e2 = candidates.items[members[j]].episode
                merged = make_episode(labels, e1.edges & e2.edges)
                if merged in candidates or not is_strict(merged):
                    continue
                supp = support(build_machine(merged), dataset)
                if supp >= min_support:
                    cand = Candidate(_auto_id(merged), merged, supp)
                    if candidates.add(cand.eid, cand.episode, cand.support):
                        additions.append(cand)
    return additions
