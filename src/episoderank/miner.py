"""Frequent-episode candidate generation.

Produces serial episodes (projected prefix growth over the columnar corpus),
parallel episodes (frequent label multisets, emitted strictified), and general
DAG candidates obtained by intersecting the orders of equal-multiset serial
episodes. Support is the number of sequences matching the episode; it is
anti-monotone, which is what makes the level-wise pruning sound. The serial
and multiset miners return their search's level arrays; episodes are built
only when the result is iterated.
"""

from __future__ import annotations

import json
import re
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .datagen import Dataset, label_order
from .episodes import Episode, describe, edge_list, is_strict, make_episode, record_line
from .machine import build_machine
from .model import support


@dataclass(slots=True)
class Candidate:
    eid: str
    episode: Episode
    support: int | None = None


class CandidateSet:
    """Deduplicated episodes, ``candidates`` added in order, with a label-multiset index."""

    def __init__(self, candidates: Iterable[Candidate] = ()):
        self.items: list[Candidate] = []
        self._by_key: dict[tuple, int] = {}
        self._by_labels: dict[tuple, list[int]] = {}
        for cand in candidates:
            self.add(cand.eid, cand.episode, cand.support)

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


# Projected events plus count cells (F per node) one batch of a search level
# holds at most, unless it is a single node; bounds the temporary arrays.
BATCH_EVENTS = 1 << 17


def _batches(node: np.ndarray, weights: np.ndarray, cells: int):
    """Ranges ``[a, b)`` of whole nodes' entries whose weights plus ``cells``
    per node come to at most BATCH_EVENTS, or of a single node."""
    bounds = np.append(np.flatnonzero(np.diff(node, prepend=-1)), len(node))
    load = np.concatenate(([0], np.cumsum(weights)))[bounds] + cells * np.arange(len(bounds))
    j = 0
    while j < len(bounds) - 1:
        i, j = j, max(np.searchsorted(load, load[j] + BATCH_EVENTS, side="right") - 1, j + 1)
        yield bounds[i], bounds[j]


def _frequent_groups(key: np.ndarray, min_support: int, members: bool):
    """Keys held by at least ``min_support`` elements and their counts, one count
    cell per key value; with ``members``, also those elements by key, then index."""
    counts = np.bincount(key)
    kept = np.flatnonzero(counts >= min_support)
    if not members:
        return kept, counts[kept], None
    picked = np.flatnonzero(counts[key] >= min_support)
    return kept, counts[kept], picked[np.argsort(key[picked], kind="stable")]


def _index_dtype(count: int) -> type:
    """The integer type of a search's corpus-sized index arrays, whose event
    positions and sequence numbers lie below ``count``: int32 below 2^31."""
    return np.int32 if count < 1 << 31 else np.int64


def _frequent_events(dataset: Dataset, min_support: int, multisets: bool):
    """The symbols of the labels in at least ``min_support`` sequences, in
    symbol order, and the sequence and label number of each of their events
    (as ``_index_dtype``); for multisets each sequence's events are sorted by
    label."""
    symbols, tokens = dataset.alphabet.symbols, dataset.tokens
    L = len(symbols)
    index = _index_dtype(max(dataset.total_events, dataset.num_sequences))
    seq = dataset.sequence_ids
    pairs = np.sort(seq * L + tokens)
    pairs = pairs[np.diff(pairs, prepend=-1) != 0]  # each (sequence, label) once
    frequent = sorted(np.flatnonzero(np.bincount(pairs % L, minlength=L) >= min_support).tolist(),
                      key=symbols.__getitem__)
    number = np.full(L, -1, dtype=index)
    number[frequent] = np.arange(len(frequent))
    label = number[tokens]
    seq, label = seq[label >= 0], label[label >= 0]  # seq int64 while keys use it
    if multisets:
        label = (np.sort(seq * L + label) - seq * L).astype(index)
    return [symbols[lid] for lid in frequent], seq.astype(index), label


def _occurrences(seq: np.ndarray, label: np.ndarray, count: int):
    """The events in (label, position) order, as ``seq``'s type, and which
    events are the first and which the last of their (sequence, label);
    ``count`` is the number of labels."""
    by_label = label_order(label, count).astype(seq.dtype)
    again = (np.diff(label[by_label]) == 0) & (np.diff(seq[by_label]) == 0)
    first, last = np.ones(len(label), dtype=bool), np.ones(len(label), dtype=bool)
    first[by_label[1:][again]] = False
    last[by_label[:-1][again]] = False
    return by_label, first, last


def _search(dataset: Dataset, min_support: int, max_k: int, multisets: bool):
    """Frequent label tuples of up to ``max_k`` labels by projected prefix
    growth (PrefixSpan), one level per pass, over the corpus cut down to the
    labels frequent on their own, numbered in symbol order. For multisets each
    sequence is sorted first: a multiset occurs in a sequence exactly when its
    sorted tuple is a subsequence of the sorted sequence.

    Each entry holds a node's leftmost match in one supporting sequence, in
    (node, sequence) order. A child's support counts its parent's entries with
    the child's label after the match. An entry projects onto the last
    occurrence of every (sequence, label) after its match, exactly one event
    per distinct later label, so the counting keys need no filter. Only the
    entries of frequent children look up the child's leftmost match, the
    first event of its label after the match, by one binary search over the
    events in (label, position) order. Nodes are expanded in batches, a fixed
    number of array operations each. Returns the labels' symbols and
    ``(parent, label, support)`` per level.
    """
    symbols, seq, label = _frequent_events(dataset, min_support, multisets)
    F, E, index = len(symbols), len(label), seq.dtype.type
    by_label, first, last = _occurrences(seq, label, F)
    sorted_keys = label[by_label].astype(np.int64) * E + by_label  # increasing
    lasts = np.flatnonzero(last)
    rank = np.cumsum(last, dtype=index)  # the lasts at or before each event
    last_label = label[lasts]
    last_ends = np.searchsorted(seq[lasts], np.arange(1, dataset.num_sequences + 1)).astype(index)
    pos = by_label[first[by_label]]

    node, at = label[pos], seq[pos]
    levels = [(np.full(F, -1), np.arange(F), np.bincount(node, minlength=F))]
    for k in range(2, max_k + 1):
        grow = k < max_k
        lo = rank[pos]
        size = last_ends[at] - lo
        found, entries, width = [], [], 0
        for a, b in _batches(node, size, F):
            lens = size[a:b]
            offs = np.cumsum(lens) - lens
            later = np.arange(offs[-1] + lens[-1]) + np.repeat(lo[a:b] - offs, lens)
            key = np.repeat((node[a:b] - node[a]).astype(np.int64) * F, lens) + last_label[later]
            kept, counts, members = _frequent_groups(key, min_support, grow)
            found.append((kept // F + node[a], kept % F, counts))
            if grow:
                entry = a + np.searchsorted(offs, members, side="right") - 1
                child = np.searchsorted(sorted_keys, key[members] % F * E + pos[entry],
                                        side="right")
                entries.append((width + np.repeat(np.arange(len(kept), dtype=index), counts),
                                at[entry], by_label[child]))
            width += len(kept)
        if not width:
            break
        levels.append(tuple(map(np.concatenate, zip(*found))))
        if grow:
            node, at, pos = map(np.concatenate, zip(*entries))
    return symbols, levels


def _form(index: list[int], equal: list[bool], serial: bool):
    """Closed edges, id suffix, episode-file line pieces and whether every
    label is the same, of a serial episode (every pair in pattern order) or a
    strictified multiset (each run of equal labels chained); ``index`` maps
    pattern positions to canonical vertices, ``equal`` marks equal neighbours
    in canonical order. A line is its 2n + 2 pieces with, in the 2n + 1 gaps,
    the n JSON-escaped labels, the labels again and the support."""
    n = len(index)
    closed = frozenset((index[i], index[j]) for i in range(n) for j in range(i + 1, n)
                       if serial or all(equal[i:j]))
    reduced = sorted((index[i], index[i + 1]) for i in range(n - 1) if serial or equal[i])
    suffix = "".join(f"|{u}<{v}" for u, v in reduced)  # digits and |<, never %
    template = record_line('"' + "-".join(["%s"] * n) + suffix + '"',
                           "[" + ", ".join(['"%s"'] * n) + "]", edge_list(reduced), "%d")
    return closed, suffix, re.split("%[sd]", template), all(equal)


def _distinct_rows(rows: np.ndarray):
    """The distinct rows of an integer matrix, and each row's index among them
    (``np.unique(rows, axis=0, return_inverse=True)`` sorts a structured view
    of the rows, about 2 s for a million rows of three small ints)."""
    order = np.lexsort(rows.T[::-1])
    ranked = rows[order]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    code = np.empty(len(rows), dtype=np.intp)
    code[order] = np.cumsum(first) - 1
    return ranked[first], code


# Tuples a result turns into Python lists, or into bytes, at once; bounds the
# memory of those lists and of a block's byte index whatever the number of
# candidates.
CHUNK = 1 << 11


class MinedEpisodes:
    """The frequent label tuples of one search, held as its level arrays.

    ``symbols`` are the labels frequent on their own, in symbol order. Entry i
    of level k is the k-label tuple that extends entry ``parent[i]`` of level
    k - 1 by label number ``label[i]``, held by ``support[i]`` sequences;
    serial tuples are in pattern order, multiset tuples sorted. Iterating
    builds each ``Candidate`` on demand and ``blocks`` writes the JSONL records
    straight from the arrays, both in the lexicographic order of the tuples, a
    prefix first.
    """

    def __init__(self, symbols: list[str], levels: list[tuple[np.ndarray, ...]],
                 serial: bool):
        self.symbols, self.levels, self.serial = symbols, levels, serial

    def __len__(self) -> int:
        return sum(len(support) for _, _, support in self.levels)

    def _records(self):
        """The forms of the tuples' shapes (``_form``), the order of the tuples
        and, per tuple in level order, its label numbers in canonical vertex
        order (padded with the number of symbols), the index of its shape's
        form and its support; a form fixes its tuples' size.

        The canonical vertex order is the stable sort of the labels, so the
        episode, its id suffix and its edge list are written down once per
        shape of tuple, not derived per episode.
        """
        F = len(self.symbols)
        narrow = np.min_scalar_type(-F - 1)  # holds -1 through F
        tuples = [self.levels[0][1].astype(narrow)[:, None]]
        for parent, label, _ in self.levels[1:]:
            tuples.append(np.column_stack((tuples[-1][parent], label.astype(narrow))))
        width = len(tuples)
        padded, canons, codes, forms = [], [], [], []
        for t in tuples:
            k = t.shape[1]
            # each label's place in the stable sort of its row: the number of
            # smaller labels and of equal ones before it
            place = np.zeros(t.shape, dtype=np.min_scalar_type(k))
            for j in range(k):
                place += t > t[:, j:j + 1]
                place[:, j + 1:] += t[:, j + 1:] == t[:, j:j + 1]
            canon = np.empty_like(t)
            np.put_along_axis(canon, place, t, axis=1)
            shape = np.hstack((place, canon[:, 1:] == canon[:, :-1]))
            kinds, code = _distinct_rows(shape)
            codes.append(code + len(forms))
            forms += [_form(row[:k], row[k:], self.serial) for row in kinds.tolist()]
            pad = ((0, 0), (0, width - k))
            padded.append(np.pad(t, pad, constant_values=-1))
            canons.append(np.pad(canon, pad, constant_values=F))
        order = np.lexsort(np.concatenate(padded).T[::-1])
        support = np.concatenate([level[2] for level in self.levels])
        return forms, order, np.concatenate(canons), np.concatenate(codes), support

    def __iter__(self):
        symbols = self.symbols
        forms, order, canon, code, support = self._records()
        for a in range(0, len(order), CHUNK):
            o = order[a:a + CHUNK]
            for row, c, s in zip(canon[o].tolist(), code[o].tolist(), support[o].tolist()):
                closed, suffix, parts, _ = forms[c]
                labels = tuple([symbols[r] for r in row[:len(parts) // 2 - 1]])
                yield Candidate("-".join(labels) + suffix, Episode(labels, closed), s)

    def blocks(self, skip_repeats: int = 0):
        """The episode-file lines of every tuple but those of one label repeated
        at most ``skip_repeats`` times (a serial search capped at that length
        finds each of them as a serial episode, the same episode), as blocks of
        the ASCII bytes of at most ``CHUNK`` lines.

        Every line is gathered from one pool of byte pieces: the JSON-escaped
        symbols, the empty piece (numbered as the padding label), the distinct
        pieces of the forms and the decimal text of each distinct support. A
        tuple's pieces are its form's pieces with its labels twice and its
        support in between; a block is one gather of the pool.
        """
        forms, order, canon, code, support = self._records()
        W = canon.shape[1]
        # piece ids: symbol i is piece i, the padding label F the empty piece,
        # then the form pieces
        texts = [json.dumps(symbol)[1:-1] for symbol in self.symbols] + [""]
        number: dict[str, int] = {}
        rows, skip = [], []
        for _, _, parts, same in forms:
            k = len(parts) // 2 - 1
            at = [number.setdefault(p, len(texts) + len(number)) for p in parts]
            empty = [len(self.symbols)] * (W - k)
            rows.append([*at[:k + 1], *empty, *at[k + 1:-1], *empty, at[-1]])
            skip.append(same and k <= skip_repeats)
        pieces = np.array(rows, dtype=np.intp).reshape(len(forms), 2 * W + 2)
        skip = np.array(skip, dtype=bool)
        texts += number
        supports = np.unique(support)
        first = len(texts)  # the piece of the smallest support
        texts += map(str, supports.tolist())
        pool = np.frombuffer("".join(texts).encode("ascii"), dtype=np.uint8)
        length = np.array(list(map(len, texts)), dtype=np.intp)
        start = np.cumsum(length) - length
        for a in range(0, len(order), CHUNK):
            o = order[a:a + CHUNK]
            o = o[~skip[code[o]]]
            if not len(o):
                continue
            ids = np.empty((len(o), 4 * W + 3), dtype=np.intp)
            ids[:, 0::2] = pieces[code[o]]
            ids[:, 1:2 * W:2] = ids[:, 2 * W + 1:4 * W:2] = canon[o]
            ids[:, 4 * W + 1] = first + np.searchsorted(supports, support[o])
            lens = length[ids].ravel()
            ends = np.cumsum(lens)
            index = _index_dtype(len(pool) + int(ends[-1]))
            at = np.repeat((start[ids].ravel() - ends + lens).astype(index), lens)
            at += np.arange(ends[-1], dtype=index)  # the pool index of each byte
            yield pool.take(at).tobytes()


def _mine(dataset: Dataset, min_support: int, max_k: int, serial: bool) -> MinedEpisodes:
    if min_support < 1:
        raise ValueError("min_support must be >= 1")
    if max_k < 1:
        empty = np.zeros(0, dtype=np.int64)
        return MinedEpisodes([], [(empty, empty, empty)], serial)
    return MinedEpisodes(*_search(dataset, min_support, max_k, multisets=not serial),
                         serial=serial)


def mine_serial(dataset: Dataset, min_support: int, max_len: int) -> MinedEpisodes:
    """All serial episodes up to max_len with subsequence support >= min_support."""
    return _mine(dataset, min_support, max_len, serial=True)


def mine_parallel(dataset: Dataset, min_support: int, max_size: int) -> MinedEpisodes:
    """Frequent label multisets, emitted as strictified (chained) episodes.

    A sequence supports a multiset when it holds every label with at least the
    required multiplicity, which matches coverage of the strictified episode.
    """
    return _mine(dataset, min_support, max_size, serial=False)


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
                    cand = Candidate(describe(merged), merged, supp)
                    if candidates.add(cand.eid, cand.episode, cand.support):
                        additions.append(cand)
    return additions
