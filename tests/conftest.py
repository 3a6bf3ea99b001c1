"""Shared generators: random and exhaustive strict episodes, small corpora."""

from __future__ import annotations

import itertools
from collections.abc import Iterable

import numpy as np
import pytest

from episoderank.datagen import Dataset
from episoderank.episodes import CycleError, Episode, is_strict, make_episode, strictify

from oracles import dataset_from_rows


def random_strict_episode(rng: np.random.Generator, alphabet: str = "ab",
                          max_vertices: int = 4, edge_p: float = 0.5) -> Episode:
    n = int(rng.integers(1, max_vertices + 1))
    labels = [alphabet[int(rng.integers(len(alphabet)))] for _ in range(n)]
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < edge_p]
    episode = make_episode(labels, edges)
    if not is_strict(episode):
        episode = strictify(episode)
    return episode


def enumerate_strict_episodes(max_vertices: int, alphabet: str = "ab") -> list[Episode]:
    """Every strict, closed, canonical episode up to the given size (deduplicated)."""
    seen: dict[tuple, Episode] = {}
    for n in range(max_vertices + 1):
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        for labels in itertools.product(alphabet, repeat=n):
            for bits in range(1 << len(pairs)):
                edges = [pairs[k] for k in range(len(pairs)) if bits >> k & 1]
                try:
                    episode = make_episode(labels, edges)
                except CycleError:
                    continue
                if not is_strict(episode):
                    continue
                seen.setdefault((episode.labels, episode.edges), episode)
    return sorted(seen.values(), key=lambda e: (e.n, e.labels, sorted(e.edges)))


def dataset_from_strings(rows: Iterable[str]) -> Dataset:
    """Each character of each string is one event."""
    return dataset_from_rows(rows)


def all_sequences(alphabet: str, max_len: int) -> list[str]:
    out = [""]
    for k in range(1, max_len + 1):
        out.extend("".join(t) for t in itertools.product(alphabet, repeat=k))
    return out


@pytest.fixture(scope="session")
def tiny_corpus() -> Dataset:
    return dataset_from_strings(["ab", "ba", "aab", "bb", "ab", "abc", "cab"])
