"""The two workloads: how each builds its inputs and checks its outputs.

A workload's set-up writes the corpus and candidate files with the program's
own ``generate`` and ``mine`` commands, exactly as a user would. A timed round
is one or more ``episoderank`` command lines, each run in process through
``cli.main``. Nothing but those files passes from the benchmark to the
program.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Callable

import checks

DEFAULT_SEQUENCES = 10_000
DEFAULT_COUNTS = (200, 20, 10)
EXACT_SEQUENCES = 2_000
EXACT_COUNTS = (40, 8, 6)
BULK_PAIRS = 1_000
EXACT_SAMPLE = 150  # of singletons, and as many larger episodes


@dataclass
class Call:
    """One command line of a timed round: its output file, the operations it
    attempts, and the check of that output."""

    argv: list[str]
    output: str
    operations: int
    check: Callable[[str], dict[str, str]]


def _scaled(n: int, scale: float) -> int:
    return max(1, round(n * scale))


def _sample(records: list[dict], k: int, rng: random.Random) -> list[dict]:
    return rng.sample(records, min(k, len(records)))


def _generate(cli, path: str, seed: int, sequences: int, counts, scale: float,
              planted: str | None = None) -> None:
    argv = ["generate", "--kind", "plant", "--seed", str(seed),
            "--num-sequences", str(_scaled(sequences, scale)),
            "--plant-counts", ",".join(str(_scaled(c, scale)) for c in counts),
            "--out", path]
    if planted:
        argv += ["--episodes-out", planted]
    _run(cli, argv)


def _run(cli, argv: list[str]) -> None:
    code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"set-up command {' '.join(argv)} exited with {code}")


def _rank_argv(corpus: str, episode_files: list[str], report: str, exact: bool = False):
    argv = ["rank", "--data", corpus]
    for path in episode_files:
        argv += ["--episodes", path]
    return argv + (["--exact"] if exact else []) + [
        "--threads", "1", "--no-timestamp", "--out", report]


def mine_10k(cli, work: str, seed: int, scale: float) -> list[Call]:
    corpus = os.path.join(work, "corpus.txt")
    _generate(cli, corpus, seed, DEFAULT_SEQUENCES, DEFAULT_COUNTS, scale)
    mined = os.path.join(work, "mined.jsonl")
    argv = ["mine", "--data", corpus, "--min-support", "10", "--max-len", "3",
            "--max-size", "2", "--out", mined]
    return [Call(argv, mined, 1, lambda text: checks.check_mine(
        checks.read_corpus(corpus), text, min_support=10, sample_seed=seed))]


def bulk_call(cli, work: str, seed: int, scale: float) -> Call:
    """``rank`` over every mined singleton and a sample of mined serial pairs
    of the 10 000-sequence corpus."""
    work = os.path.join(work, "bulk")
    os.makedirs(work, exist_ok=True)
    corpus = os.path.join(work, "corpus.txt")
    _generate(cli, corpus, seed, DEFAULT_SEQUENCES, DEFAULT_COUNTS, scale)
    mined = os.path.join(work, "mined.jsonl")
    _run(cli, ["mine", "--data", corpus, "--min-support", "10", "--max-len", "2",
               "--max-size", "0", "--out", mined])
    # every singleton and a fixed number of serial pairs: how many pairs reach
    # the minimum support differs by a tenth between seeds, and so would the work
    records = checks.read_episodes(mined)
    pairs = [rec for rec in records if len(rec["labels"]) == 2]
    records = [rec for rec in records if len(rec["labels"]) == 1] + _sample(
        pairs, _scaled(BULK_PAIRS, scale), random.Random(seed))
    cands = os.path.join(work, "candidates.jsonl")
    checks.write_episodes(records, cands)
    report = os.path.join(work, "report.tsv")
    return Call(_rank_argv(corpus, [cands], report), report, len(records),
                lambda text: checks.check_bulk(checks.read_corpus(corpus), records, text))


def exact_call(cli, work: str, seed: int, scale: float) -> Call:
    """``rank --exact`` over the planted episodes and a sample of mined ones
    of the README flow's 2 000-sequence corpus."""
    work = os.path.join(work, "exact")
    os.makedirs(work, exist_ok=True)
    corpus = os.path.join(work, "corpus.txt")
    planted_path = os.path.join(work, "planted.jsonl")
    _generate(cli, corpus, seed, EXACT_SEQUENCES, EXACT_COUNTS, scale, planted=planted_path)
    mined = os.path.join(work, "mined.jsonl")
    _run(cli, ["mine", "--data", corpus, "--min-support", "6", "--max-len", "4",
               "--max-size", "2", "--merge-intersections", "--out", mined])
    planted = checks.read_episodes(planted_path)
    planted_ids = {rec["id"] for rec in planted}
    pool = [rec for rec in checks.read_episodes(mined) if rec["id"] not in planted_ids]
    rng, k = random.Random(seed), _scaled(EXACT_SAMPLE, scale)
    sample = (_sample([rec for rec in pool if len(rec["labels"]) == 1], k, rng)
              + _sample([rec for rec in pool if len(rec["labels"]) > 1], k, rng))
    sample_path = os.path.join(work, "sample.jsonl")
    checks.write_episodes(sample, sample_path)
    report = os.path.join(work, "report.tsv")
    return Call(_rank_argv(corpus, [planted_path, sample_path], report, exact=True),
                report, len(planted) + len(sample),
                lambda text: checks.check_exact(checks.read_corpus(corpus), planted + sample,
                                                text, sample_seed=seed))


def rank(cli, work: str, seed: int, scale: float) -> list[Call]:
    return [bulk_call(cli, work, seed, scale), exact_call(cli, work, seed, scale)]


WORKLOADS = {
    "mine_10k": mine_10k,
    "rank": rank,
}
