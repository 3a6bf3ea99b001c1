"""The benchmark's correctness checks pass on the program's real output and
fail on deliberately corrupted copies of it.

Run from the root of a source checkout: ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import checks  # noqa: E402
from episoderank import cli  # noqa: E402


def _cli(*argv: str) -> None:
    assert cli.main(list(argv)) == 0


def _corpus(tmp_path, sequences: int, counts: str, seed: int = 3) -> tuple[str, str]:
    corpus, planted = str(tmp_path / "corpus.txt"), str(tmp_path / "planted.jsonl")
    _cli("generate", "--kind", "plant", "--seed", str(seed), "--num-sequences",
         str(sequences), "--plant-counts", counts, "--out", corpus, "--episodes-out", planted)
    return corpus, planted


def _rank(corpus: str, files: list[str], out: str, *extra: str) -> str:
    argv = ["rank", "--data", corpus]
    for path in files:
        argv += ["--episodes", path]
    _cli(*argv, *extra, "--threads", "1", "--no-timestamp", "--out", out)
    with open(out, encoding="utf-8") as fh:
        return fh.read()


def _edit_row(report: str, eid: str, column: str, change) -> str:
    """The report with one cell of one row replaced by ``change(old_text)``."""
    lines = report.splitlines()
    header = next(line for line in lines if not line.startswith("#")).split("\t")
    col = header.index(column)
    for i, line in enumerate(lines):
        cells = line.split("\t")
        if cells[0] == eid and not line.startswith("#"):
            cells[col] = change(cells[col])
            lines[i] = "\t".join(cells)
            return "\n".join(lines) + "\n"
    raise KeyError(eid)


def _drop_row(report: str, eid: str) -> str:
    return "".join(line + "\n" for line in report.splitlines()
                   if line.split("\t")[0] != eid)


def _nudge(text: str) -> str:
    return repr(float(text) * (1 + 1e-6))


def _rows(report: str) -> dict[str, dict]:
    return {row["id"]: row for row in checks.parse_report(report)[0]}


# --- oracles -----------------------------------------------------------------------

def test_embeds_respects_order_and_injectivity():
    assert checks.embeds(["a", "b"], [[0, 1]], list("xaxb"))
    assert not checks.embeds(["a", "b"], [[0, 1]], list("bxa"))
    assert checks.embeds(["a", "b"], [], list("bxa"))
    assert not checks.embeds(["a", "a"], [[0, 1]], list("xa"))
    assert checks.embeds(["a", "a"], [[0, 1]], list("aa"))
    diamond = (["k", "l", "m", "n"], [[0, 2], [0, 3], [2, 1], [3, 1]])
    assert checks.embeds(*diamond, list("knml"))
    assert not checks.embeds(*diamond, list("nkml"))


def test_log_tail_by_class_matches_enumeration():
    cover, counts = {2: 0.3, 5: 0.05}, {2: 3, 5: 2}
    probs = [cover[k] for k in counts for _ in range(counts[k])]
    for n in range(0, 7):
        total = 0.0
        for bits in itertools.product((0, 1), repeat=len(probs)):
            if sum(bits) >= n:
                total += math.prod(p if b else 1 - p for p, b in zip(probs, bits))
        expected = math.log(total) if total > 0 else -math.inf
        assert checks.log_tail_by_class(cover, counts, n) == pytest.approx(expected, rel=1e-12)


def test_log_tail_by_class_keeps_tiny_tails():
    # P(Binomial(40, 1e-6) >= 40) = 1e-240, far below what linear space holds
    got = checks.log_tail_by_class({10: 1e-6}, {10: 40}, 40)
    assert got == pytest.approx(40 * math.log(1e-6), rel=1e-12)


def test_independence_cover_matches_enumeration():
    shares = {"a": 0.2, "b": 0.3, "c": 0.5}
    episodes = [(["a", "b"], [[0, 1]]), (["a", "b"], []), (["a", "a", "b"], [[0, 1], [1, 2]])]
    for labels, edges in episodes:
        got = checks.independence_cover(labels, edges, shares, [1, 2, 4])
        for k in (1, 2, 4):
            expected = sum(math.prod(shares[t] for t in seq)
                           for seq in itertools.product("abc", repeat=k)
                           if checks.embeds(labels, edges, list(seq)))
            assert got[k] == pytest.approx(expected, rel=1e-12, abs=1e-15)


def test_serial_pair_supports_counts_sequences_not_occurrences():
    corpus = [list("abab"), list("ba"), list("aab")]
    assert checks.serial_pair_supports(corpus, 1) == {
        ("a", "b"): 2, ("a", "a"): 2, ("b", "a"): 2, ("b", "b"): 1}
    assert checks.serial_pair_supports(corpus, 2) == {
        ("a", "b"): 2, ("a", "a"): 2, ("b", "a"): 2}


# --- mine_10k ------------------------------------------------------------------------

@pytest.fixture(scope="module")
def mined(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("mine")
    corpus, _ = _corpus(tmp, 1000, "40,8,6")
    out = str(tmp / "mined.jsonl")
    _cli("mine", "--data", corpus, "--min-support", "4", "--out", out)
    with open(out, encoding="utf-8") as fh:
        return checks.read_corpus(corpus), fh.read()


def _mine_check(corpus, text):
    return checks.check_mine(corpus, text, min_support=4, sample_seed=5, sample_size=10**6)


def _records(text: str) -> list[dict]:
    return [json.loads(line) for line in text.splitlines()]


def _lines(records: list[dict]) -> str:
    return "".join(json.dumps(rec) + "\n" for rec in records)


def test_mine_check_passes_on_real_output(mined):
    assert _mine_check(*mined) == {}


def test_mine_check_catches_support_off_by_one(mined):
    corpus, text = mined
    records = _records(text)
    pair = next(r for r in records if len(r["labels"]) == 2 and r["edges"])
    pair["support"] += 1
    assert checks.MINE_OP in _mine_check(corpus, _lines(records))
    parallel = next(r for r in records if len(r["labels"]) == 2 and not r["edges"])
    records = _records(text)
    next(r for r in records if r["id"] == parallel["id"])["support"] -= 1
    assert checks.MINE_OP in _mine_check(corpus, _lines(records))


def test_mine_check_catches_dropped_frequent_pair(mined):
    corpus, text = mined
    records = _records(text)
    drop = next(i for i, r in enumerate(records) if len(r["labels"]) == 2 and r["edges"])
    del records[drop]
    assert checks.MINE_OP in checks.check_mine(corpus, _lines(records), 4, 5, sample_size=0)


# --- rank: the bulk call -------------------------------------------------------------

@pytest.fixture(scope="module")
def bulk(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("bulk")
    corpus, _ = _corpus(tmp, 800, "40,8,6")
    cands = str(tmp / "cands.jsonl")
    _cli("mine", "--data", corpus, "--min-support", "4", "--max-len", "2", "--max-size", "0",
         "--out", cands)
    report = _rank(corpus, [cands], str(tmp / "report.tsv"))
    return checks.read_corpus(corpus), checks.read_episodes(cands), report


def _first(records, size: int) -> str:
    return next(r["id"] for r in records if len(r["labels"]) == size)


def test_bulk_check_passes_on_real_output(bulk):
    assert checks.check_bulk(*bulk) == {}


@pytest.mark.parametrize("size", [1, 2])
def test_bulk_check_catches_support_off_by_one(bulk, size):
    corpus, records, report = bulk
    eid = _first(records, size)
    bad = _edit_row(report, eid, "support", lambda s: str(int(s) + 1))
    assert eid in checks.check_bulk(corpus, records, bad)


def test_bulk_check_catches_mu_off_by_a_millionth(bulk):
    corpus, records, report = bulk
    eid = _first(records, 1)
    bad = _edit_row(report, eid, "mu_ind", _nudge)
    assert eid in checks.check_bulk(corpus, records, bad)


def test_bulk_check_catches_missing_and_skipped_rows(bulk):
    corpus, records, report = bulk
    eid = _first(records, 2)
    assert eid in checks.check_bulk(corpus, records, _drop_row(report, eid))
    skipped = _drop_row(report, eid) + f"# skipped {eid}: too large\n"
    assert "skipped" in checks.check_bulk(corpus, records, skipped)[eid]


# --- rank: the exact call ------------------------------------------------------------

@pytest.fixture(scope="module")
def exact(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("exact")
    corpus, planted_path = _corpus(tmp, 400, "20,8,6")
    mined_path = str(tmp / "mined.jsonl")
    _cli("mine", "--data", corpus, "--min-support", "4", "--max-len", "3", "--max-size", "2",
         "--merge-intersections", "--out", mined_path)
    planted = checks.read_episodes(planted_path)
    ids = {p["id"] for p in planted}
    mined = [r for r in checks.read_episodes(mined_path) if r["id"] not in ids]
    report = _rank(corpus, [planted_path, mined_path], str(tmp / "report.tsv"), "--exact")
    return checks.read_corpus(corpus), planted + mined, report


def _exact_check(corpus, records, report):
    return checks.check_exact(corpus, records, report, sample_seed=5, sample_size=10**6)


def test_exact_check_passes_on_real_output(exact):
    assert _exact_check(*exact) == {}


@pytest.mark.parametrize("size", [1, 2, 4])
def test_exact_check_catches_rank_off_by_a_millionth(exact, size):
    corpus, records, report = exact
    eid = next(r["id"] for r in records if len(r["labels"]) == size
               and _rows(report)[r["id"]]["rank_ind"] > 0)
    assert eid in _exact_check(corpus, records, _edit_row(report, eid, "rank_ind", _nudge))


def test_exact_check_catches_approximate_tail(exact):
    corpus, records, report = exact
    eid = records[-1]["id"]
    bad = _edit_row(report, eid, "method", lambda s: "normal")
    assert eid in _exact_check(corpus, records, bad)

