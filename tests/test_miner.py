import json

import numpy as np
import pytest

from episoderank import miner
from episoderank.datagen import default_config, generate
from episoderank.episodes import episode_line, make_episode, parallel, serial, strictify
from episoderank.machine import build_machine, support
from episoderank.miner import (
    CandidateSet,
    merge_serial_intersections,
    mine_parallel,
    mine_serial,
)

from conftest import dataset_from_strings, random_strict_episode
from oracles import (
    brute_force_covers,
    count_supports,
    dataset_from_rows,
    dfs_mine_parallel,
    dfs_mine_serial,
    induced,
    symbol_rows,
)


def by_episode(candidates) -> dict:
    return {(c.episode.labels, c.episode.edges): c for c in candidates}


def candidate_set(mined) -> CandidateSet:
    out = CandidateSet()
    for cand in mined:
        out.add(cand.eid, cand.episode, cand.support)
    return out


class TestMineSerial:
    def test_hand_example(self):
        ds = dataset_from_strings(["abc", "abc", "axc"])
        mined = by_episode(mine_serial(ds, min_support=2, max_len=3))
        abc = serial("abc")
        ac = serial("ac")
        assert mined[(abc.labels, abc.edges)].support == 2
        assert mined[(ac.labels, ac.edges)].support == 3
        assert all(c.support >= 2 for c in mined.values())

    def test_threshold_above_dataset(self):
        ds = dataset_from_strings(["abc"])
        assert len(mine_serial(ds, min_support=2, max_len=3)) == 0

    def test_supports_match_machine_coverage(self):
        rng = np.random.default_rng(1)
        rows = ["".join(rng.choice(list("abc"), size=7)) for _ in range(25)]
        ds = dataset_from_strings(rows)
        for cand in mine_serial(ds, min_support=3, max_len=3):
            assert cand.support == support(build_machine(cand.episode), ds)

    def test_anti_monotone(self):
        rng = np.random.default_rng(2)
        rows = ["".join(rng.choice(list("abcd"), size=6)) for _ in range(30)]
        ds = dataset_from_strings(rows)
        mined = by_episode(mine_serial(ds, min_support=4, max_len=3))
        for cand in mined.values():
            ep = cand.episode
            for keep in range(1, ep.n):
                prefix = induced(ep, range(keep))
                assert support(build_machine(prefix), ds) >= 4

    def test_repeated_labels(self):
        ds = dataset_from_strings(["aa", "aba", "ab"])
        mined = by_episode(mine_serial(ds, min_support=2, max_len=2))
        aa = serial("aa")
        assert mined[(aa.labels, aa.edges)].support == 2

    def test_contains_planted_pattern(self):
        config = default_config("plant", seed=101, num_sequences=2000, counts=(40, 8, 6))
        ds = generate(config)
        mined = by_episode(mine_serial(ds, min_support=10, max_len=4))
        planted = serial("abcd")
        assert (planted.labels, planted.edges) in mined
        assert mined[(planted.labels, planted.edges)].support >= 40


class TestMineParallel:
    def test_order_free_pair(self):
        ds = dataset_from_strings(["ab", "ba"])
        mined = by_episode(mine_parallel(ds, min_support=2, max_size=2))
        pair = parallel("ab")
        assert mined[(pair.labels, pair.edges)].support == 2
        serial_mined = by_episode(mine_serial(ds, min_support=1, max_len=2))
        ab = serial("ab")
        assert serial_mined[(ab.labels, ab.edges)].support == 1

    def test_multiset_with_repeats(self):
        ds = dataset_from_strings(["aa", "aba", "ab"])
        mined = by_episode(mine_parallel(ds, min_support=2, max_size=2))
        chained = strictify(parallel("aa"))
        assert mined[(chained.labels, chained.edges)].support == 2
        for cand in mined.values():
            assert cand.support == support(build_machine(cand.episode), ds)
            assert cand.support == sum(
                brute_force_covers(cand.episode, seq) for seq in symbol_rows(ds))

    def test_singletons(self):
        ds = dataset_from_strings(["abc", "b"])
        mined = mine_parallel(ds, min_support=1, max_size=1)
        assert sorted(c.episode.labels[0] for c in mined) == ["a", "b", "c"]


def _assert_matches_oracle(ds, min_support: int, cap: int) -> None:
    """Same candidates as the oracle, in order; ``len`` (perfbench's
    ``miner.candidates``) counts them, and a second pass yields them again."""
    for mine, oracle in ((mine_serial, dfs_mine_serial), (mine_parallel, dfs_mine_parallel)):
        result = mine(ds, min_support, cap)
        mined = [(c.eid, c.episode, c.support) for c in result]
        assert mined == [(c.eid, c.episode, c.support) for c in oracle(ds, min_support, cap)]
        assert len(result) == len(mined)
        assert [(c.eid, c.episode, c.support) for c in result] == mined


def _oracle_corpus(rng: np.random.Generator) -> list[str]:
    """Rows over symbols interned out of sort order ("z" first), each label at
    most three times a row, some rows empty, often one row much longer."""
    alphabet = "zyxwvu"[:int(rng.integers(1, 7))]
    rows = [alphabet]  # interning order: z, y, x, ... (the reverse of sort order)
    for _ in range(int(rng.integers(0, 14))):
        counts = rng.integers(0, 4, size=len(alphabet)) * (rng.random(len(alphabet)) < 0.6)
        row = list(np.repeat(list(alphabet), counts))
        rng.shuffle(row)
        rows.append("".join(row))
    if rng.random() < 0.5:
        rows.append("".join(rng.choice(list(alphabet), size=int(rng.integers(40, 120)))))
    return rows


def _repeat_corpus(rng: np.random.Generator) -> list[str]:
    """Rows in which every label repeats many times: periodic rows such as
    abab..., rows of runs such as aabbbcaabbbc... and long random rows over two
    or three labels. A match's child label then occurs several times after it,
    so its leftmost match lies well before the label's last occurrence."""
    alphabet = list("zyx"[:int(rng.integers(2, 4))])
    rows = []
    for _ in range(int(rng.integers(2, 7))):
        kind = int(rng.integers(3))
        if kind == 0:
            rows.append("".join(rng.permutation(alphabet)) * int(rng.integers(4, 40)))
        elif kind == 1:
            runs = "".join(c * int(rng.integers(1, 5)) for c in rng.permutation(alphabet))
            rows.append(runs * int(rng.integers(2, 12)))
        else:
            rows.append("".join(rng.choice(alphabet, size=int(rng.integers(40, 160)))))
    return rows


class TestMinersAgainstOracle:
    """The level-wise miners return the depth-first oracle's candidates, in order."""

    @pytest.mark.parametrize("batch", [1, miner.BATCH_EVENTS])
    def test_random_corpora(self, batch, monkeypatch):
        monkeypatch.setattr(miner, "BATCH_EVENTS", batch)  # 1: one node per batch
        monkeypatch.setattr(miner, "CHUNK", batch)  # 1: one tuple per chunk
        rng = np.random.default_rng(20240607)
        for _ in range(40):
            ds = dataset_from_strings(_oracle_corpus(rng))
            min_support = int(rng.integers(1, 4))
            for cap in range(5):
                _assert_matches_oracle(ds, min_support, cap)

    @pytest.mark.parametrize("batch", [1, miner.BATCH_EVENTS])
    def test_heavily_repeated_labels(self, batch, monkeypatch):
        monkeypatch.setattr(miner, "BATCH_EVENTS", batch)
        rng = np.random.default_rng(11)
        for _ in range(12):
            ds = dataset_from_strings(_repeat_corpus(rng))
            for min_support in (1, 2, 3):
                for cap in range(5):
                    _assert_matches_oracle(ds, min_support, cap)

    def test_projection_is_one_event_per_distinct_later_label(self, monkeypatch):
        # a few long rows over three labels: every match is followed by dozens
        # of runs of equal labels, but by at most three distinct labels
        batches = miner._batches
        levels = []

        def recorded_batches(node, weights, cells):
            levels.append((len(node), int(weights.sum()), cells))
            return batches(node, weights, cells)

        monkeypatch.setattr(miner, "_batches", recorded_batches)
        rng = np.random.default_rng(3)
        ds = dataset_from_strings(["".join(rng.choice(list("abc"), size=200))
                                   for _ in range(4)])
        _assert_matches_oracle(ds, 2, 4)
        assert len(levels) == 6  # levels 2 to 4 of both searches
        for entries, weight, labels in levels:
            assert labels == 3 and weight <= entries * labels

    def test_batches_bound_count_cells(self, monkeypatch):
        # with about 40 frequent labels, a few nodes' count cells outweigh
        # their projected events, so the cells alone cut some levels
        monkeypatch.setattr(miner, "BATCH_EVENTS", 256)
        batches, groups = miner._batches, miner._frequent_groups
        cuts, spans = [], []

        def recorded_batches(node, weights, cells):
            level = []
            cuts.append((int(weights.sum()), cells, level))
            for a, b in batches(node, weights, cells):
                level.append(len(np.unique(node[a:b])))
                yield a, b

        def recorded_groups(key, min_support, members):
            spans.append(int(key.max()) + 1 if len(key) else 0)
            return groups(key, min_support, members)

        monkeypatch.setattr(miner, "_batches", recorded_batches)
        monkeypatch.setattr(miner, "_frequent_groups", recorded_groups)
        rng = np.random.default_rng(7)
        symbols = [chr(ord("A") + i) for i in range(40)]
        for _ in range(3):
            rows = ["".join(rng.choice(symbols, size=int(rng.integers(3, 9))))
                    for _ in range(40)]
            ds = dataset_from_strings(rows)
            for min_support in (2, 3):
                _assert_matches_oracle(ds, min_support, 3)
        nodes = [(n, cells) for _, cells, level in cuts for n in level]
        assert len(nodes) == len(spans)
        for (n, cells), span in zip(nodes, spans):
            assert span <= n * cells
            assert n == 1 or n * cells <= miner.BATCH_EVENTS
        assert any(cells >= 30 and events <= miner.BATCH_EVENTS and len(level) > 1
                   for events, cells, level in cuts)

    @pytest.mark.parametrize("rows", [[], [""], ["", "", ""], ["", "ba", ""]])
    def test_empty_corpora_and_rows(self, rows):
        ds = dataset_from_strings(rows)
        for min_support in (1, 2):
            for cap in range(4):
                _assert_matches_oracle(ds, min_support, cap)

    def test_index_arrays_as_int64_give_the_same_levels(self, monkeypatch):
        rng = np.random.default_rng(20240607)
        corpora = [dataset_from_strings(_oracle_corpus(rng)) for _ in range(40)]
        for multisets in (False, True):
            narrow = [miner._search(ds, 2, 4, multisets) for ds in corpora]
            assert miner._frequent_events(corpora[0], 2, multisets)[1].dtype == np.int32
            with monkeypatch.context() as patched:
                patched.setattr(miner, "_index_dtype", lambda count: np.int64)
                assert miner._frequent_events(corpora[0], 2, multisets)[1].dtype == np.int64
                wide = [miner._search(ds, 2, 4, multisets) for ds in corpora]
            for (symbols, levels), (wide_symbols, wide_levels) in zip(narrow, wide):
                assert symbols == wide_symbols and len(levels) == len(wide_levels)
                for level, wide_level in zip(levels, wide_levels):
                    for a, b in zip(level, wide_level):
                        assert a.dtype == b.dtype == np.int64 and np.array_equal(a, b)

    def test_min_support_below_one_rejected(self):
        ds = dataset_from_strings(["ab"])
        for mine in (mine_serial, mine_parallel):
            with pytest.raises(ValueError):
                mine(ds, 0, 2)


def test_occurrences_sort_wide_labels_the_same_way():
    rng = np.random.default_rng(5)
    seq = np.sort(rng.integers(0, 6, size=300)).astype(np.int32)
    label = rng.integers(0, 9, size=300).astype(np.int32)
    narrow = miner._occurrences(seq, label, 9)  # sorted as 8-bit integers
    wide = miner._occurrences(seq, label, 1 << 16)  # as 32-bit integers
    for a, b in zip(narrow, wide):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    by_label, first, last = narrow
    assert np.array_equal(by_label, np.lexsort((np.arange(300), label)))
    keys = list(zip(seq.tolist(), label.tolist()))
    assert first.tolist() == [keys.index(k) == i for i, k in enumerate(keys)]
    assert last.tolist() == [k not in keys[i + 1:] for i, k in enumerate(keys)]


def test_lines_escape_symbols_as_episode_files_do():
    # symbols holding a format character, quotes, a backslash and non-ASCII text
    odd = ["50%", 'say "%s"', "\\d", "caf\u00e9", "\u6f22"]
    rows = [odd, odd[::-1], odd[2:] + odd[:2], odd + odd[:2], ["50%", "50%", "\u6f22"]]
    ds = dataset_from_rows(rows)
    for mine in (mine_serial, mine_parallel):
        result = mine(ds, 2, 3)
        lines = b"".join(result.blocks()).decode("ascii").splitlines(keepends=True)
        assert lines == [episode_line(c.eid, c.episode, c.support) for c in result]
        assert len(lines) > 20 and all(line.isascii() for line in lines)
        assert {tuple(json.loads(line)["labels"]) for line in lines} >= {("50%", "50%")}


def test_lines_of_an_empty_symbol_as_episode_files_do():
    # the empty label's text is the empty piece that pads shorter tuples
    ds = dataset_from_rows([["", "a", ""], ["a", "", ""], ["", "", "a"]])
    for mine in (mine_serial, mine_parallel):
        result = mine(ds, 2, 3)
        lines = b"".join(result.blocks()).decode("ascii").splitlines(keepends=True)
        assert lines == [episode_line(c.eid, c.episode, c.support) for c in result]
        assert {tuple(json.loads(line)["labels"]) for line in lines} >= {("", ""), ("", "a")}


def test_tuples_longer_than_the_symbol_count_holds():
    # one symbol gives 8-bit label numbers; tuple sizes pass 127 all the same
    ds = dataset_from_rows([["a"] * 130] * 2)
    for mine in (mine_serial, mine_parallel):
        result = mine(ds, 2, 130)
        candidates = list(result)
        assert [len(c.episode.labels) for c in candidates] == list(range(1, 131))
        expected = [episode_line(c.eid, c.episode, c.support) for c in candidates]
        assert b"".join(result.blocks()).decode("ascii") == "".join(expected)
        # a serial search capped at 129 finds all but the 130-label multiset
        assert b"".join(result.blocks(129)).decode("ascii") == expected[-1]


@pytest.mark.parametrize("chunk", [1, 3])
def test_blocks_hold_at_most_chunk_lines(chunk, monkeypatch):
    ds = dataset_from_strings(["abcab", "bacd", "abcd", "dcba", "aabbd"])
    cases = [(mine_serial(ds, 2, 4), 0), (mine_parallel(ds, 2, 3), 0),
             (mine_parallel(ds, 2, 3), 2)]  # the last skips the one-label multisets
    whole = [b"".join(result.blocks(skip)) for result, skip in cases]
    monkeypatch.setattr(miner, "CHUNK", chunk)
    for (result, skip), expected in zip(cases, whole):
        blocks = list(result.blocks(skip))
        assert len(blocks) > 1 and all(0 < block.count(b"\n") <= chunk for block in blocks)
        assert b"".join(blocks) == expected


def test_index_dtype_holds_every_event_position():
    assert miner._index_dtype(0) is np.int32
    assert miner._index_dtype(2**31 - 1) is np.int32
    assert miner._index_dtype(2**31) is np.int64


class TestMergeIntersections:
    def test_two_linearizations_give_diamond(self):
        rows = ["knml", "kmnl"] * 3
        ds = dataset_from_strings(rows)
        candidates = candidate_set(mine_serial(ds, min_support=3, max_len=4))
        additions = merge_serial_intersections(candidates, ds, min_support=3)
        diamond = make_episode(["k", "n", "m", "l"], [(0, 1), (0, 2), (1, 3), (2, 3)])
        assert any(c.episode == diamond for c in additions)
        target = next(c for c in additions if c.episode == diamond)
        assert target.support == 6
        assert diamond in candidates  # appended

    def test_opposite_orders_intersect_to_parallel(self):
        ds = dataset_from_strings(["ab", "ba", "ab", "ba"])
        candidates = candidate_set(mine_serial(ds, min_support=2, max_len=2))
        additions = merge_serial_intersections(candidates, ds, min_support=2)
        assert any(c.episode == parallel("ab") for c in additions)

    def test_unique_multiset_no_additions(self):
        ds = dataset_from_strings(["abc"] * 3)
        candidates = mine_serial(ds, min_support=3, max_len=3)
        # drop everything except the single full-length serial episode
        only = CandidateSet()
        only.add("x", serial("abc"))
        assert merge_serial_intersections(only, ds, min_support=1) == []


class TestCandidateSet:
    def test_dedup_keeps_first(self):
        cs = CandidateSet()
        assert cs.add("first", serial("ab"))
        assert not cs.add("second", serial("ab"))
        assert len(cs) == 1 and cs.items[0].eid == "first"

    def test_superepisode_lookup(self):
        cs = CandidateSet()
        cs.add("par", parallel("ab"))
        cs.add("ser", serial("ab"))
        cs.add("other", serial("ac"))
        found = cs.superepisodes_of(parallel("ab"))
        assert [c.eid for c in found] == ["ser"]
        assert cs.superepisodes_of(serial("ab")) == []

    def test_mining_is_deterministic(self):
        rng = np.random.default_rng(3)
        rows = ["".join(rng.choice(list("abcd"), size=6)) for _ in range(40)]
        ds = dataset_from_strings(rows)
        run1 = [(c.eid, c.episode, c.support) for c in mine_serial(ds, 3, 3)]
        run2 = [(c.eid, c.episode, c.support) for c in mine_serial(ds, 3, 3)]
        assert run1 == run2


class TestCountSupports:
    def test_deterministic_and_matches_oracle(self):
        rng = np.random.default_rng(4)
        rows = ["".join(rng.choice(list("ab"), size=6)) for _ in range(15)]
        ds = dataset_from_strings(rows)
        eps = [(f"e{i}", random_strict_episode(rng, "ab", 3)) for i in range(50)]
        supports, errors = count_supports(eps, ds)
        assert not errors
        again, _ = count_supports(eps, ds)
        assert supports == again
        for eid, ep in eps:
            brute = sum(brute_force_covers(ep, seq) for seq in symbol_rows(ds))
            assert supports[eid] == brute

    def test_size_cap_reported_per_episode(self):
        ds = dataset_from_strings(["ab"])
        big = parallel([f"x{i}" for i in range(17)])
        supports, errors = count_supports([("ok", serial("ab")), ("big", big)], ds)
        assert supports == {"ok": 1} and "big" in errors
