import argparse
import itertools
import json
import os
import sys
import threading

import numpy as np
import pytest

from episoderank import cli, miner
from episoderank.cli import main
from episoderank.datagen import load_sequences
from episoderank.episodes import (
    episode_line,
    load_episodes,
    save_episodes,
    serial,
    parallel,
    vertex_set_label,
)
from episoderank.machine import block_prefix, build_machine
from episoderank.miner import CandidateSet, merge_serial_intersections

from oracles import dfs_mine_parallel, dfs_mine_serial, reduction_by_search


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A small generated corpus plus a candidate file, built once via the CLI."""
    root = tmp_path_factory.mktemp("cli")
    corpus = root / "corpus.txt"
    rc = main(["generate", "--kind", "plant", "--seed", "11",
               "--num-sequences", "400", "--plant-counts", "30,8,4",
               "--out", str(corpus), "--episodes-out", str(root / "planted.jsonl")])
    assert rc == 0
    eps = root / "candidates.jsonl"
    save_episodes([
        ("planted4", serial("abcd")),
        ("pair-serial", serial("ab")),
        ("pair-parallel", parallel("ab")),
        ("noise", serial(["n001", "n002"])),
    ], str(eps))
    return root, corpus, eps


def _rank_args(corpus, eps, out, threads=1):
    return ["rank", "--data", str(corpus), "--episodes", str(eps),
            "--threads", str(threads), "--no-timestamp", "--out", str(out)]


class TestRankCommand:
    def test_produces_sorted_report(self, workspace):
        root, corpus, eps = workspace
        out = root / "report.tsv"
        assert main(_rank_args(corpus, eps, out)) == 0
        lines = out.read_text().splitlines()
        header = [l for l in lines if l and not l.startswith("#")][0]
        assert header.split("\t")[:4] == ["id", "support", "mu_ind", "rank_ind"]
        data = [l for l in lines if l and not l.startswith("#")][1:]
        assert len(data) == 4
        assert data[0].split("\t")[0] == "planted4"

    def test_byte_identical_across_runs_and_threads(self, workspace):
        root, corpus, eps = workspace
        outs = []
        for name, threads in (("r1.tsv", 1), ("r2.tsv", 1), ("r4.tsv", 2)):
            out = root / name
            assert main(_rank_args(corpus, eps, out, threads=threads)) == 0
            outs.append(out.read_text())
        # thread count shows up in the echoed config line only
        def strip_config(text):
            return "\n".join(l for l in text.splitlines() if not l.startswith("#"))
        assert outs[0] == outs[1]
        assert strip_config(outs[0]) == strip_config(outs[2])

    def test_rerank_of_saved_corpus_is_identical(self, workspace, tmp_path):
        root, corpus, eps = workspace
        first = root / "report.tsv"
        again = tmp_path / "again.tsv"
        assert main(_rank_args(corpus, eps, again)) == 0
        if first.exists():
            def data_lines(p):
                return [l for l in p.read_text().splitlines() if not l.startswith("#")]
            assert data_lines(first) == data_lines(again)

    def test_empty_candidate_file(self, workspace, tmp_path):
        root, corpus, _ = workspace
        empty = tmp_path / "none.jsonl"
        empty.write_text("")
        out = tmp_path / "empty.tsv"
        assert main(_rank_args(corpus, empty, out)) == 0
        body = [l for l in out.read_text().splitlines() if l and not l.startswith("#")]
        assert len(body) == 1  # header only

    def test_exact_and_log10_flags(self, workspace, tmp_path):
        import math

        from episoderank.ranking import parse_report

        root, corpus, eps = workspace
        plain = tmp_path / "plain.tsv"
        assert main(_rank_args(corpus, eps, plain)) == 0
        exact = tmp_path / "exact.tsv"
        assert main(_rank_args(corpus, eps, exact) + ["--exact"]) == 0
        log10 = tmp_path / "log10.tsv"
        assert main(_rank_args(corpus, eps, log10) + ["--log10"]) == 0

        by_id = {r["id"]: r for r in parse_report(plain.read_text())}
        for row in parse_report(exact.read_text()):
            assert row["method"] == "exact"
            base = by_id[row["id"]]
            if base["rank_part"] > 1.0:  # approximations track the exact tail
                assert abs(row["rank_part"] - base["rank_part"]) / base["rank_part"] < 0.5
        for row in parse_report(log10.read_text()):
            base = by_id[row["id"]]
            if base["rank_part"] > 0:
                assert row["rank_part"] == pytest.approx(
                    base["rank_part"] / math.log(10), rel=1e-9)

    def test_zero_event_corpus_names_the_tail_asked_for(self, workspace, tmp_path):
        from episoderank.ranking import parse_report

        root, _, eps = workspace
        blank = tmp_path / "blank.txt"
        blank.write_text("\n\n")
        for flags, method in (([], "poisson"), (["--exact"], "exact")):
            out = tmp_path / "zero.tsv"
            assert main(_rank_args(blank, eps, out) + flags) == 0
            rows = parse_report(out.read_text())
            assert len(rows) == 4 and {row["method"] for row in rows} == {method}
            assert {row["rank_ind"] for row in rows} == {0.0}

    def test_mined_candidates(self, workspace, tmp_path):
        from episoderank.ranking import parse_report

        root, corpus, _ = workspace
        mined, out = tmp_path / "mined.jsonl", tmp_path / "mined.tsv"
        assert main(["mine", "--data", str(corpus), "--min-support", "8", "--max-len", "2",
                     "--max-size", "2", "--out", str(mined)]) == 0
        assert main(_rank_args(corpus, mined, out)) == 0
        ids = [json.loads(line)["id"] for line in mined.read_text().splitlines()]
        assert len(ids) > 1
        assert sorted(row["id"] for row in parse_report(out.read_text())) == sorted(ids)

    def test_header_names_no_mining_flag(self, workspace, tmp_path):
        root, corpus, eps = workspace
        plain = tmp_path / "plain.tsv"
        assert main(_rank_args(corpus, eps, plain)) == 0
        plain_header = plain.read_text().splitlines()[0]
        assert plain_header.startswith("# rank data=")
        assert "min-support" not in plain_header and "max-len" not in plain_header
        assert "max-size" not in plain_header

    def test_exact_report_does_not_depend_on_the_batch_bound(self, workspace, tmp_path,
                                                             monkeypatch):
        from episoderank import ranking

        root, corpus, eps = workspace
        mined = tmp_path / "mined.jsonl"
        assert main(["mine", "--data", str(corpus), "--min-support", "8", "--max-len", "3",
                     "--max-size", "2", "--out", str(mined)]) == 0
        flags = ["--exact", "--episodes", str(mined)]
        calls = []
        tail_exact = ranking.tail_exact
        monkeypatch.setattr(ranking, "tail_exact",
                            lambda *args: calls.append(1) or tail_exact(*args))
        reports, tail_calls = [], []
        for bound in (ranking.BATCH_CELLS, 1 << 10):
            monkeypatch.setattr(ranking, "BATCH_CELLS", bound)
            out = tmp_path / f"exact-{bound}.tsv"
            calls.clear()
            assert main(_rank_args(corpus, eps, out) + flags) == 0
            reports.append(out.read_text())
            tail_calls.append(len(calls))
        assert reports[0] == reports[1]
        # one tail call a batch: the small bound cuts more batches
        assert tail_calls[1] > tail_calls[0]

    @pytest.mark.parametrize("threads", [1, 2])
    def test_failed_fit_skips_only_that_episode(self, workspace, tmp_path, monkeypatch,
                                                threads):
        from episoderank import model, ranking

        root, corpus, eps = workspace
        good = tmp_path / "good.tsv"
        assert main(_rank_args(corpus, eps, good, threads=threads)) == 0
        original = ranking.fit

        def failing_for_pair(machine, spec, stats):
            if machine.episode == parallel("ab"):
                raise model.NumericalFitError("non-finite gradient during fitting")
            return original(machine, spec, stats)

        monkeypatch.setattr(ranking, "fit", failing_for_pair)
        out = tmp_path / "skipped.tsv"
        assert main(_rank_args(corpus, eps, out, threads=threads)) == 0
        lines = out.read_text().splitlines()
        assert lines[-1] == "# skipped pair-parallel: non-finite gradient during fitting"
        expected = [l for l in good.read_text().splitlines()
                    if not l.startswith("pair-parallel\t")]
        assert lines[:-1] == expected

    def test_failed_fit_aborts_explain(self, workspace, monkeypatch, capsys):
        from episoderank import model, ranking

        root, corpus, eps = workspace

        def failing(*args):
            raise model.NumericalFitError("non-finite gradient during fitting")

        monkeypatch.setattr(ranking, "fit", failing)
        assert main(["explain", "--data", str(corpus), "--episodes", str(eps),
                     "--id", "pair-parallel"]) == 3
        assert "non-finite gradient" in capsys.readouterr().err


class TestMineCommand:
    def test_writes_episode_file(self, workspace, tmp_path):
        root, corpus, _ = workspace
        out = tmp_path / "mined.jsonl"
        rc = main(["mine", "--data", str(corpus), "--min-support", "8",
                   "--max-len", "4", "--max-size", "2", "--out", str(out)])
        assert rc == 0
        rows = [json.loads(l) for l in out.read_text().splitlines()]
        assert rows and all({"id", "labels", "edges"} <= set(r) for r in rows)
        assert any(r["labels"] == ["a", "b", "c", "d"] for r in rows)


    def test_jsonl_matches_oracle_miners(self, workspace, tmp_path):
        root, corpus, _ = workspace
        out = tmp_path / "mined.jsonl"
        assert main(["mine", "--data", str(corpus), "--min-support", "6", "--max-len", "4",
                     "--max-size", "2", "--merge-intersections", "--out", str(out)]) == 0
        lines = _oracle_lines(load_sequences(str(corpus)), 6, 4, 2, merge=True)
        assert len(lines) > 100
        assert out.read_text() == "".join(lines)

    @pytest.mark.parametrize("merge", [False, True])
    @pytest.mark.parametrize("max_len,max_size", [(3, 2), (2, 3), (0, 2), (3, 0)])
    def test_printed_count_is_the_number_of_lines_written(self, tmp_path, capsys, max_len,
                                                          max_size, merge):
        # repeated-label multisets are skipped, merged additions written
        rows = ["abcab", "bacd", "abcd", "dcba", "aabbd", "abab", "baba", "cdcd"] * 2
        corpus, out = tmp_path / "corpus.txt", tmp_path / "mined.jsonl"
        corpus.write_text("".join(" ".join(row) + "\n" for row in rows))
        argv = ["mine", "--data", str(corpus), "--min-support", "4", "--max-len",
                str(max_len), "--max-size", str(max_size), "--out", str(out)]
        assert main(argv + ["--merge-intersections"] * merge) == 0
        written = out.read_bytes().count(b"\n")
        assert written > 0
        assert capsys.readouterr().out == f"mined {written} episodes to {out}\n"

    @pytest.mark.parametrize("rows,caps", [([], ("3", "2")), (["a b", "c d"], ("3", "2")),
                                           (["a b", "a b"], ("0", "0"))],
                             ids=["empty-corpus", "nothing-frequent", "both-caps-0"])
    def test_nothing_to_write_gives_an_empty_file(self, tmp_path, capsys, rows, caps):
        corpus, out = tmp_path / "corpus.txt", tmp_path / "mined.jsonl"
        corpus.write_text("".join(row + "\n" for row in rows))
        assert main(["mine", "--data", str(corpus), "--min-support", "2", "--max-len",
                     caps[0], "--max-size", caps[1], "--merge-intersections",
                     "--out", str(out)]) == 0
        assert out.read_bytes() == b""
        assert capsys.readouterr().out == f"mined 0 episodes to {out}\n"

    @pytest.mark.parametrize("merge", [False, True])
    @pytest.mark.parametrize("max_len,max_size", [(0, 2), (1, 2), (2, 3), (3, 3), (4, 2),
                                                  (3, 0)])
    def test_jsonl_matches_oracle_on_escaped_symbols(self, tmp_path, max_len, max_size, merge):
        """Byte-equal to the oracle's lines around the serial/multiset overlap
        (a multiset of one repeated label is also a serial episode), on symbols
        that JSON escapes, interned out of sort order."""
        symbols = ["\U0001d11e", "\u00e9", "z", "b", "\\", '"q"']  # reverse sort order
        for seed in (1, 2, 3):
            rng = np.random.default_rng(seed)
            rows = [symbols] + [list(rng.choice(symbols, size=int(rng.integers(1, 9))))
                                for _ in range(60)]
            corpus, out = tmp_path / f"corpus{seed}.txt", tmp_path / f"mined{seed}.jsonl"
            corpus.write_text("".join(" ".join(row) + "\n" for row in rows), encoding="utf-8")
            argv = ["mine", "--data", str(corpus), "--min-support", "4", "--max-len",
                    str(max_len), "--max-size", str(max_size), "--out", str(out)]
            assert main(argv + ["--merge-intersections"] * merge) == 0
            lines = _oracle_lines(load_sequences(str(corpus)), 4, max_len, max_size, merge)
            assert out.read_bytes() == "".join(lines).encode("ascii")


def _usable_cpus(monkeypatch, cpus: int) -> None:
    """Make the process look as if it may run on ``cpus`` CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)


class TestMineOverlap:
    """The multiset search may run on a second thread; only the timing changes."""

    @pytest.fixture(scope="class")
    def corpora(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("overlap")
        paths = []
        for seed in (1, 2, 3):
            path = root / f"corpus{seed}.txt"
            assert main(["generate", "--kind", "plant", "--seed", str(seed),
                         "--num-sequences", "300", "--plant-counts", "20,8,6",
                         "--out", str(path)]) == 0
            paths.append(path)
        return paths

    @staticmethod
    def _in_turn(dataset, min_support: int, max_len: int, max_size: int,
                 merge: bool) -> str:
        """``mine``'s lines from the two searches called one after the other."""
        mined = []
        if max_len:
            mined.append(miner.mine_serial(dataset, min_support, max_len))
        if max_size:
            mined.append(miner.mine_parallel(dataset, min_support, max_size))
        lines = [b"".join(result.blocks(0 if result.serial else max_len)).decode("ascii")
                 for result in mined]
        if merge:
            candidates = CandidateSet(itertools.chain.from_iterable(mined))
            lines += [episode_line(c.eid, c.episode, c.support) for c in
                      merge_serial_intersections(candidates, dataset, min_support)]
        return "".join(lines)

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("merge", [False, True])
    @pytest.mark.parametrize("max_len,max_size", [(3, 2), (4, 3), (0, 2), (3, 0)])
    def test_output_equals_the_searches_in_turn(self, corpora, tmp_path, monkeypatch,
                                                cpus, merge, max_len, max_size):
        _usable_cpus(monkeypatch, cpus)
        for corpus in corpora:
            out = tmp_path / "mined.jsonl"
            argv = ["mine", "--data", str(corpus), "--min-support", "3", "--max-len",
                    str(max_len), "--max-size", str(max_size), "--out", str(out)]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)  # the two searches hand the lock over often
            try:
                assert main(argv + ["--merge-intersections"] * merge) == 0
            finally:
                sys.setswitchinterval(interval)
            expected = self._in_turn(load_sequences(str(corpus)), 3, max_len, max_size, merge)
            assert expected and out.read_bytes() == expected.encode("ascii")

    @pytest.mark.parametrize("cpus,elsewhere", [(2, True), (1, False)])
    def test_multisets_run_on_a_worker_only_with_a_second_cpu(self, corpora, monkeypatch,
                                                              cpus, elsewhere):
        _usable_cpus(monkeypatch, cpus)
        threads = []
        mine_parallel = miner.mine_parallel

        def recorded(*args):
            threads.append(threading.get_ident())
            return mine_parallel(*args)

        monkeypatch.setattr(miner, "mine_parallel", recorded)
        args = argparse.Namespace(min_support=3, max_len=3, max_size=2)
        serial_result, multisets = cli._mine(args, load_sequences(str(corpora[0])))
        assert serial_result.serial and not multisets.serial and len(threads) == 1
        assert (threads[0] != threading.get_ident()) == elsewhere

    def test_worker_exception_surfaces_and_no_thread_outlives_the_call(self, corpora,
                                                                       monkeypatch):
        _usable_cpus(monkeypatch, 2)
        error = RuntimeError("multiset search failed")

        def failing(*args):
            raise error

        monkeypatch.setattr(miner, "mine_parallel", failing)
        dataset = load_sequences(str(corpora[0]))
        args = argparse.Namespace(min_support=3, max_len=3, max_size=2)
        before = threading.active_count()
        with pytest.raises(RuntimeError) as raised:
            cli._mine(args, dataset)
        assert raised.value is error
        assert threading.active_count() == before
        monkeypatch.undo()
        _usable_cpus(monkeypatch, 2)
        assert len(cli._mine(args, dataset)) == 2
        assert threading.active_count() == before


def _oracle_lines(dataset, min_support: int, max_len: int, max_size: int,
                  merge: bool) -> list[str]:
    """The episode-file lines of the depth-first miners' episodes, gathered in one
    CandidateSet, written with json.dumps."""
    expected = CandidateSet()
    for mined in (dfs_mine_serial(dataset, min_support, max_len),
                  dfs_mine_parallel(dataset, min_support, max_size)):
        for cand in mined:
            expected.add(cand.eid, cand.episode, cand.support)
    if merge:
        merge_serial_intersections(expected, dataset, min_support)
    lines = []
    for cand in expected:
        edges = sorted(reduction_by_search(cand.episode))
        assert cand.eid == "|".join(["-".join(cand.episode.labels)]
                                    + [f"{u}<{v}" for u, v in edges])
        lines.append(json.dumps({"id": cand.eid, "labels": list(cand.episode.labels),
                                 "edges": [list(e) for e in edges],
                                 "support": cand.support}) + "\n")
    return lines


class TestCompareCommand:
    def test_self_compare(self, workspace, tmp_path, capsys):
        root, corpus, eps = workspace
        report = root / "selfcmp.tsv"
        assert main(_rank_args(corpus, eps, report)) == 0
        assert main(["compare", str(report), str(report)]) == 0
        text = capsys.readouterr().out
        assert "tau_all\t1.000000" in text
        assert "top_rho" in text

    def test_strata_and_scores(self, workspace, tmp_path, capsys):
        root, corpus, eps = workspace
        report = root / "strata.tsv"
        assert main(_rank_args(corpus, eps, report)) == 0
        rc = main(["compare", str(report), str(report), "--score-a", "rank_ind",
                   "--episodes", str(eps)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "tau_parallel2" in text and "tau_large" in text

    def test_redundant_pair_dominates_rho(self, workspace, tmp_path, capsys):
        # the parallel pair explained by its serial form has a large
        # independence rank but a tiny partition rank
        root, corpus, eps = workspace
        report = root / "rho.tsv"
        assert main(_rank_args(corpus, eps, report)) == 0
        rc = main(["compare", str(report), str(report), "--score-a", "rank_ind"])
        assert rc == 0
        text = capsys.readouterr().out
        rho_block = text.split("top_rho")[1].split("top_eta")[0]
        first = rho_block.strip().splitlines()[1].split()[0]
        assert first == "pair-parallel"

    def test_ids_starting_with_hash_are_compared(self, tmp_path, capsys):
        # a mined label "#a" gives the ids "#a" and "#a-b|0<1", whose report
        # rows start like the comment lines
        corpus, mined, report = (tmp_path / name for name in ("c.txt", "m.jsonl", "r.tsv"))
        corpus.write_text("#a b c\n#a b d\n#a b e\n")
        assert main(["mine", "--data", str(corpus), "--min-support", "3", "--max-len", "2",
                     "--max-size", "0", "--out", str(mined)]) == 0
        assert main(_rank_args(corpus, mined, report)) == 0
        capsys.readouterr()
        assert main(["compare", str(report), str(report)]) == 0
        assert "ids\t3\n" in capsys.readouterr().out

    def test_disjoint_ids_error(self, workspace, tmp_path, capsys):
        root, corpus, eps = workspace
        report = root / "cmp1.tsv"
        assert main(_rank_args(corpus, eps, report)) == 0
        other = tmp_path / "other.tsv"
        text = report.read_text().replace("pair-serial", "renamed")
        other.write_text(text)
        assert main(["compare", str(report), str(other)]) == 2


class TestExplainCommand:
    def test_two_vertex_serial_notes_independence(self, workspace, tmp_path, capsys):
        root, corpus, eps = workspace
        rc = main(["explain", "--data", str(corpus), "--episodes", str(eps),
                   "--id", "noise"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "machine: 3 states" in text
        assert "equals the independence model" in text

    def test_dump_model_is_json(self, workspace, capsys):
        root, corpus, eps = workspace
        rc = main(["explain", "--data", str(corpus), "--episodes", str(eps),
                   "--id", "pair-parallel", "--dump-model"])
        assert rc == 0
        last = capsys.readouterr().out.strip().splitlines()[-1]
        params = json.loads(last)
        assert {"u", "t1", "t2"} <= set(params)

    def test_dump_model_without_events_is_empty(self, workspace, tmp_path, capsys):
        root, _, eps = workspace
        blank = tmp_path / "blank.txt"
        blank.write_text("\n\n")
        rc = main(["explain", "--data", str(blank), "--episodes", str(eps),
                   "--id", "pair-parallel", "--dump-model"])
        assert rc == 0
        assert capsys.readouterr().out.splitlines()[-1] == "{}"

    def test_corpus_without_events_notes_that_no_model_was_fitted(self, workspace, tmp_path,
                                                                    capsys):
        # on a corpus with events the prefix splits of a-b-c-d boost edges, so
        # the independence note would be false; here nothing is evaluated
        root, _, eps = workspace
        blank = tmp_path / "blank.txt"
        blank.write_text("\n\n")
        assert main(["explain", "--data", str(blank), "--episodes", str(eps),
                     "--id", "planted4"]) == 0
        text = capsys.readouterr().out
        assert "note: the corpus has no events, so no model was fitted" in text
        assert "equals the independence model" not in text
        assert "\nmodel " not in text

    def test_model_lines_carry_boosted_edge_sets(self, workspace, capsys):
        # the diamond: each prefix model boosts C1 = block_prefix(W) and
        # C2 = block_prefix(full ^ W), printed as the machine's edge numbers
        root, corpus, _ = workspace
        diamond = "k-l-m-n|0<2|0<3|2<1|3<1"
        assert main(["explain", "--data", str(corpus), "--episodes",
                     str(root / "planted.jsonl"), "--id", diamond]) == 0
        lines = capsys.readouterr().out.splitlines()
        edge_sets = {}
        for line in lines:
            if line.startswith("model "):
                explainer, fields = line[len("model "):].split(": ", 1)
                c1, c2 = fields.split()[-2:]
                edge_sets[explainer] = (c1, c2)

        ep = dict(load_episodes(str(root / "planted.jsonl")))[diamond]
        m = build_machine(ep)
        full = (1 << ep.n) - 1

        def numbers(edge_set):
            return ",".join(str(i) for i in sorted(edge_set)) or "-"

        expected = {"independence": ("c1=-", "c2=-")}
        for w in m.states[1:-1]:
            expected[f"prefix:{vertex_set_label(ep, w)}"] = (
                f"c1={numbers(block_prefix(m, w))}", f"c2={numbers(block_prefix(m, full ^ w))}")
        assert edge_sets == expected
        assert edge_sets["prefix:{k}"] == ("c1=-", "c2=3,4,5")
        assert not any(line.startswith("prefix graphs") for line in lines)

    @pytest.mark.parametrize("eid", ["a-b-c-d|0<1|1<2|2<3", "k-l-m-n|0<2|0<3|2<1|3<1"])
    def test_winner_is_the_rank_explainer(self, workspace, tmp_path, capsys, eid):
        root, corpus, eps = workspace
        files = ["--episodes", str(root / "planted.jsonl"), "--episodes", str(eps)]
        report = tmp_path / "report.tsv"
        assert main(["rank", "--data", str(corpus), *files, "--no-timestamp",
                     "--out", str(report)]) == 0
        row = next(l.split("\t") for l in report.read_text().splitlines()
                   if l.startswith(eid + "\t"))
        assert main(["explain", "--data", str(corpus), *files, "--id", eid]) == 0
        winner = next(l for l in capsys.readouterr().out.splitlines()
                      if l.startswith("winner "))
        assert winner[len("winner "):].rsplit(": rank_part=", 1)[0] == row[7]

    def test_repeated_episode_answers_to_every_id(self, workspace, tmp_path, capsys):
        root, corpus, _ = workspace
        twice = tmp_path / "twice.jsonl"
        save_episodes([("x", serial("ab")), ("y", serial("ab"))], str(twice))
        outputs = {}
        for eid in ("x", "y"):
            assert main(["explain", "--data", str(corpus), "--episodes", str(twice),
                         "--id", eid]) == 0
            outputs[eid] = capsys.readouterr().out.splitlines()
        assert outputs["y"][0] == "episode y: a-b|0<1"
        assert outputs["y"][1:] == outputs["x"][1:]

    def test_removed_flags_are_unrecognized(self, workspace, capsys):
        root, corpus, eps = workspace
        args = ["explain", "--data", str(corpus), "--episodes", str(eps), "--id", "planted4"]
        for flag in (["--block-w", "0,1"], ["--allow-non-prefix"]):
            assert main(args + flag) == 1
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_unknown_id(self, workspace, capsys):
        root, corpus, eps = workspace
        rc = main(["explain", "--data", str(corpus), "--episodes", str(eps),
                   "--id", "missing"])
        assert rc == 2


class TestExitCodes:
    def test_usage_error(self):
        assert main(["rank", "--bogus-flag"]) == 1
        assert main([]) == 1

    def test_missing_data_file(self, tmp_path):
        eps = tmp_path / "eps.jsonl"
        eps.write_text("")
        rc = main(["rank", "--data", str(tmp_path / "nope.txt"),
                   "--episodes", str(eps), "--no-timestamp"])
        assert rc == 2

    @pytest.mark.parametrize("command", ["mine", "rank"])
    def test_corpus_not_utf8_is_data_error(self, command, tmp_path, capsys):
        corpus = tmp_path / "corpus.txt"
        corpus.write_bytes(b"a b\nb \xff a\n")
        eps = tmp_path / "eps.jsonl"
        eps.write_text('{"id": "ab", "labels": ["a", "b"], "edges": [[0, 1]]}\n')
        argv = {"mine": ["mine", "--data", str(corpus), "--out", str(tmp_path / "m.jsonl")],
                "rank": ["rank", "--data", str(corpus), "--episodes", str(eps),
                         "--no-timestamp", "--out", str(tmp_path / "r.tsv")]}[command]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "not valid UTF-8" in err and "Traceback" not in err

    def test_non_strict_episode_file(self, workspace, tmp_path, capsys):
        root, corpus, _ = workspace
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"id": "x", "labels": ["a", "a"], "edges": []}\n')
        out = tmp_path / "out.tsv"
        assert main(_rank_args(corpus, bad, out)) == 2
        rc = main(_rank_args(corpus, bad, out) + ["--strictify"])
        assert rc == 0

    def test_malformed_plant_counts_is_usage_error(self, tmp_path, capsys):
        rc = main(["generate", "--kind", "plant", "--plant-counts", "a,b,c",
                   "--out", str(tmp_path / "corpus.txt")])
        assert rc == 1
        assert "Traceback" not in capsys.readouterr().err
        assert not (tmp_path / "corpus.txt").exists()

    @pytest.mark.parametrize("flags,message", [
        (["--seed", "-1"], "--seed must be at least 0"),
        (["--num-sequences", "-5", "--plant-counts", "0,0,0"], "--num-sequences must be at least 0"),
        (["--gap-p", "1.5"], "--gap-p must lie in [0, 1)"),
        (["--plant-counts=-1,0,0"], "--plant-counts must be at least 0, got -1"),
        (["--plant-counts", "1,0"], "--plant-counts takes 3 counts for --kind plant, got 2"),
        (["--gap-p", "0.9"], "--gap-p applies only to --kind gap, got --kind plant"),
        (["--plant-counts", "40,8,6", "--num-sequences", "5"],
         "--plant-counts may not exceed --num-sequences (5), got 40"),
        (["--num-sequences", "150"],
         "--plant-counts may not exceed --num-sequences (150), got 200"),
    ], ids=["seed", "num-sequences", "gap-p", "plant-counts-negative", "plant-counts-length",
            "gap-p-kind", "plant-counts-above-num-sequences", "default-plant-counts-above"])
    def test_generate_flag_out_of_range_is_usage_error(self, tmp_path, capsys, flags, message):
        out = tmp_path / "corpus.txt"
        assert main(["generate", "--kind", "plant", "--out", str(out)] + flags) == 1
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not out.exists()

    def test_min_support_below_one_is_usage_error(self, workspace, tmp_path, capsys):
        root, corpus, _ = workspace
        out = tmp_path / "out"
        assert main(["mine", "--data", str(corpus), "--min-support", "0", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "--min-support must be at least 1" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--max-len", "--max-size"])
    @pytest.mark.parametrize("command", ["mine"])
    def test_negative_mining_cap_is_usage_error(self, workspace, tmp_path, capsys,
                                                command, flag):
        root, corpus, _ = workspace
        out = tmp_path / "out"
        assert main([command, "--data", str(corpus), "--out", str(out), flag, "-1"]) == 1
        err = capsys.readouterr().err
        assert f"{flag} must be at least 0" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["rank", "--no-timestamp"],
        ["explain", "--id", "planted4"],
        ["rank", "--episodes", "{eps}", "--no-timestamp", "--mine"],
    ])
    def test_candidates_come_only_from_episode_files(self, workspace, tmp_path, capsys, argv):
        root, corpus, eps = workspace
        out = tmp_path / "out"
        argv = [a.format(eps=eps) for a in argv] + ["--data", str(corpus), "--out", str(out)]
        assert main(argv) == 1
        assert "Traceback" not in capsys.readouterr().err
        assert not out.exists()

    def test_id_naming_two_episodes_is_data_error(self, workspace, tmp_path, capsys):
        from episoderank.ranking import parse_report

        root, corpus, _ = workspace
        first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
        save_episodes([("x", serial("ab")), ("y", serial("cd"))], str(first))
        save_episodes([("y", serial("cd")), ("x", serial("ef"))], str(second))
        out = tmp_path / "out.tsv"
        # the same episode under the same id in two files is ranked once
        assert main(_rank_args(corpus, first, out) + ["--episodes", str(first)]) == 0
        assert sorted(row["id"] for row in parse_report(out.read_text())) == ["x", "y"]
        out.unlink()
        assert main(_rank_args(corpus, first, out) + ["--episodes", str(second)]) == 2
        err = capsys.readouterr().err
        assert f"{second}: id 'x' names two different episodes" in err
        assert "Traceback" not in err and not out.exists()

    @pytest.mark.parametrize("record", [
        '{"labels": ["a", "b"], "edges": []}',  # no id
        '{"id": "x", "labels": ["a", "b"], "edges": [[0]]}',
        '{"id": "x", "labels": ["a", "b"], "edges": [[0, 1, 2]]}',
        # labels other than strings: numbers used to die in vertex_set_label
        # with a TypeError, and a string was ranked as the episode of its letters
        '{"id": "x", "labels": [1, 2], "edges": [[0, 1]]}',
        '{"id": "x", "labels": ["a", 2], "edges": [[0, 1]]}',
        '{"id": "x", "labels": "ab", "edges": []}',
        # read leniently, a bool edge end is the index 1, a number id its
        # digits, and a tab or line break in an id splits its report row
        '{"id": "x", "labels": ["a", "b"], "edges": [[true, 0]]}',
        '{"id": 7, "labels": ["a", "b"], "edges": [[0, 1]]}',
        '{"id": "x\\ty", "labels": ["a", "b"], "edges": [[0, 1]]}',
        '{"id": "x\\u2028y", "labels": ["a", "b"], "edges": [[0, 1]]}',
    ])
    def test_malformed_episode_record_is_data_error(self, workspace, tmp_path, capsys, record):
        root, corpus, _ = workspace
        bad = tmp_path / "bad.jsonl"
        bad.write_text(record + "\n")
        for argv in (_rank_args(corpus, bad, tmp_path / "out.tsv"),
                     ["explain", "--data", str(corpus), "--episodes", str(bad), "--id", "x"]):
            assert main(argv) == 2
            assert f"{bad}:1: malformed episode record" in capsys.readouterr().err

    def test_episode_without_labels_is_data_error(self, workspace, tmp_path, capsys):
        # every sequence covers it, so no model could rank it
        root, corpus, _ = workspace
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"id": "ab", "labels": ["a", "b"], "edges": [[0, 1]]}\n'
                       '{"id": "empty", "labels": [], "edges": []}\n')
        out = tmp_path / "out.tsv"
        assert main(_rank_args(corpus, bad, out)) == 2
        err = capsys.readouterr().err
        assert f"{bad}:2: episode 'empty' has no labels" in err and "Traceback" not in err
        assert not out.exists()

    def test_compare_rejects_a_file_without_report_columns(self, workspace, tmp_path, capsys):
        root, corpus, eps = workspace
        report = tmp_path / "report.tsv"
        assert main(_rank_args(corpus, eps, report)) == 0
        other = tmp_path / "other.tsv"
        other.write_text("id\tscore\nplanted4\t1.5\n")
        assert main(["compare", str(report), str(other)]) == 2
        err = capsys.readouterr().err
        assert str(other) in err and "missing columns support, mu_ind" in err
        lines = report.read_text().splitlines()
        other.write_text("\n".join(lines[:-1] + [lines[-1].split("\t")[0]]) + "\n")
        assert main(["compare", str(report), str(other)]) == 2
        assert "malformed report row" in capsys.readouterr().err

    def test_compare_rejects_a_repeated_id(self, workspace, tmp_path, capsys):
        root, corpus, eps = workspace
        report = tmp_path / "report.tsv"
        assert main(_rank_args(corpus, eps, report)) == 0
        lines = report.read_text().splitlines()
        report.write_text("\n".join(lines + [lines[-1]]) + "\n")
        assert main(["compare", str(report), str(report)]) == 2
        err = capsys.readouterr().err
        assert f"line {len(lines) + 1}: duplicate id" in err and "Traceback" not in err

    def test_compare_strata_reject_an_id_naming_two_episodes(self, workspace, tmp_path,
                                                             capsys):
        root, corpus, _ = workspace
        planted = root / "planted.jsonl"
        report = tmp_path / "report.tsv"
        assert main(_rank_args(corpus, planted, report)) == 0
        lines = planted.read_text().splitlines()
        strata = tmp_path / "strata.jsonl"
        argv = ["compare", str(report), str(report), "--score-a", "rank_ind",
                "--episodes", str(strata)]
        # the same episode repeated under its id is kept once
        strata.write_text("\n".join(lines + lines[:1]) + "\n")
        assert main(argv) == 0
        assert "tau_large\t1.000000" in capsys.readouterr().out
        record = {"id": "a-b-c-d|0<1|1<2|2<3", "labels": ["e", "f"], "edges": []}
        strata.write_text("\n".join(lines + [json.dumps(record)]) + "\n")
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert f"{strata}: id 'a-b-c-d|0<1|1<2|2<3' names two different episodes" in captured.err
        assert "Traceback" not in captured.err and "tau_large" not in captured.out

    def test_compare_negative_top_k_is_usage_error(self, workspace, tmp_path, capsys):
        root, corpus, eps = workspace
        report = tmp_path / "report.tsv"
        assert main(_rank_args(corpus, eps, report)) == 0
        assert main(["compare", str(report), str(report), "--top-k", "-2"]) == 1
        assert "--top-k must be at least 0" in capsys.readouterr().err

    def test_malformed_threads_environment_is_usage_error(self, workspace, tmp_path,
                                                          monkeypatch, capsys):
        root, corpus, eps = workspace
        monkeypatch.setenv("EPISODERANK_THREADS", "two")
        rc = main(["rank", "--data", str(corpus), "--episodes", str(eps),
                   "--no-timestamp", "--out", str(tmp_path / "out.tsv")])
        assert rc == 1
        assert "Traceback" not in capsys.readouterr().err


    @pytest.mark.parametrize("flag,env", [(["--threads", "0"], None),
                                          (["--threads", "-2"], None), ([], "0")])
    def test_threads_below_one_is_usage_error(self, workspace, tmp_path, monkeypatch, capsys,
                                              flag, env):
        root, corpus, eps = workspace
        if env is not None:
            monkeypatch.setenv("EPISODERANK_THREADS", env)
        out = tmp_path / "out.tsv"
        rc = main(["rank", "--data", str(corpus), "--episodes", str(eps), "--no-timestamp",
                   "--out", str(out)] + flag)
        assert rc == 1
        err = capsys.readouterr().err
        assert "--threads must be at least 1" in err and "Traceback" not in err
        assert not out.exists()


def test_importing_the_cli_leaves_scipy_stats_unloaded():
    # only compare needs scipy.stats, and importing it costs every command
    # about half a second
    import subprocess
    import sys

    import episoderank

    src = os.path.dirname(os.path.dirname(os.path.abspath(episoderank.__file__)))
    code = "import sys, episoderank.cli; print('scipy.stats' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"
