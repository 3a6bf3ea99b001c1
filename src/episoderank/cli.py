"""Command-line front door: generate, mine, rank, compare, explain.

Every run is deterministic given its flags: randomness flows from --seed only,
reports embed their configuration, and the volatile lines (timestamp, timing)
can be suppressed with --no-timestamp for byte-stable output.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from datetime import datetime, timezone

from . import datagen, episodes, machine as machine_mod, miner, model, ranking

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3


def _echo(args: argparse.Namespace, keys: list[str]) -> str:
    parts = [args.command]
    for key in keys:
        parts.append(f"{key.replace('_', '-')}={getattr(args, key)}")
    return " ".join(parts)


class UsageError(Exception):
    """A flag value that parses but is out of range."""


def _mine(args: argparse.Namespace, dataset: datagen.Dataset) -> list[miner.MinedEpisodes]:
    """The serial and multiset searches the flags ask for, in that order."""
    if args.min_support < 1:
        raise UsageError(f"--min-support must be at least 1, got {args.min_support}")
    for flag, cap in (("--max-len", args.max_len), ("--max-size", args.max_size)):
        if cap < 0:
            raise UsageError(f"{flag} must be at least 0 (0 disables it), got {cap}")
    if args.max_len >= 1 and args.max_size >= 1 and _usable_cpus() > 1:
        # the searches only read the dataset and spend their time in NumPy
        # calls that release the GIL, so with a second CPU the multisets run
        # on a second thread; on one CPU that only adds switching
        dataset.sequence_ids  # build the cache both searches read once, first
        with ThreadPoolExecutor(max_workers=1) as pool:
            multisets = pool.submit(miner.mine_parallel, dataset, args.min_support,
                                    args.max_size)
            return [miner.mine_serial(dataset, args.min_support, args.max_len),
                    multisets.result()]
    mined = []
    if args.max_len >= 1:
        mined.append(miner.mine_serial(dataset, args.min_support, args.max_len))
    if args.max_size >= 1:
        mined.append(miner.mine_parallel(dataset, args.min_support, args.max_size))
    return mined


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _named_episodes(paths: list[str], strictify: bool) -> dict[str, episodes.Episode]:
    """The episodes of the files by id; DataError if one id names two episodes."""
    named: dict[str, episodes.Episode] = {}
    for path in paths:
        for eid, episode in episodes.load_episodes(path, auto_strictify=strictify):
            if named.setdefault(eid, episode) != episode:
                raise datagen.DataError(f"{path}: id {eid!r} names two different episodes")
    return named


def _candidate_set(named: dict[str, episodes.Episode]) -> miner.CandidateSet:
    """The named episodes, each kept once under its first id."""
    return miner.CandidateSet(miner.Candidate(eid, episode) for eid, episode in named.items())


def _int_list(text: str) -> list[int]:
    """argparse type for comma-separated integers."""
    try:
        return [int(tok) for tok in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None


def _write(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_generate(args: argparse.Namespace) -> int:
    for flag, value in (("--seed", args.seed), ("--num-sequences", args.num_sequences)):
        if value is not None and value < 0:
            raise UsageError(f"{flag} must be at least 0, got {value}")
    if not 0.0 <= args.gap_p < 1.0:
        raise UsageError(f"--gap-p must lie in [0, 1), got {args.gap_p}")
    if args.gap_p and args.kind != "gap":
        raise UsageError(f"--gap-p applies only to --kind gap, got --kind {args.kind}")
    if args.plant_counts is not None:
        wanted = len(datagen.KINDS[args.kind][1])  # one default count per pattern
        if len(args.plant_counts) != wanted:
            raise UsageError(f"--plant-counts takes {wanted} counts for --kind {args.kind}, "
                             f"got {len(args.plant_counts)}")
        if min(args.plant_counts) < 0:
            raise UsageError(f"--plant-counts must be at least 0, got {min(args.plant_counts)}")
    config = datagen.default_config(args.kind, args.seed, num_sequences=args.num_sequences,
                                    counts=args.plant_counts, gap_p=args.gap_p)
    most = max(spec.count for spec in config.plants)  # each sequence holds a pattern once
    if most > config.num_sequences:
        raise UsageError(f"--plant-counts may not exceed --num-sequences "
                         f"({config.num_sequences}), got {most}")
    dataset = datagen.generate(config)
    datagen.save_dataset(dataset, args.out)
    if args.episodes_out:
        episodes.save_episodes(
            [(episodes.describe(spec.episode), spec.episode) for spec in config.plants],
            args.episodes_out)
    print(f"wrote {dataset.num_sequences} sequences, {dataset.total_events} events, "
          f"alphabet {len(dataset.alphabet)} to {args.out}")
    return EXIT_OK


def cmd_mine(args: argparse.Namespace) -> int:
    dataset = datagen.load_sequences(args.data)
    mined = _mine(args, dataset)
    additions = []
    if args.merge_intersections:
        candidates = miner.CandidateSet(itertools.chain.from_iterable(mined))
        additions = miner.merge_serial_intersections(candidates, dataset, args.min_support)
    # the lines of a CandidateSet holding the serial episodes, the multisets and
    # the additions, in that order, without building the mined episodes
    blocks = [result.blocks(0 if result.serial else args.max_len) for result in mined]
    blocks.append(episodes.episode_line(c.eid, c.episode, c.support).encode("ascii")
                  for c in additions)
    count = 0
    with open(args.out, "wb") as fh:
        for block in itertools.chain.from_iterable(blocks):
            fh.write(block)
            count += block.count(b"\n")
    print(f"mined {count} episodes to {args.out}")
    return EXIT_OK


def cmd_rank(args: argparse.Namespace) -> int:
    if args.threads < 1:
        raise UsageError(f"--threads must be at least 1, got {args.threads}")
    dataset = datagen.load_sequences(args.data)
    candidates = _candidate_set(_named_episodes(args.episodes, args.strictify))

    header = [_echo(args, ["data", "exact", "log10", "threads"]),
              f"candidates={len(candidates)} sequences={dataset.num_sequences}"]
    if not args.no_timestamp:
        header.append("generated-at " + datetime.now(timezone.utc).isoformat())

    t0 = time.perf_counter()
    rows, errors = ranking.rank_many([(c.eid, c.episode) for c in candidates], dataset,
                                     candidates, exact=args.exact, threads=args.threads)
    elapsed = time.perf_counter() - t0

    text = ranking.render_report(rows, header, log10=args.log10, errors=errors)
    if not args.no_timestamp:
        text += f"# timing: ranked {len(rows)} episodes in {elapsed:.2f}s (threads={args.threads})\n"
    _write(text, args.out)
    return EXIT_OK


def _read_report(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        return ranking.parse_report(text)
    except datagen.DataError as exc:
        raise datagen.DataError(f"{path}: {exc}") from None


def cmd_compare(args: argparse.Namespace) -> int:
    if args.top_k < 0:
        raise UsageError(f"--top-k must be at least 0, got {args.top_k}")
    rows_a = _read_report(args.report_a)
    rows_b = _read_report(args.report_b)
    ids_a = {r["id"] for r in rows_a}
    ids_b = {r["id"] for r in rows_b}
    if ids_a != ids_b:
        only_a = sorted(ids_a - ids_b)[:10]
        only_b = sorted(ids_b - ids_a)[:10]
        raise datagen.DataError(
            f"reports rank different ids (only in A: {only_a}, only in B: {only_b})")

    by_id_b = {r["id"]: r for r in rows_b}
    scores_a = [(r["id"], r[args.score_a]) for r in sorted(rows_a, key=lambda r: r["id"])]
    scores_b = [(i, by_id_b[i][args.score_b]) for i, _ in scores_a]

    lines = [f"# compare {args.report_a} ({args.score_a}) vs {args.report_b} ({args.score_b})",
             f"ids\t{len(scores_a)}",
             f"tau_all\t{ranking.kendall_tau(scores_a, scores_b):.6f}"]

    if args.episodes:
        loaded = _named_episodes([args.episodes], strictify=True)
        par2 = {i for i, e in loaded.items() if e.n == 2 and not e.edges}
        large = {i for i, e in loaded.items() if e.n > 2}
        for name, members in (("tau_parallel2", par2), ("tau_large", large)):
            sub_a = [(i, s) for i, s in scores_a if i in members]
            sub_b = [(i, s) for i, s in scores_b if i in members]
            lines.append(f"{name}\t{ranking.kendall_tau(sub_a, sub_b):.6f}")  # nan below 2 ids

    score_b_map = dict(scores_b)
    pairs = []
    for i, sa in scores_a:
        rho, eta = ranking.rho_eta(sa, score_b_map[i])
        pairs.append((i, rho, eta))
    finite_rho = sorted((p for p in pairs if math.isfinite(p[1])),
                        key=lambda p: (-p[1], p[0]))
    lines.append(f"top_rho (k={args.top_k})")
    for i, rho, _ in finite_rho[:args.top_k]:
        lines.append(f"  {i}\t{rho:.6g}")
    # eta only where the second model still underestimates the support
    eligible = {r["id"] for r in rows_b if r["support"] >= r["mu_part"]}
    finite_eta = sorted((p for p in pairs if math.isfinite(p[2]) and p[0] in eligible),
                        key=lambda p: (-p[2], p[0]))
    lines.append(f"top_eta (k={args.top_k}, support >= expected)")
    for i, _, eta in finite_eta[:args.top_k]:
        lines.append(f"  {i}\t{eta:.6g}")
    _write("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_explain(args: argparse.Namespace) -> int:
    dataset = datagen.load_sequences(args.data)
    named = _named_episodes(args.episodes, args.strictify)
    if args.id not in named:
        raise datagen.DataError(f"unknown episode id {args.id!r}")
    episode = named[args.id]  # every id of the files, not only each episode's first
    lines = [f"episode {args.id}: {episodes.describe(episode)}",
             machine_mod.render_machine(machine_mod.build_machine(episode))]
    result = ranking.rank_episode(args.id, episode, dataset, _candidate_set(named),
                                  exact=args.exact, keep_evaluations=True)
    scale = math.log(10.0) if args.log10 else 1.0
    for ev in result.evaluations:
        r = ev.result
        weights = ",".join(f"{lab}:{w:.4g}" for lab, w in
                           zip(ev.params.collapsed.classes, ev.params.u))
        c1, c2 = (",".join(map(str, sorted(s))) or "-" for s in (ev.spec.c1, ev.spec.c2))
        lines.append(f"model {ev.explainer}: mu={r.mu:.6g} rank={r.rank / scale:.6g} "
                     f"method={r.method} u={{{weights}}} t1={ev.params.t1:.4g} "
                     f"t2={ev.params.t2:.4g} c1={c1} c2={c2}")
    lines.append(f"support {result.support}")
    lines.append(f"winner {result.part.explainer}: rank_part={result.part.rank / scale:.6g} "
                 f"rank_ind={result.ind.rank / scale:.6g}")
    if not result.evaluations:
        lines.append("note: the corpus has no events, so no model was fitted")
    elif all(ev.spec.is_empty for ev in result.evaluations):
        lines.append("note: every partition of this episode equals the independence model")
    _write("\n".join(lines) + "\n", args.out)

    if args.dump_model:
        # a corpus without events fits no model, so there is no winner to dump
        winner = next((ev for ev in result.evaluations
                       if ev.explainer == result.part.explainer), None)
        params = winner.params.to_dict() if winner else {}
        sys.stdout.write(json.dumps(params, sort_keys=True) + "\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="episoderank")
    sub = parser.add_subparsers(dest="command", required=True)

    # corpus and candidate flags shared by rank and explain
    candidate_flags = argparse.ArgumentParser(add_help=False)
    candidate_flags.add_argument("--data", required=True)
    candidate_flags.add_argument("--strictify", action="store_true",
                        help="auto-repair non-strict episodes on load")
    candidate_flags.add_argument("--episodes", action="append", required=True,
                        help="candidate episode JSONL (repeatable)")
    candidate_flags.add_argument("--exact", action="store_true",
                        help="exact tail instead of approximations")
    candidate_flags.add_argument("--log10", action="store_true", help="display ranks in log10")
    candidate_flags.add_argument("--out", default=None)

    p = sub.add_parser("generate", help="write a seeded synthetic corpus")
    p.add_argument("--kind", choices=tuple(datagen.KINDS), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--num-sequences", type=int, default=None)
    p.add_argument("--gap-p", type=float, default=0.0)
    p.add_argument("--plant-counts", type=_int_list, default=None,
                   help="comma-separated occurrence counts, one per pattern")
    p.add_argument("--episodes-out", default=None,
                   help="also write the planted episodes as JSONL")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("mine", help="mine frequent serial/parallel episodes")
    p.add_argument("--data", required=True)
    p.add_argument("--min-support", type=int, default=10)
    p.add_argument("--max-len", type=int, default=3, help="serial length cap (0 disables)")
    p.add_argument("--max-size", type=int, default=2, help="parallel size cap (0 disables)")
    p.add_argument("--merge-intersections", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_mine)

    p = sub.add_parser("rank", parents=[candidate_flags],
                       help="rank candidate episodes against the corpus")
    p.add_argument("--threads", type=int, default=os.environ.get("EPISODERANK_THREADS") or "1")
    p.add_argument("--no-timestamp", action="store_true")
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("compare", help="compare two rank reports")
    p.add_argument("report_a")
    p.add_argument("report_b")
    p.add_argument("--score-a", default="rank_part",
                   choices=("rank_ind", "rank_part"))
    p.add_argument("--score-b", default="rank_part",
                   choices=("rank_ind", "rank_part"))
    p.add_argument("--episodes", default=None, help="episode JSONL for per-stratum tau")
    p.add_argument("--top-k", type=int, default=10)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("explain", parents=[candidate_flags],
                       help="show the machine and every partition model")
    p.add_argument("--id", required=True)
    p.add_argument("--dump-model", action="store_true")
    p.set_defaults(func=cmd_explain)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except model.NumericalFitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (datagen.DataError, episodes.EpisodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
