"""Benchmark of episoderank's mining, bulk ranking and exact tails.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload rank --seed 1 --seconds 45 --trace 0

The run builds its inputs from ``--seed`` (set-up, repeated and timed), then
runs rounds of the workload's command lines, each in process through
``episoderank.cli.main``, again and again for about ``--seconds``, and checks
the outputs. The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics are
the end-to-end ones (``wall_s``, ``cpu_s``, ``setup_s``, ``peak_rss_mb``) of a
round; with ``--trace 1`` timed rounds alternate between plain and traced, and
the metrics are the per-layer self times and counts of the traced rounds. ``--workload all`` runs
every workload in turn, each in its own process, and prints one line each.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "work")
SETUP_REPEATS = 3
SELF_TIME_TOLERANCE = 0.05
END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
KEEP = ("result.json", "spans.jsonl")  # everything else in the work directory is deleted


def _import_program():
    """The episoderank package of this checkout, never an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "episoderank", "cli.py")):
        sys.exit(f"perfbench: no episoderank sources under {SRC}; "
                 "run from the root of a source checkout")
    sys.path.insert(0, SRC)
    import episoderank
    from episoderank import cli
    if not os.path.abspath(episoderank.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported episoderank from {episoderank.__file__}, not {SRC}")
    return episoderank, cli


def _cpu() -> float:
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def timed_call(cli, argv: list[str], tracer=None) -> tuple[int, float, float]:
    """One command line through ``cli.main``: exit code, wall and CPU seconds.
    With a tracer, the call is its root span."""
    gc.collect()
    with contextlib.redirect_stdout(io.StringIO()):
        cpu0, t0 = _cpu(), time.perf_counter()
        root = tracer.open("cli.main") if tracer is not None else None
        try:
            code = cli.main(argv)
        finally:
            if root is not None:
                tracer.close(root)
        wall, cpu = time.perf_counter() - t0, _cpu() - cpu0
    return code, wall, cpu


def _layer_unit(name: str) -> str:
    return "s" if name.endswith((".s", "_s")) else "count"


def run(workload: str, seed: int, seconds: float, trace: bool, scale: float = 1.0) -> dict:
    package, cli = _import_program()
    import tracer as tracing
    import workloads
    import_s = time.perf_counter() - PROCESS_START

    work = os.path.join(WORK, f"{workload}-seed{seed}-trace{int(trace)}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)

    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            calls = workloads.WORKLOADS[workload](cli, work, seed, scale)
        setup_times.append(time.perf_counter() - t0)

    plain: list[tuple[float, float]] = []
    traced: list[tuple[float, tracing.Tracer]] = []
    references: list[str | None] = [None] * len(calls)
    attempted = failed = 0
    problems: list[str] = []
    start = time.perf_counter()
    while True:
        tracer = None
        if trace and len(plain) > len(traced):
            tracer = tracing.Tracer()
            tracing.install_program_spans(tracer, package)
        wall = cpu = 0.0
        try:
            for i, call in enumerate(calls):
                code, call_wall, call_cpu = timed_call(cli, call.argv, tracer)
                wall, cpu = wall + call_wall, cpu + call_cpu
                attempted += call.operations
                if code != 0:
                    failed += call.operations
                    problems.append(f"{call.argv[0]}: exit code {code}")
                    continue
                with open(call.output, encoding="utf-8") as fh:
                    text = fh.read()
                if references[i] is None:
                    references[i] = text
                elif text != references[i]:
                    failed += call.operations
                    problems.append(f"{call.argv[0]}: output differs from the first round's")
        finally:
            if tracer is not None:
                tracer.uninstall()
        if tracer is None:
            plain.append((wall, cpu))
        else:
            traced.append((wall, tracer))
        # another round starts only if at least half of a typical one fits in the run
        typical = statistics.median([w for w, _ in plain] + [w for w, _ in traced])
        if time.perf_counter() - start + typical / 2 > seconds and (not trace or traced):
            break
    peak_rss_mb = _peak_rss_mb()

    rounds = len(plain) + len(traced)
    for call, reference in zip(calls, references):
        if reference is None:
            continue
        failures = call.check(reference)
        failed = min(attempted, failed + rounds * len(failures))
        problems += [f"{call.argv[0]} {op}: {why}" for op, why in sorted(failures.items())[:20]]

    if trace:
        layer_rounds = []
        with open(os.path.join(work, "spans.jsonl"), "w", encoding="utf-8") as spans_out:
            for round_no, (wall, tracer) in enumerate(traced):
                tracer.write(spans_out, round_no)
                layers = tracing.layer_metrics(tracer)
                layer_rounds.append(layers)
                self_sum = sum(v for k, v in layers.items() if k.endswith(".s"))
                if abs(self_sum - wall) > SELF_TIME_TOLERANCE * wall:
                    problems.append(f"self times sum to {self_sum:.4f} s, "
                                    f"traced wall is {wall:.4f} s")
        metrics = {name: statistics.fmean(r[name] for r in layer_rounds)
                   for name in layer_rounds[0]}
        metrics["trace.wall_s"] = statistics.fmean(w for w, _ in traced)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.fmean(
            w for w, _ in plain)
        units = {name: _layer_unit(name) for name in metrics}
    else:
        # Means, not medians, over the rounds: on a shared host the speed can
        # alternate between two levels in spells of tens of seconds, and the
        # median of a handful of rounds snaps to one level where the mean
        # weighs each level by its share of the run.
        metrics = {
            "wall_s": statistics.fmean(w for w, _ in plain),
            "cpu_s": statistics.fmean(c for _, c in plain),
            "setup_s": import_s + statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END_UNITS
    for line in problems:
        print(f"perfbench: {workload}: {line}", file=sys.stderr)

    for name in set(os.listdir(work)) - set(KEEP):
        path = os.path.join(work, name)
        if os.path.isdir(path):
            shutil.rmtree(path)
        else:
            os.remove(path)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    with open(os.path.join(work, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(dict(result, setup_s=setup_times, import_s=import_s,
                       rounds_wall_s=[w for w, _ in plain], traced_wall_s=[w for w, _ in traced]),
                  fh, indent=1)
    return result


def run_all(args: argparse.Namespace) -> int:
    """Every workload, one child process each, waited for in turn."""
    import workloads
    status = 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--scale", str(args.scale)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print(f"{name}\t{lines[-1] if lines else '(no result)'}", flush=True)
        status = status or proc.returncode or (0 if lines else 1)
    return status


def main(argv: list[str] | None = None) -> int:
    sys.path.insert(0, HERE)
    import workloads
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink corpus and candidate counts (tests only)")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
