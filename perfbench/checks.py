"""Correctness checks for the benchmark's workloads.

Every check compares the program's output with a computation made here, apart
from the program: a direct count over the corpus text, a backtracking
embedding search, the closed-form independence cover probability, or a tail
built as a convolution of one binomial per sequence-length class. None of them
compares against a stored copy of earlier output.

Each check returns a dict from operation id (an episode id, or ``"mine"``) to
the reason that operation failed; an empty dict means every operation passed.
"""

from __future__ import annotations

import json
import math
import random
from collections import Counter

import numpy as np
from scipy.stats import binom

REL_TOL = 1e-9
ABS_TOL = 1e-12
MINE_OP = "mine"


# --- inputs and outputs ------------------------------------------------------------

def read_corpus(path: str) -> list[list[str]]:
    with open(path, encoding="utf-8") as fh:
        return [line.split() for line in fh if line.strip()]


def read_episodes(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def write_episodes(records: list[dict], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def parse_report(text: str) -> tuple[list[dict], list[str]]:
    """Rows of a rank report (numbers parsed) and its ``# skipped`` lines."""
    rows, skipped = [], []
    header = None
    for line in text.splitlines():
        if line.startswith("# skipped"):
            skipped.append(line)
        if not line or line.startswith("#"):
            continue
        cells = line.split("\t")
        if header is None:
            header = cells
            continue
        row = dict(zip(header, cells))
        row["support"] = int(row["support"])
        for col in ("mu_ind", "rank_ind", "mu_part", "rank_part"):
            row[col] = float(row[col])
        rows.append(row)
    return rows, skipped


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


# --- corpus statistics ---------------------------------------------------------------

def label_shares(corpus: list[list[str]]) -> dict[str, float]:
    counts = Counter(tok for seq in corpus for tok in seq)
    total = sum(counts.values())
    return {lab: c / total for lab, c in counts.items()}


def length_counts(corpus: list[list[str]]) -> dict[int, int]:
    return dict(Counter(len(seq) for seq in corpus))


def serial_pair_supports(corpus: list[list[str]], min_support: int) -> dict[tuple, int]:
    """Ordered label pairs (x, y) held, x somewhere before y, by at least
    ``min_support`` sequences, with that number of sequences."""
    ids: dict[str, int] = {}
    width = max(map(len, corpus), default=0)
    mat = np.full((len(corpus), width), -1, dtype=np.int64)
    for r, seq in enumerate(corpus):
        mat[r, :len(seq)] = [ids.setdefault(tok, len(ids)) for tok in seq]
    a = len(ids)
    rows = np.arange(len(corpus), dtype=np.int64)[:, None]
    keys = []  # one key per (sequence, x, y) with x before y
    for i in range(width - 1):
        x, y = mat[:, i:i + 1], mat[:, i + 1:]
        keys.append(((rows * a + x) * a + y)[(x >= 0) & (y >= 0)])
    keys = np.sort(np.concatenate(keys))
    distinct = keys[np.r_[True, keys[1:] != keys[:-1]]]
    pairs, counts = np.unique(distinct % (a * a), return_counts=True)
    labels = list(ids)
    return {(labels[p // a], labels[p % a]): int(c)
            for p, c in zip(pairs.tolist(), counts.tolist()) if c >= min_support}


# --- embedding oracle ----------------------------------------------------------------

def embeds(labels: list[str], edges: list[list[int]], seq: list[str]) -> bool:
    """Backtracking search for an injective, label- and order-preserving map
    of the episode's vertices into the positions of ``seq``."""
    n = len(labels)
    preds = [[u for u, v in edges if v == w] for w in range(n)]
    order: list[int] = []
    while len(order) < n:
        order.append(next(v for v in range(n)
                          if v not in order and all(u in order for u in preds[v])))
    where: dict[str, list[int]] = {}
    for pos, tok in enumerate(seq):
        where.setdefault(tok, []).append(pos)
    at = [-1] * n

    def place(depth: int, used: set) -> bool:
        if depth == n:
            return True
        v = order[depth]
        lo = max((at[u] for u in preds[v]), default=-1)
        for pos in where.get(labels[v], ()):
            if pos > lo and pos not in used:
                at[v] = pos
                used.add(pos)
                if place(depth + 1, used):
                    return True
                used.discard(pos)
        return False

    return place(0, set())


def oracle_support(record: dict, corpus: list[list[str]], index: dict[str, set]) -> int:
    """Support of an episode record by embedding search over the sequences
    that hold every one of its labels."""
    seqs = set.intersection(*(index.get(lab, set()) for lab in record["labels"]))
    return sum(embeds(record["labels"], record["edges"], corpus[i]) for i in seqs)


def label_index(corpus: list[list[str]]) -> dict[str, set]:
    index: dict[str, set] = {}
    for i, seq in enumerate(corpus):
        for tok in seq:
            index.setdefault(tok, set()).add(i)
    return index


# --- independence cover probabilities and exact tails -----------------------------------

def singleton_cover(p: float, length: int) -> float:
    """P(a length-``length`` i.i.d. sequence holds a label of probability p)."""
    return -math.expm1(length * math.log1p(-p))


def independence_cover(labels: list[str], edges: list[list[int]], shares: dict[str, float],
                       lengths: list[int]) -> dict[int, float]:
    """P(an i.i.d. sequence of each length embeds the episode).

    Dynamic programme over the episode's ancestor-closed vertex sets: reading a
    label moves the walk to the set extended by the first enabled vertex with
    that label, and any other label leaves it in place.
    """
    n = len(labels)
    pred_mask = [0] * n
    for u, v in edges:
        pred_mask[v] |= 1 << u
    full = (1 << n) - 1
    moves: dict[int, list[tuple[float, int]]] = {}
    frontier = [0]
    while frontier:
        state = frontier.pop()
        if state in moves or state == full:
            continue
        step: dict[str, int] = {}
        for v in range(n):
            if not state >> v & 1 and pred_mask[v] & ~state == 0:
                step.setdefault(labels[v], state | 1 << v)
        moves[state] = [(shares.get(lab, 0.0), nxt) for lab, nxt in step.items()]
        frontier.extend(step.values())
    dist = {0: 1.0}
    out = {}
    for k in range(max(lengths) + 1):
        if k in lengths:
            out[k] = dist.get(full, 0.0)
        nxt: dict[int, float] = {full: dist.get(full, 0.0)}
        for state, mass in dist.items():
            if state == full:
                continue
            stay = 1.0
            for p, dst in moves[state]:
                nxt[dst] = nxt.get(dst, 0.0) + mass * p
                stay -= p
            nxt[state] = nxt.get(state, 0.0) + mass * stay
        dist = nxt
    return out


def _logsumexp(x: np.ndarray, axis=None) -> np.ndarray:
    m = np.max(x, axis=axis, keepdims=True)
    safe = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(np.exp(x - safe), axis=axis, keepdims=True)) + safe
    return np.squeeze(out, axis=axis) if axis is not None else float(out.squeeze())


def log_tail_by_class(cover: dict[int, float], counts: dict[int, int], n: int) -> float:
    """log P(sum over lengths k of Binomial(counts[k], cover[k]) >= n).

    The law of the partial sum is kept in log space below n, and mass that
    reaches n is absorbed as it appears, so tiny tails keep their digits.
    """
    if n <= 0:
        return 0.0
    log_f = np.full(n, -np.inf)
    log_f[0] = 0.0
    absorbed = -np.inf
    for k in sorted(counts):
        c = counts[k]
        with np.errstate(divide="ignore"):
            pmf = binom.logpmf(np.arange(c + 1), c, cover[k])
        # row i holds log_f[i] + pmf shifted right by i: column t sums i + j = t
        grid = np.full((n, n + c), -np.inf)
        rows = np.arange(n)[:, None]
        grid[rows, rows + np.arange(c + 1)[None, :]] = log_f[:, None] + pmf[None, :]
        col = _logsumexp(grid, axis=0)
        absorbed = np.logaddexp(absorbed, _logsumexp(col[n:]))
        log_f = col[:n]
    return float(absorbed)


def rank_from_tail(cover: dict[int, float], counts: dict[int, int], observed: int) -> float:
    if observed <= 0:
        return 0.0
    return max(0.0, -log_tail_by_class(cover, counts, observed))


# --- per-workload checks -------------------------------------------------------------

def check_rows(report_text: str, ids: list[str]) -> tuple[dict[str, dict], dict[str, str]]:
    """Every candidate id has exactly one row and none was skipped."""
    rows, skipped = parse_report(report_text)
    failures: dict[str, str] = {}
    by_id: dict[str, dict] = {}
    for row in rows:
        if row["id"] in by_id:
            failures[row["id"]] = "duplicate row"
        by_id[row["id"]] = row
    for line in skipped:
        eid = line[len("# skipped "):].split(":", 1)[0]
        failures[eid] = f"skipped: {line}"
    for eid in ids:
        if eid not in by_id and eid not in failures:
            failures[eid] = "no row"
    wanted = set(ids)
    for eid in by_id:
        if eid not in wanted:
            failures[eid] = "row for an id that was not a candidate"
    return by_id, failures


def check_mine(corpus: list[list[str]], mined_text: str, min_support: int,
               sample_seed: int, sample_size: int = 40) -> dict[str, str]:
    """Mined serial pairs equal a direct count of ordered label pairs, and a
    seeded sample of mined episodes has the support an embedding search finds."""
    records = [json.loads(line) for line in mined_text.splitlines() if line.strip()]
    problems: list[str] = []
    mined_pairs = {}
    for rec in records:
        if len(rec["labels"]) == 2 and len(rec["edges"]) == 1:
            (u, v), = rec["edges"]
            mined_pairs[(rec["labels"][u], rec["labels"][v])] = rec.get("support")
    expected = serial_pair_supports(corpus, min_support)
    missing = sorted(set(expected) - set(mined_pairs))
    extra = sorted(set(mined_pairs) - set(expected))
    if missing:
        problems.append(f"{len(missing)} frequent serial pairs not mined, e.g. {missing[:3]}")
    if extra:
        problems.append(f"{len(extra)} mined serial pairs are not frequent, e.g. {extra[:3]}")
    wrong = sorted(p for p in set(expected) & set(mined_pairs) if mined_pairs[p] != expected[p])
    if wrong:
        problems.append(f"{len(wrong)} serial pair supports differ from the direct count, "
                        f"e.g. {wrong[0]}: {mined_pairs[wrong[0]]} vs {expected[wrong[0]]}")
    index = label_index(corpus)
    rng = random.Random(sample_seed)
    for rec in rng.sample(records, min(sample_size, len(records))):
        found = oracle_support(rec, corpus, index)
        if rec.get("support") != found:
            problems.append(f"{rec['id']}: mined support {rec.get('support')}, "
                            f"embedding search finds {found}")
    return {MINE_OP: "; ".join(problems)} if problems else {}


def check_bulk(corpus: list[list[str]], candidates: list[dict],
               report_text: str) -> dict[str, str]:
    """Every candidate ranked with the miner's support; singleton ``mu_ind``
    equals sum_k c_k (1 - (1 - p)^k)."""
    by_id, failures = check_rows(report_text, [c["id"] for c in candidates])
    shares = label_shares(corpus)
    lengths = length_counts(corpus)
    for cand in candidates:
        row = by_id.get(cand["id"])
        if row is None or cand["id"] in failures:
            continue
        if row["support"] != cand["support"]:
            failures[cand["id"]] = f"support {row['support']}, miner recorded {cand['support']}"
        elif len(cand["labels"]) == 1:
            p = shares.get(cand["labels"][0], 0.0)
            mu = sum(c * singleton_cover(p, k) for k, c in lengths.items())
            if not close(row["mu_ind"], mu):
                failures[cand["id"]] = f"mu_ind {row['mu_ind']!r}, closed form {mu!r}"
    return failures


def check_exact(corpus: list[list[str]], candidates: list[dict], report_text: str,
                sample_seed: int, sample_size: int = 12) -> dict[str, str]:
    """Exact tails everywhere; singleton ranks, and those of a seeded sample of
    larger episodes, equal a convolution of one binomial per length class."""
    by_id, failures = check_rows(report_text, [c["id"] for c in candidates])
    shares = label_shares(corpus)
    lengths = length_counts(corpus)
    index = label_index(corpus)
    larger = [c for c in candidates if len(c["labels"]) > 1]
    sampled = {c["id"] for c in random.Random(sample_seed).sample(
        larger, min(sample_size, len(larger)))}
    for cand in candidates:
        eid = cand["id"]
        row = by_id.get(eid)
        if row is None or eid in failures:
            continue
        if row["method"] != "exact":
            failures[eid] = f"method {row['method']}, expected exact"
            continue
        if len(cand["labels"]) > 1 and eid not in sampled:
            continue
        found = oracle_support(cand, corpus, index)
        if row["support"] != found:
            failures[eid] = f"support {row['support']}, embedding search finds {found}"
            continue
        if len(cand["labels"]) == 1:
            p = shares.get(cand["labels"][0], 0.0)
            cover = {k: singleton_cover(p, k) for k in lengths}
        else:
            cover = independence_cover(cand["labels"], cand["edges"], shares, list(lengths))
        expected = rank_from_tail(cover, lengths, row["support"])
        if not close(row["rank_ind"], expected):
            failures[eid] = f"rank_ind {row['rank_ind']!r}, binomial convolution {expected!r}"
    return failures
