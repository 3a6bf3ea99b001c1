"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Every criterion is expected to pass. Criterion 6 checks the normal tail
at z = 5 against ln(1−Φ(5)) = −15.064998393988726 (50-digit mpmath).
"""

import itertools
import math
import time

import numpy as np
import pytest

from episoderank.datagen import (
    GeneratorConfig,
    PlantSpec,
    default_config,
    generate,
    plant_patterns,
)
from episoderank.episodes import make_episode, parallel, serial
from episoderank.machine import (
    block_prefix,
    block_super,
    build_machine,
)
from episoderank.miner import CandidateSet, mine_parallel, mine_serial
from episoderank.model import (
    EMPTY_SPEC,
    MachineUnion,
    PartitionSpec,
    StateStats,
    collapse_alphabet,
    collect_statistics,
    fit,
    gradient_hessian,
    log_likelihood,
    reach_table,
    support,
    transition_rates,
)
from episoderank.ranking import (
    rank_episode,
    rank_many,
    render_report,
    sort_rows,
    tail_exact,
    tail_normal,
    tail_poisson,
)

from conftest import all_sequences, enumerate_strict_episodes, random_strict_episode
from oracles import (
    brute_force_covers,
    covers,
    greedy,
    masks_of,
    rank,
    sequence_log_prob,
    transition_rates_from_probs,
)

GAP_SEED = 4
PLANT_SEED = 1


def _report(num, checks):
    """Print one line for the criterion, then assert every sub-check."""
    ok = all(passed for _, passed in checks)
    detail = ", ".join(f"{name}:{'ok' if passed else 'FAIL'}" for name, passed in checks)
    print(f"[criterion {num:>2}] {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


def fig_machine():
    return build_machine(make_episode(["a", "b", "c", "d"],
                                      [(0, 1), (0, 2), (1, 3), (2, 3)]))


@pytest.fixture(scope="module")
def desk_plant():
    return generate(default_config("plant", seed=PLANT_SEED,
                                   num_sequences=2000, counts=(40, 8, 6)))


def test_criterion_1_worked_example_coefficients():
    t0 = time.perf_counter()
    m = fig_machine()
    probs = {"a": 0.4, "b": 0.3, "c": 0.2, "d": 0.06, "e": 0.04}
    stay, edge_p = transition_rates_from_probs(m, probs)
    expected_stay = [1.0 - 0.4, 1.0 - (0.3 + 0.2), 1.0 - 0.2, 1.0 - 0.3, 1.0 - 0.06, 1.0]
    incoming = {
        s: {(m.edge_src[i].item(), edge_p[i]) for i in np.flatnonzero(m.edge_dst == s)}
        for s in range(m.num_states)
    }
    expected_incoming = {
        0: set(), 1: {(0, 0.4)}, 2: {(1, 0.3)}, 3: {(1, 0.2)},
        4: {(2, 0.2), (3, 0.3)}, 5: {(4, 0.06)},
    }
    elapsed = time.perf_counter() - t0
    _report(1, [
        ("stay-coefficients-exact", stay.tolist() == expected_stay),
        ("incoming-terms-exact", incoming == expected_incoming),
        ("runtime<1s", elapsed < 1.0),
    ])


def test_criterion_2_edge_set_goldens():
    m = fig_machine()

    def pairs(edge_set):
        return {(m.edge_src[i].item(), m.edge_dst[i].item()) for i in edge_set}

    rows_ok = True
    golden = {
        0b0001: (set(), {(2, 4), (3, 4), (4, 5)}),
        0b0011: ({(1, 2), (3, 4)}, {(4, 5)}),
        0b0101: ({(1, 3), (2, 4)}, {(4, 5)}),
        0b0111: ({(1, 2), (1, 3), (2, 4), (3, 4)}, set()),
    }
    for w, (c1, c2) in golden.items():
        rows_ok &= pairs(block_prefix(m, w)) == c1
        rows_ok &= pairs(block_prefix(m, 0b1111 ^ w)) == c2

    s1 = pairs(block_super(m, serial("abcd"))) == {(1, 2), (2, 4), (4, 5)}
    s2 = pairs(block_super(m, serial(["a", "c", "b", "d"]))) == {(1, 3), (3, 4), (4, 5)}

    chain = build_machine(serial("abc"))
    w_ac = {(chain.edge_src[i].item(), chain.edge_dst[i].item())
            for i in block_prefix(chain, 0b101)} == {(2, 3)}

    _report(2, [
        ("prefix-rows", bool(rows_ok)),
        ("superepisode-sets", s1 and s2),
        ("non-prefix-example", w_ac),
    ])


def test_criterion_3_coverage_oracle_equivalence():
    t0 = time.perf_counter()
    episodes = enumerate_strict_episodes(4, "ab")
    sequences = all_sequences("abc", 6)
    mismatches = 0
    for ep in episodes:
        m = build_machine(ep)
        for seq in sequences:
            if covers(m, seq) != brute_force_covers(ep, seq):
                mismatches += 1
    elapsed = time.perf_counter() - t0
    _report(3, [
        (f"episodes={len(episodes)}x{len(sequences)} mismatches=0", mismatches == 0),
        (f"runtime<120s({elapsed:.0f}s)", elapsed < 120.0),
    ])


def test_criterion_4_reach_probability_oracle():
    rng = np.random.default_rng(100)
    worst = 0.0
    for _ in range(20):
        ep = random_strict_episode(rng, "ab", 4)
        m = build_machine(ep)
        col = collapse_alphabet(ep)
        u = rng.normal(size=col.size)
        u[col.star] = 0.0
        from episoderank.model import ModelParams

        edges = list(range(len(m.edge_src)))
        rng.shuffle(edges)
        spec = PartitionSpec(frozenset(edges[:2]), frozenset(edges[2:4]))
        params = ModelParams(col, u, float(rng.normal()), float(rng.normal()), col.star)
        n = 5
        union = MachineUnion([m])
        table = reach_table(union, *transition_rates(union, [params], [spec]), range(n + 1))
        exact = np.zeros(m.num_states)
        for seq in itertools.product(col.classes, repeat=n):
            exact[greedy(m, seq)] += math.exp(sequence_log_prob(m, params, spec, seq))
        worst = max(worst, float(np.abs(exact - table[n]).max()))
    _report(4, [(f"20 triples, worst-err={worst:.1e}", worst < 1e-12)])


def test_criterion_5_gradient_and_concavity():
    rng = np.random.default_rng(200)
    worst_rel = 0.0
    worst_eig = -math.inf
    for _ in range(10):
        ep = random_strict_episode(rng, "ab", 4)
        m = build_machine(ep)
        col = collapse_alphabet(ep)
        n = rng.integers(0, 30, size=(m.num_states, col.size)).astype(float)
        stats = StateStats(col, n.sum(axis=1), n)
        edges = list(range(len(m.edge_src)))
        rng.shuffle(edges)
        spec = PartitionSpec(frozenset(edges[: len(edges) // 2][:3]),
                             frozenset(edges[len(edges) // 2:][:3]))
        masks = masks_of(m, spec, col)

        for _ in range(10):
            x = np.concatenate([rng.normal(size=col.size), [rng.normal(), rng.normal()]])
            x[col.star] = 0.0
            grad, hess = gradient_hessian(stats, x, masks)
            h = 1e-5

            def ll(tweak):
                return log_likelihood(stats, x + tweak, masks)

            dim = len(grad)
            fd = np.zeros(dim)
            for i in range(dim):
                e = np.zeros(dim)
                e[i] = h
                fd[i] = (ll(e) - ll(-e)) / (2 * h)
            scale = np.maximum(np.abs(fd), 1.0)
            worst_rel = max(worst_rel, float((np.abs(grad - fd) / scale).max()))
            worst_eig = max(worst_eig, float(np.linalg.eigvalsh(hess).max()))
    _report(5, [
        (f"gradient-fd rel={worst_rel:.1e}", worst_rel < 1e-5),
        (f"hessian max-eig={worst_eig:.1e}", worst_eig <= 1e-8),
    ])


def test_criterion_6_tail_correctness():
    rng = np.random.default_rng(300)
    ps = list(rng.uniform(0.05, 0.9, size=12))
    worst = 0.0
    for n in range(13):
        brute = 0.0
        for bits in itertools.product([0, 1], repeat=12):
            if sum(bits) >= n:
                term = 1.0
                for b, p in zip(bits, ps):
                    term *= p if b else 1.0 - p
                brute += term
        worst = max(worst, abs(math.exp(tail_exact(ps, n)) - brute))
    exact_ok = worst < 1e-12

    poisson_ok = abs(tail_poisson(1.0, 2) - math.log(1 - 2 * math.exp(-1))) < 1e-12

    # n = 5.5 puts the continuity-corrected z at exactly 5. The golden is
    # ln(1 - Phi(5)) from mpmath at 50 digits, log(ncdf(-5)); the stdlib
    # log(0.5 * erfc(5 / sqrt(2))) agrees to 2e-15.
    log_survival_z5 = -15.064998393988726
    normal_value = tail_normal(0.0, 1.0, 5.5)
    normal_ok = abs(normal_value - log_survival_z5) <= 1e-9

    _report(6, [
        (f"exact-dp-vs-enumeration err={worst:.1e}", exact_ok),
        ("poisson-closed-form", poisson_ok),
        (f"normal-z5 got {normal_value:.9f} want {log_survival_z5:.9f}±1e-9", normal_ok),
    ])


def test_criterion_7_independence_reduction(desk_plant):
    rng = np.random.default_rng(400)
    episodes = list(plant_patterns())
    noise = [f"n{int(i):03d}" for i in rng.integers(0, 990, size=8)]
    episodes += [serial(noise[:2]), parallel(noise[2:4]), serial(noise[4:7])]
    for _ in range(5):
        episodes.append(random_strict_episode(rng, "ab", 3))
    identical = True
    for ep in episodes:
        m = build_machine(ep)
        stats, observed = collect_statistics(m, desk_plant)
        if stats.c.sum() == 0:
            continue
        params_ind = fit(m, EMPTY_SPEC, stats)
        r_ind = rank(m, params_ind, EMPTY_SPEC, desk_plant, observed)
        fresh = PartitionSpec(frozenset(), frozenset())
        params_empty = fit(m, fresh, stats)
        r_empty = rank(m, params_empty, fresh, desk_plant, observed)
        if not (r_empty.rank == r_ind.rank and r_empty.mu == r_ind.mu
                and np.array_equal(params_empty.u, params_ind.u)):
            identical = False
    _report(7, [(f"{len(episodes)} episodes bit-identical", identical)])


def test_criterion_8_gap_experiment():
    t0 = time.perf_counter()
    g1 = serial("abcd")
    g3 = make_episode(["a", "b", "c", "d"], [(0, 1), (0, 2), (1, 3), (2, 3)])

    results = {}
    top5 = None
    for p in (0.0, 0.2, 0.4):
        ds = generate(default_config("gap", seed=GAP_SEED, num_sequences=2000, gap_p=p))
        if top5 is None:
            # the five noise labels that most often trail the planted pattern
            scored = []
            for i in range(996):
                lab = f"n{i:03d}"
                scored.append((support(build_machine(serial(["a", "b", "c", "d", lab])), ds), lab))
            scored.sort(key=lambda t: (-t[0], t[1]))
            top5 = [lab for _, lab in scored[:5]]
        candidates = CandidateSet()
        candidates.add("G1", g1)
        candidates.add("G3", g3)
        g2s = [(f"G2-{lab}", serial(["a", "b", "c", "d", lab])) for lab in top5]
        for eid, ep in g2s:
            candidates.add(eid, ep)
        r1 = rank_episode("G1", g1, ds, candidates)
        r3 = rank_episode("G3", g3, ds, candidates)
        r2 = [rank_episode(eid, ep, ds, candidates) for eid, ep in g2s]
        results[p] = (r1, r3, r2)

    r1_0, r3_0, r2_0 = results[0.0]
    big = 500.0
    g2_ind = float(np.mean([r.ind.rank for r in r2_0]))
    g2_part = float(np.mean([r.part.rank for r in r2_0]))
    curve = [results[p][0].part.rank for p in (0.0, 0.2, 0.4)]
    elapsed = time.perf_counter() - t0
    _report(8, [
        (f"r_ind(G1)={r1_0.ind.rank:.0f}>=500", r1_0.ind.rank >= big),
        (f"r_ind(G3)={r3_0.ind.rank:.0f}>=500", r3_0.ind.rank >= big),
        (f"mean r_part(G2)={g2_part:.1f}<=20", g2_part <= 20.0),
        (f"mean r_ind(G2)={g2_ind:.1f}>=40", g2_ind >= 40.0),
        (f"r_part(G3)={r3_0.part.rank:.2f}<=5", r3_0.part.rank <= 5.0),
        (f"r_part(G1)={curve[0]:.0f}>=100", curve[0] >= 100.0),
        (f"monotone {['%.1f' % c for c in curve]}", curve[0] > curve[1] > curve[2]),
        (f"runtime<300s({elapsed:.0f}s)", elapsed < 300.0),
    ])


def test_criterion_9_plant_experiment(desk_plant):
    t0 = time.perf_counter()
    ds = desk_plant
    planted_names = ("planted-serial4", "planted-serial2", "planted-diamond")
    planted_labels = set("abcdefklmn")

    scored = []
    for i in range(990):
        lab = f"n{i:03d}"
        scored.append((support(build_machine(serial(["a", "b", "c", "d", lab])), ds), lab))
    scored.sort(key=lambda t: (-t[0], t[1]))
    freerider_labels = [lab for _, lab in scored[:10]]

    candidates = CandidateSet()
    for name, ep in zip(planted_names, plant_patterns()):
        candidates.add(name, ep)
    for lab in freerider_labels:
        candidates.add(f"freerider-{lab}", serial(["a", "b", "c", "d", lab]))
    # mined background, minus the equal-support planted sub-patterns a closed
    # miner would have condensed away
    for cand in mine_serial(ds, min_support=6, max_len=2):
        if not set(cand.episode.labels) <= planted_labels:
            candidates.add(cand.eid, cand.episode, cand.support)
    for cand in mine_parallel(ds, min_support=6, max_size=2):
        if not set(cand.episode.labels) <= planted_labels:
            candidates.add(cand.eid, cand.episode, cand.support)

    rows, errors = rank_many([(c.eid, c.episode) for c in candidates], ds,
                             candidates, threads=2)
    ordered = sort_rows(rows)
    top3 = {r.eid for r in ordered[:3]}
    min_planted = min(r.part.rank for r in rows if r.eid in planted_names)
    freeriders = [r for r in rows if r.eid.startswith("freerider-")]
    worst_freerider = max(r.part.rank for r in freeriders)
    elapsed = time.perf_counter() - t0
    _report(9, [
        (f"no-errors candidates={len(rows)}", not errors),
        (f"top3={sorted(top3)}", top3 == set(planted_names)),
        (f"freeriders<=15 (worst {worst_freerider:.1f})", worst_freerider <= 15.0),
        ("freeriders-below-planted", worst_freerider < min_planted),
        (f"runtime<600s({elapsed:.0f}s)", elapsed < 600.0),
    ])


def test_criterion_10_parallel_pair_redundancy():
    config = GeneratorConfig("plant", seed=5, num_sequences=2000, length_range=(20, 30),
                             noise_alphabet_size=98,
                             plants=[PlantSpec(serial("ab"), 300, 0.0)])
    ds = generate(config)
    candidates = CandidateSet()
    candidates.add("serial-ab", serial("ab"))
    candidates.add("parallel-ab", parallel("ab"))
    result = rank_episode("parallel-ab", parallel("ab"), ds, candidates)
    ratio = result.part.rank / result.ind.rank
    _report(10, [
        (f"support={result.support}", result.support == 300),
        (f"ratio={ratio:.4f}<=0.05", ratio <= 0.05),
        ("explained-by-serial", result.part.explainer == "super:serial-ab"),
    ])


def test_criterion_11_throughput_and_thread_determinism(desk_plant):
    ds = desk_plant
    candidates = CandidateSet()
    for cand in mine_serial(ds, min_support=4, max_len=2):
        candidates.add(cand.eid, cand.episode, cand.support)
    for cand in mine_parallel(ds, min_support=4, max_size=2):
        candidates.add(cand.eid, cand.episode, cand.support)
    episodes = [(c.eid, c.episode) for c in candidates][:10_000]

    t0 = time.perf_counter()
    rows, errors = rank_many(episodes, ds, candidates, exact=False, threads=4)
    elapsed = time.perf_counter() - t0

    subset = episodes[:1000]
    serial_rows, _ = rank_many(subset, ds, candidates, threads=1)
    parallel_rows, _ = rank_many(subset, ds, candidates, threads=4)
    deterministic = render_report(serial_rows) == render_report(parallel_rows)

    _report(11, [
        (f"mined>=10k ({len(candidates)})", len(episodes) == 10_000),
        (f"ranked-10k-in-{elapsed:.1f}s<60s", elapsed < 60.0 and not errors),
        ("thread-count-invariant", deterministic),
    ])
