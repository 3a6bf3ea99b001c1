import itertools
import math
from dataclasses import astuple

import numpy as np
import pytest

from episoderank.episodes import make_episode, parallel, serial
from episoderank.machine import build_machine
from episoderank.miner import CandidateSet
from episoderank.model import (
    EMPTY_SPEC,
    CollapsedAlphabet,
    MachineUnion,
    ModelParams,
    collect_statistics,
    fit,
    reach_table,
    support,
    transition_rates,
)
from episoderank.ranking import (
    EpisodeRanking,
    RankResult,
    kendall_tau,
    parse_report,
    rank_episode,
    rank_many,
    render_report,
    rho_eta,
    sort_rows,
    tail_exact,
    tail_normal,
    tail_poisson,
)

from conftest import dataset_from_strings
from oracles import rank, rank_combined, tail_exact_banded, tail_poisson_loop

# ln(1 - Phi(5)), computed with mpmath at 50 digits
LOG_SURVIVAL_Z5 = -15.064998393988726


def cover_by_length(machine, params, spec, dataset) -> dict[int, float]:
    """Cover probability of each sequence length: the sink column of one reach table."""
    counts = dataset.length_counts()
    union = MachineUnion([machine])
    table = reach_table(union, *transition_rates(union, [params], [spec]),
                        range(max(counts) + 1))
    return {k: float(table[k, machine.sink]) for k in counts}


class TestCoverProbabilities:
    def test_episode_longer_than_sequences(self):
        ds = dataset_from_strings(["ab", "ba"])
        ep = serial("abc")
        m = build_machine(ep)
        stats, _ = collect_statistics(m, ds)
        params = fit(m, EMPTY_SPEC, stats)
        assert rank(m, params, EMPTY_SPEC, ds, 0).mu == 0.0
        assert all(p == 0.0 for p in cover_by_length(m, params, EMPTY_SPEC, ds).values())

    def test_single_vertex_closed_form(self):
        rows = ["a" * 3, "b" * 5, "ab" * 4, "ba" * 6]
        ds = dataset_from_strings(rows)
        ep = serial("a")
        m = build_machine(ep)
        col = CollapsedAlphabet(("a", "*"), 1, {"a": 0})
        q = 0.37
        params = ModelParams(col, np.array([math.log(q / (1 - q)), 0.0]), 0.0, 0.0, 1)
        for k, p in cover_by_length(m, params, EMPTY_SPEC, ds).items():
            assert p == pytest.approx(1.0 - (1.0 - q) ** k, abs=1e-12)

    def test_p_monotone_in_length(self):
        ds = dataset_from_strings(["abcd", "abcdabcd", "aabbccdd", "ab"])
        ep = make_episode(["a", "b", "c", "d"], [(0, 1), (0, 2), (1, 3), (2, 3)])
        m = build_machine(ep)
        stats, _ = collect_statistics(m, ds)
        params = fit(m, EMPTY_SPEC, stats)
        p = cover_by_length(m, params, EMPTY_SPEC, ds)
        ordered = [p[k] for k in sorted(p)]
        assert ordered == sorted(ordered)

    def test_rank_sums_cover_over_length_classes(self):
        # mu and sigma2 add the length classes in ascending order, the order
        # in which the exact tail convolves them
        ds = dataset_from_strings(["abcdabcd", "ab", "abcd", "aabbccdd", "ab", "abcab"])
        m = build_machine(make_episode(["a", "b", "c"], [(0, 2)]))
        stats, observed = collect_statistics(m, ds)
        params = fit(m, EMPTY_SPEC, stats)
        p = cover_by_length(m, params, EMPTY_SPEC, ds)
        counts = ds.length_counts()
        assert list(counts) == [2, 4, 5, 8]
        for exact in (False, True):
            r = rank(m, params, EMPTY_SPEC, ds, observed, exact=exact)
            assert r.mu == sum(c * p[k] for k, c in counts.items())
            assert r.sigma2 == sum(c * p[k] * (1.0 - p[k]) for k, c in counts.items())
        lengths = sorted(counts)
        expected = tail_exact([p[k] for k in lengths], observed, [counts[k] for k in lengths])
        assert rank(m, params, EMPTY_SPEC, ds, observed, exact=True).rank == -expected


class TestTailExact:
    def test_zero_observed(self):
        assert tail_exact([0.4, 0.2], 0) == 0.0

    def test_two_halves(self):
        assert tail_exact([0.5, 0.5], 1) == pytest.approx(math.log(0.75), abs=1e-12)

    def test_observed_above_count_is_impossible(self):
        assert tail_exact([0.5] * 3, 4) == -math.inf

    def test_matches_subset_enumeration(self):
        rng = np.random.default_rng(0)
        ps = list(rng.uniform(0.05, 0.9, size=12))
        for n in range(13):
            brute = 0.0
            for bits in itertools.product([0, 1], repeat=12):
                if sum(bits) >= n:
                    term = 1.0
                    for b, p in zip(bits, ps):
                        term *= p if b else 1.0 - p
                    brute += term
            assert math.exp(tail_exact(ps, n)) == pytest.approx(brute, abs=1e-12)

    def test_monotone_in_observed_and_probs(self):
        ps = [0.1, 0.4, 0.7, 0.2, 0.5]
        surv = [tail_exact(ps, n) for n in range(6)]
        assert surv == sorted(surv, reverse=True)
        bigger = [min(p + 0.1, 1.0) for p in ps]
        for n in range(6):
            assert tail_exact(bigger, n) >= tail_exact(ps, n)

    def test_deep_tail_stays_finite(self):
        log_s = tail_exact([0.001] * 2000, 50)
        assert math.isfinite(log_s) and log_s < -100


def _sequential_dp(probs, n):
    """Reference: one absorbing count-DP step per Bernoulli, in log space."""
    if n <= 0:
        return 0.0
    if n > len(probs):
        return -math.inf
    log_f = np.full(n, -np.inf)
    log_f[0] = 0.0
    absorbed = -np.inf
    with np.errstate(divide="ignore"):
        for p in probs:
            lp, lq = math.log(p) if p > 0 else -math.inf, math.log1p(-p) if p < 1 else -math.inf
            absorbed = np.logaddexp(absorbed, log_f[n - 1] + lp)
            log_f[1:] = np.logaddexp(log_f[1:] + lq, log_f[:-1] + lp)
            log_f[0] += lq
    return float(absorbed)


class TestTailExactGrouped:
    def test_equals_per_sequence_expansion(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            k = int(rng.integers(1, 8))
            ps = rng.uniform(0.0, 0.3, size=k)
            cs = rng.integers(1, 60, size=k)
            expanded = list(np.repeat(ps, cs))
            mu = float(ps @ cs)
            for n in (int(mu) + 1, int(mu + 3 * math.sqrt(mu)) + 2, int(3 * mu) + 5):
                grouped = tail_exact(ps, n, cs)
                assert grouped == pytest.approx(tail_exact(expanded, n), rel=1e-12)
                assert grouped == pytest.approx(_sequential_dp(expanded, n), rel=1e-12)

    def test_mixed_classes_match_enumeration(self):
        ps, cs = [0.3, 0.7, 0.05, 0.0, 1.0, 0.5], [3, 2, 4, 1, 1, 0]
        flat = [p for p, c in zip(ps, cs) for _ in range(c)]
        for n in range(len(flat) + 2):
            brute = 0.0
            for bits in itertools.product([0, 1], repeat=len(flat)):
                if sum(bits) >= n:
                    brute += math.prod(p if b else 1.0 - p for b, p in zip(bits, flat))
            assert math.exp(tail_exact(ps, n, cs)) == pytest.approx(brute, abs=1e-12)

    def test_deep_tail_against_high_precision(self):
        import mpmath as mp

        mp.mp.dps = 50
        ps, cs = [0.01, 0.015, 0.02, 0.03], [50, 50, 50, 50]
        pmf = [mp.mpf(1)]
        for p, c in zip(ps, cs):
            p = mp.mpf(p)
            binom = [mp.binomial(c, j) * p ** j * (1 - p) ** (c - j) for j in range(c + 1)]
            pmf = [mp.fsum(pmf[i] * binom[t - i]
                           for i in range(max(0, t - c), min(t, len(pmf) - 1) + 1))
                   for t in range(len(pmf) + c)]
        for n in (40, 120):
            expected = float(mp.log(mp.fsum(pmf[n:])))
            assert expected < -50
            assert tail_exact(ps, n, cs) == pytest.approx(expected, rel=1e-10)

    def test_near_certain_survival_has_no_rounding_bias(self):
        # P(X >= n) = 1 - 0.7**c to double precision: the log-factorials of a
        # large class must not leave a 1e-13 offset, which would print as a rank
        for c in (500, 3000):
            for n in (1, 5):
                assert abs(tail_exact([0.3, 0.01], n, [c, 400])) < 1e-15

    def test_degenerate_classes(self):
        assert tail_exact([0.0, 0.5], 1, [5, 2]) == pytest.approx(math.log(0.75), abs=1e-15)
        assert tail_exact([1.0, 0.5], 3, [2, 2]) == pytest.approx(math.log(0.75), abs=1e-15)
        assert tail_exact([0.9, 0.5], 1, [0, 2]) == pytest.approx(math.log(0.75), abs=1e-15)
        assert tail_exact([1.0], 3, [3]) == 0.0
        assert tail_exact([0.0], 1, [5]) == -math.inf
        assert tail_exact([0.5, 0.2], 6, [3, 2]) == -math.inf


class TestTailExactTilted:
    """The batched tilted tail against the banded convolution it replaced."""

    @staticmethod
    def _grouped_cases():
        rng = np.random.default_rng(14)
        cases = []  # (probs, counts, observed supports)
        for _ in range(30):
            k = int(rng.integers(1, 9))
            ps = rng.uniform(0.0, 0.5, size=k) * 10.0 ** -rng.integers(0, 4, size=k)
            ps[rng.random(k) < 0.15] = 0.0
            ps[rng.random(k) < 0.15] = 1.0
            cs = rng.integers(0, 120, size=k)
            total, mean = int(cs.sum()), float(ps @ cs)
            sd = math.sqrt(float((ps * (1 - ps)) @ cs))
            ns = {0, 1, total - 1, total, total + 1, math.floor(mean) - 1, math.floor(mean),
                  math.ceil(mean), int(mean + 2 * sd) + 1, int(mean + 8 * sd) + 3}
            cases.append((ps, cs, sorted(n for n in ns if n >= 0)))
        # deep tails, below -500
        cases.append((np.array([0.01, 0.02, 0.005, 0.03]), np.array([200, 150, 300, 100]),
                      [300, 500]))
        # n in the thousands, about a thousand sequences per class
        cases.append((np.array([0.2, 0.5, 0.35, 0.6]), np.array([1000, 900, 1100, 800]),
                      [1460, 1514, 1515, 1600, 1750]))
        return cases

    def test_matches_banded_convolution(self):
        deep = 0
        for ps, cs, ns in self._grouped_cases():
            got = tail_exact(np.tile(ps, (len(ns), 1)), np.array(ns), cs)  # one batch a case
            for n, value in zip(ns, got):
                expected = tail_exact_banded(ps, n, cs)
                deep += -math.inf < expected < -500
                assert value == pytest.approx(expected, rel=1e-10)  # abs 1e-12 near 0
        assert deep >= 2

    def test_large_class_against_high_precision(self):
        # 10^5 sequences in one class: log-gamma differences alone would be off
        # by about 3e-11 relative here
        import mpmath as mp

        mp.mp.dps = 40
        p, c = 2e-5, 100_000
        for n in (1, 10, 40):
            expected = float(mp.log(mp.betainc(n, c - n + 1, 0, p, regularized=True)))
            assert tail_exact([p], n, [c]) == pytest.approx(expected, rel=1e-13)

    def test_member_value_does_not_depend_on_its_batch(self, monkeypatch):
        from episoderank import ranking

        rng = np.random.default_rng(15)
        cs = rng.integers(0, 200, size=7)
        probs = rng.uniform(0.0, 0.3, size=(40, 7)) * 10.0 ** -rng.integers(0, 3, size=(40, 7))
        probs[rng.random((40, 7)) < 0.05] = 0.0
        probs[rng.random((40, 7)) < 0.05] = 1.0
        mean = probs @ cs
        n = np.maximum(0, np.round(mean + rng.normal(0.0, 4.0, size=40) * np.sqrt(mean + 1)))
        n = n.astype(int)
        batch = tail_exact(probs, n, cs)
        alone = [tail_exact(p, int(m), cs) for p, m in zip(probs, n)]
        assert all(isinstance(value, float) for value in alone)
        assert batch.tolist() == alone
        order = rng.permutation(40)
        assert tail_exact(probs[order], n[order], cs).tolist() == batch[order].tolist()
        monkeypatch.setattr(ranking, "_WINDOW_CELLS", 1)  # one member a window grid
        assert tail_exact(probs, n, cs).tolist() == batch.tolist()


class TestTailNormal:
    def test_symmetric_point(self):
        assert tail_normal(10.0, 4.0, 10.5) == pytest.approx(math.log(0.5), abs=1e-12)

    def test_z5_oracle_value(self):
        # mu=0, sigma=1, n placed so the corrected z is exactly 5
        assert tail_normal(0.0, 1.0, 5.5) == pytest.approx(LOG_SURVIVAL_Z5, abs=1e-9)

    def test_extreme_z_finite(self):
        log_s = tail_normal(0.0, 1.0, 1800.5)
        assert math.isfinite(log_s) and log_s < -1.6e6

    def test_degenerate_variance(self):
        assert tail_normal(5.0, 0.0, 5) == 0.0
        assert tail_normal(5.0, 0.0, 6) == -math.inf

    def test_close_to_exact_at_scale(self):
        m, p = 2000, 0.1
        mu, s2 = m * p, m * p * (1 - p)
        n = int(mu + 3 * math.sqrt(s2))
        exact = tail_exact([p] * m, n)
        approx = tail_normal(mu, s2, n)
        assert abs(approx - exact) / abs(exact) < 0.05

    def test_method_consistency_randomized(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            m = int(rng.integers(1000, 3000))
            mu_target = rng.uniform(10.5, 50.0)
            p = mu_target / m
            n = int(mu_target + rng.uniform(1.0, 3.0) * math.sqrt(mu_target * (1 - p)))
            exact = tail_exact([p] * m, n)
            approx = tail_normal(m * p, m * p * (1 - p), n)
            assert abs(approx - exact) / abs(exact) <= 0.10


class TestTailPoisson:
    def test_zero_observed(self):
        assert tail_poisson(3.0, 0) == 0.0

    def test_closed_form_mu1_n2(self):
        assert tail_poisson(1.0, 2) == pytest.approx(math.log(1 - 2 * math.exp(-1)), abs=1e-12)

    def test_zero_mean_sentinel(self):
        assert tail_poisson(0.0, 1) == -math.inf

    def test_deep_tail_against_high_precision(self):
        import mpmath as mp

        mp.mp.dps = 40
        for mu, n in [(5.0, 200), (0.5, 40), (9.9, 1000), (2.0, 12)]:
            expected = float(mp.log(mp.gammainc(n, 0, mu, regularized=True)))
            assert tail_poisson(mu, n) == pytest.approx(expected, rel=1e-12)

    def test_bulk_against_scipy(self):
        from scipy.stats import poisson

        for mu, n in [(50.0, 40), (50.0, 55), (8.0, 3)]:
            assert tail_poisson(mu, n) == pytest.approx(poisson.logsf(n - 1, mu), rel=1e-10)


class TestApproxTailBatches:
    def test_poisson_batch_equals_the_scalar_series(self):
        rng = np.random.default_rng(16)
        mu = rng.uniform(0.0, 12.0, size=300)
        mu[:4] = 0.0
        n = rng.integers(0, 45, size=300)
        got = tail_poisson(mu, n)
        assert got.tolist() == [tail_poisson_loop(float(m), int(k)) for m, k in zip(mu, n)]
        assert isinstance(tail_poisson(2.0, 7), float)

    def test_normal_batch_equals_one_member_calls(self):
        rng = np.random.default_rng(18)
        mu = rng.uniform(10.0, 80.0, size=100)
        sigma2 = rng.uniform(0.0, 60.0, size=100)
        sigma2[:5] = 0.0
        n = rng.integers(0, 150, size=100)
        got = tail_normal(mu, sigma2, n)
        assert got.tolist() == [tail_normal(float(m), float(s), int(k))
                                for m, s, k in zip(mu, sigma2, n)]
        assert isinstance(tail_normal(10.0, 4.0, 12), float)


def _simple_ranking(ds, episode, exact=False):
    m = build_machine(episode)
    stats, observed = collect_statistics(m, ds)
    params = fit(m, EMPTY_SPEC, stats)
    return rank(m, params, EMPTY_SPEC, ds, observed, exact=exact)


class TestRank:
    def test_zero_observed_rank_zero(self):
        ds = dataset_from_strings(["xy", "yx"])
        for exact in (False, True):
            r = _simple_ranking(ds, serial("ab"), exact=exact)
            assert r.rank == 0.0 and r.observed == 0

    def test_method_selection(self):
        rows = ["ab" for _ in range(50)] + ["xy" for _ in range(50)]
        ds = dataset_from_strings(rows)
        r = _simple_ranking(ds, serial("ab"))
        assert (r.method == "poisson") == (r.mu <= 10.0)
        big = dataset_from_strings(["ab"] * 400)
        r2 = _simple_ranking(big, serial("ab"))
        assert r2.mu > 10.0 and r2.method == "normal"

    def test_impossible_support_gives_infinite_rank(self):
        # no sequence is long enough to cover the episode, yet two are said to
        ds = dataset_from_strings(["ab", "ba", "ab"])
        m = build_machine(serial("abc"))
        stats, _ = collect_statistics(m, ds)
        params = fit(m, EMPTY_SPEC, stats)
        for exact in (False, True):
            r = rank(m, params, EMPTY_SPEC, ds, 2, exact=exact)
            assert r.mu == 0.0 and r.rank == math.inf


class TestRankCombined:
    @staticmethod
    def _follower_corpus(rng, pairs=40, total=250):
        rows = []
        for i in range(total):
            seq = list(rng.choice(list("uvwxyz"), size=12))
            if i < pairs:
                pos = int(rng.integers(0, 10))
                seq[pos:pos + 2] = ["a", "b"]
            rows.append("".join(seq))
        rng.shuffle(rows)
        return dataset_from_strings(rows)

    def test_serial_explains_parallel_pair(self):
        rng = np.random.default_rng(5)
        ds = self._follower_corpus(rng)
        candidates = CandidateSet()
        candidates.add("serial-ab", serial("ab"))
        candidates.add("parallel-ab", parallel("ab"))
        result = rank_episode("parallel-ab", parallel("ab"), ds, candidates)
        assert result.part.explainer == "super:serial-ab"
        assert result.part.rank < 0.25 * result.ind.rank

    def test_two_vertex_serial_falls_back_to_independence(self):
        rng = np.random.default_rng(6)
        ds = self._follower_corpus(rng)
        result = rank_episode("s", serial("ab"), ds, CandidateSet())
        assert result.part.explainer == "independence"
        assert result.part.rank == result.ind.rank

    def test_combined_is_minimum_over_evaluations(self):
        rng = np.random.default_rng(7)
        ds = self._follower_corpus(rng)
        candidates = CandidateSet()
        candidates.add("serial-ab", serial("ab"))
        ep = make_episode(["a", "b", "u"], [(0, 1)])
        result = rank_episode("e", ep, ds, candidates, keep_evaluations=True)
        assert result.part.rank == min(ev.result.rank for ev in result.evaluations)

    def test_explainer_refits_to_identical_rank(self):
        rng = np.random.default_rng(8)
        ds = self._follower_corpus(rng)
        candidates = CandidateSet()
        candidates.add("serial-ab", serial("ab"))
        ep = parallel("ab")
        result = rank_episode("p", ep, ds, candidates, keep_evaluations=True)
        winner = next(ev for ev in result.evaluations
                      if ev.explainer == result.part.explainer)
        m = build_machine(ep)
        stats, observed = collect_statistics(m, ds)
        params = fit(m, winner.spec, stats)
        again = rank(m, params, winner.spec, ds, observed, explainer=winner.explainer)
        assert again.rank == result.part.rank  # bit-identical

    def test_empty_dataset(self):
        ds = dataset_from_strings([])
        result = rank_episode("e", serial("ab"), ds, CandidateSet())
        assert result.support == 0 and result.part.rank == 0.0

    def test_ranks_that_print_alike_keep_the_first_model(self, monkeypatch):
        # each later model ranks one ulp lower than the one before: the winner
        # must not follow that noise, but stay the first model evaluated
        from episoderank import ranking

        real_rank_models = ranking.rank_models
        last = [12.0]

        def noisy_rank_models(*args, **kwargs):
            results = real_rank_models(*args, **kwargs)
            for result in results:  # in evaluation order
                if result.explainer != ranking.INDEPENDENCE:
                    result.rank = last[0] = math.nextafter(last[0], 0.0)
            return results

        monkeypatch.setattr(ranking, "rank_models", noisy_rank_models)
        rng = np.random.default_rng(5)
        ds = self._follower_corpus(rng)
        candidates = CandidateSet()
        candidates.add("serial-bac", serial("bac"))
        result = rank_episode("abc", make_episode("abc", [(0, 2), (1, 2)]), ds, candidates,
                              keep_evaluations=True)
        explainers = [ev.explainer for ev in result.evaluations if ev.result.rank >= 11.0]
        assert explainers == ["prefix:{a}", "prefix:{b}", "prefix:{a,b}", "super:serial-bac"]
        assert result.part.explainer == "prefix:{a}"

    @pytest.mark.parametrize("exact", [False, True])
    def test_results_do_not_depend_on_the_batch(self, monkeypatch, exact):
        # several boosted models share one batch with other episodes, one of
        # which fails its fit; each model's result is its one-model rank
        from episoderank import model, ranking

        monkeypatch.setattr(ranking, "BATCH_CELLS", 1 << 30)
        real_fit = ranking.fit

        def failing_for_pair(machine, spec, stats):
            if machine.episode == parallel("ab"):
                raise model.NumericalFitError("non-finite gradient during fitting")
            return real_fit(machine, spec, stats)

        monkeypatch.setattr(ranking, "fit", failing_for_pair)
        rng = np.random.default_rng(5)
        ds = self._follower_corpus(rng)
        candidates = CandidateSet()
        candidates.add("serial-bac", serial("bac"))
        candidates.add("serial-ab", serial("ab"))
        abc = make_episode("abc", [(0, 2), (1, 2)])
        batch = [("ab", serial("ab")), ("pair", parallel("ab")), ("abc", abc),
                 ("u", serial("u")), ("bac", serial("bac"))]
        assert len(ranking._batches(batch, ds, 1)) == 1
        rows, errors = rank_many(batch, ds, candidates, exact=exact)
        assert errors == [("pair", "non-finite gradient during fitting")]
        m = build_machine(abc)
        stats, observed = collect_statistics(m, ds)
        in_batch = ranking._rank_batch(batch, ds, candidates, exact, keep_evaluations=True)[2]
        alone = rank_episode("abc", abc, ds, candidates, exact=exact, keep_evaluations=True)
        for result in (in_batch, alone):
            assert len([ev for ev in result.evaluations if not ev.spec.is_empty]) >= 4
            for ev in result.evaluations:
                one = rank(m, ev.params, ev.spec, ds, observed, exact=exact,
                           explainer=ev.explainer)
                assert _bits(ev.result) == _bits(one)
        row = next(r for r in rows if r.eid == "abc")
        assert (_bits(row.ind), _bits(row.part)) == (_bits(alone.ind), _bits(alone.part))

    def test_rank_combined_wrapper(self):
        rng = np.random.default_rng(9)
        ds = self._follower_corpus(rng)
        r = rank_combined(parallel("ab"), ds)
        assert r.observed == support(build_machine(parallel("ab")), ds)


def _bits(result: RankResult) -> tuple:
    """Every field of a result, floats by their exact bits."""
    return tuple(x.hex() if isinstance(x, float) else x for x in astuple(result))


class TestRankMany:
    def test_pool_gets_at_most_one_worker_per_episode(self, monkeypatch):
        # a stand-in pool runs the workers' calls in this process and records
        # what it was asked for; no process is started
        from types import SimpleNamespace

        from episoderank import ranking

        asked = []

        class InlinePool:
            def __init__(self, processes, initializer, initargs):
                initializer(*initargs)
                self.processes = processes

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, func, items, chunksize):
                asked.append((self.processes, chunksize))
                return [func(item) for item in items]

        monkeypatch.setattr(ranking, "_WORKER", {})
        monkeypatch.setattr(ranking, "multiprocessing", SimpleNamespace(
            get_context=lambda method: SimpleNamespace(Pool=InlinePool)))
        rng = np.random.default_rng(12)
        ds = dataset_from_strings(["".join(rng.choice(list("abuvw"), size=8))
                                   for _ in range(60)])
        eps = [(f"s-{x}{y}", serial(x + y)) for x in "abu" for y in "abu" if x != y]
        candidates = CandidateSet()
        for eid, ep in eps:
            candidates.add(eid, ep)
        in_process = rank_many(eps, ds, candidates, threads=1)
        # (workers, chunksize) per pool; one thread or three episodes start none
        for threads, expected in ((64, [(6, 1)]), (2, [(2, 1)]), (1, [])):
            assert rank_many(eps, ds, candidates, threads=threads) == in_process
            assert asked == expected
            asked.clear()
        assert rank_many(eps[:3], ds, candidates, threads=2) == rank_many(eps[:3], ds, candidates)
        assert asked == []


class TestBatches:
    @staticmethod
    def _corpus_and_candidates():
        from episoderank.datagen import default_config, generate
        from episoderank.miner import mine_parallel, mine_serial

        ds = generate(default_config("plant", seed=7, num_sequences=300, counts=(30, 8, 6)))
        candidates = CandidateSet()
        for mined in (mine_serial(ds, 10, 3), mine_parallel(ds, 10, 2)):
            for cand in mined:
                candidates.add(cand.eid, cand.episode, cand.support)
        # labels absent from the corpus, a repeated label and a DAG beside the mined ones
        extra = [("absent", serial(["zz", "a"])), ("twice", serial("aa")),
                 ("diamond", make_episode(list("knml"), [(0, 1), (0, 2), (1, 3), (2, 3)]))]
        # many episodes of one shape, so that batches tile one skeleton: with
        # repeated labels, with labels absent from the corpus, and both
        extra += [("aab", serial("aab")), ("aa|b", make_episode("aab", [(0, 1)])),
                  ("zz|zz", serial(["zz", "zz"])), ("zz-zy", serial(["zz", "zy"]))]
        for x in "abcdefkn":
            extra += [(f"zz-{x}", serial(["zz", x])), (f"{x}|zz", parallel([x, "zz"])),
                      (f"{x}-{x}-zz", serial([x, x, "zz"])), (f"{x}-{x}-e", serial([x, x, "e"]))]
        for eid, ep in extra:
            candidates.add(eid, ep)
        return ds, candidates

    @pytest.mark.parametrize("exact", [False, True])
    def test_batch_bound_of_one_gives_identical_reports(self, monkeypatch, exact):
        from episoderank import ranking

        ds, candidates = self._corpus_and_candidates()
        episodes = [(c.eid, c.episode) for c in candidates]
        assert any(ev.explainer.startswith("super:") for ev in rank_episode(
            "ab", parallel("ab"), ds, candidates, keep_evaluations=True).evaluations)
        reports = []
        for bound in (ranking.BATCH_CELLS, 1, 1 << 30):
            monkeypatch.setattr(ranking, "BATCH_CELLS", bound)  # 1: one episode a batch
            rows, errors = rank_many(episodes, ds, candidates, exact=exact)
            assert not errors
            reports.append(render_report(rows))
        assert reports[0] == reports[1] == reports[2]
        alone = [rank_episode(eid, ep, ds, candidates, exact=exact) for eid, ep in episodes]
        assert reports[0] == render_report(alone)

    def test_long_sequences_share_batches(self, monkeypatch):
        # rows joined into 3 sequences of about 5 000 events: an episode's
        # reach rows are its states at the 3 lengths, so episodes share batches
        from episoderank import ranking
        from episoderank.datagen import Dataset, default_config, generate, plant_patterns

        ds = generate(default_config("plant", seed=4, num_sequences=600, counts=(40, 8, 6)))
        joined = Dataset(ds.alphabet, ds.tokens, ds.offsets[[0, 200, 400, 600]])
        # counted at one reach row per length up to the longest, every episode
        # of two or more vertices would fill more than half the default bound
        assert min(joined.length_counts()) << 2 > ranking.BATCH_CELLS // 2
        candidates = CandidateSet()
        for i, ep in enumerate(plant_patterns()):
            candidates.add(f"planted-{i}", ep)
        for x, y in itertools.permutations("abcdefn", 2):
            candidates.add(f"{x}{y}", serial(x + y))
            candidates.add(f"{x}|{y}", parallel(x + y))
        episodes = [(c.eid, c.episode) for c in candidates]
        assert max(len(batch) for batch in ranking._batches(episodes, joined, 1)) > 1
        reports = []
        for bound in (ranking.BATCH_CELLS, 1):
            monkeypatch.setattr(ranking, "BATCH_CELLS", bound)
            rows, errors = rank_many(episodes, joined, candidates)
            reports.append(render_report(rows, errors=errors))
        assert reports[0] == reports[1]

    def test_bad_episodes_leave_the_rest_of_their_batch(self):
        from episoderank.episodes import VERTEX_CAP

        ds, candidates = self._corpus_and_candidates()
        good = [(c.eid, c.episode) for c in candidates][:40]
        bad = [("non-strict", parallel("aa")),
               ("over-cap", parallel([f"n{i:03d}" for i in range(VERTEX_CAP + 1)]))]
        mixed = good[:10] + bad[:1] + good[10:30] + bad[1:] + good[30:]
        rows, errors = rank_many(mixed, ds, candidates)
        assert [eid for eid, _ in errors] == ["non-strict", "over-cap"]
        assert "strict" in errors[0][1] and "cap" in errors[1][1]
        assert rows == rank_many(good, ds, candidates)[0]


class TestTwoClusterCorpus:
    def test_planted_pair_of_chains(self):
        # two independent 3-chains planted into noise: each chain keeps a high
        # partition rank, while both their concatenation and their side-by-side
        # combination are explained away
        from episoderank.datagen import default_config, generate

        ds = generate(default_config("plant2", seed=2, num_sequences=2000,
                                     counts=(80, 80)))
        chain1, chain2 = serial("abc"), serial("def")
        concat = serial("abcdef")
        combined = make_episode(list("abcdef"),
                                [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
        candidates = CandidateSet()
        for eid, ep in [("abc", chain1), ("def", chain2),
                        ("concat", concat), ("combined", combined)]:
            candidates.add(eid, ep)

        r_chain = rank_episode("abc", chain1, ds, candidates)
        assert r_chain.part.rank > 100.0

        r_concat = rank_episode("concat", concat, ds, candidates)
        assert r_concat.ind.rank > 20.0
        assert r_concat.part.rank < 5.0
        assert r_concat.part.explainer.startswith(("prefix:", "super:"))

        r_combined = rank_episode("combined", combined, ds, candidates)
        assert r_combined.ind.rank > 20.0
        assert r_combined.part.rank < 1.0


class TestRhoEta:
    def test_equal_ranks(self):
        assert rho_eta(7.0, 7.0) == (0.0, 0.0)
        assert rho_eta(0.0, 0.0) == (0.0, 0.0)

    def test_plain_arithmetic(self):
        rho, eta = rho_eta(10.0, 2.0)
        assert rho == pytest.approx(4.0) and eta == pytest.approx(-0.8)

    def test_zero_denominators(self):
        rho, eta = rho_eta(10.0, 0.0)
        assert rho == math.inf and eta == -1.0
        rho, eta = rho_eta(0.0, 10.0)
        assert eta == math.inf and rho == -1.0


class TestKendallTau:
    def test_identical(self):
        a = [("a", 1.0), ("b", 2.0), ("c", 3.0)]
        assert kendall_tau(a, a) == pytest.approx(1.0)

    def test_reversed(self):
        a = [("a", 1.0), ("b", 2.0), ("c", 3.0)]
        b = [("a", 3.0), ("b", 2.0), ("c", 1.0)]
        assert kendall_tau(a, b) == pytest.approx(-1.0)

    def test_all_tied_is_zero(self):
        a = [("a", 1.0), ("b", 1.0), ("c", 1.0)]
        b = [("a", 3.0), ("b", 2.0), ("c", 1.0)]
        assert kendall_tau(a, b) == 0.0

    def test_too_few_items(self):
        assert math.isnan(kendall_tau([("a", 1.0)], [("a", 2.0)]))

    def test_id_mismatch(self):
        with pytest.raises(ValueError):
            kendall_tau([("a", 1.0), ("b", 2.0)], [("a", 1.0), ("c", 2.0)])


class TestReport:
    @staticmethod
    def _rows():
        rng = np.random.default_rng(11)
        rows = ["".join(rng.choice(list("abuvw"), size=8)) for _ in range(60)]
        ds = dataset_from_strings(rows)
        eps = [("p-ab", parallel("ab")), ("s-ab", serial("ab")), ("s-u", serial("u"))]
        candidates = CandidateSet()
        for eid, ep in eps:
            candidates.add(eid, ep)
        ranked, errors = rank_many(eps, ds, candidates)
        assert not errors
        return ranked

    def test_sorted_by_partition_rank(self):
        rows = sort_rows(self._rows())
        ranks = [r.part.rank for r in rows]
        assert ranks == sorted(ranks, reverse=True)

    def test_ties_at_printed_precision_sort_by_id(self):
        x = 12.345678901234
        rows = [EpisodeRanking(eid, serial("a"), 3,
                               RankResult(1.0, 1.0, 3, r, "exact", "independence"),
                               RankResult(1.0, 1.0, 3, r, "exact", "independence"))
                for eid, r in (("b", math.nextafter(x, math.inf)), ("a", x))]
        assert [r.eid for r in sort_rows(rows)] == ["a", "b"]

    def test_render_parse_round_trip(self):
        # an id may start with "#" like the comment lines, which stay comments
        fitted = RankResult(1.0, 1.0, 3, 0.5, "poisson", "independence")
        rows = self._rows() + [EpisodeRanking("#x", serial("x"), 3, fitted, fitted)]
        skips = [("y", "fit failed")]
        text = render_report(rows, ["config"], errors=skips)
        parsed = parse_report(text)
        assert len(parsed) == 4
        assert {r["id"] for r in parsed} == {"p-ab", "s-ab", "s-u", "#x"}
        assert text == render_report(rows, ["config"], errors=skips)  # byte stable

    def test_log10_scales_ranks_only(self):
        rows = self._rows()
        plain = parse_report(render_report(rows))
        scaled = parse_report(render_report(rows, log10=True))
        for a, b in zip(plain, scaled):
            if a["rank_part"] > 0:
                assert b["rank_part"] == pytest.approx(a["rank_part"] / math.log(10), rel=1e-9)
            assert b["mu_part"] == a["mu_part"]
