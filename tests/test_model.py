import itertools
import math

import numpy as np
import pytest

from episoderank.datagen import (
    Alphabet,
    default_config,
    generate,
    plant_patterns,
)
from episoderank import model
from episoderank.episodes import make_episode, parallel, serial, strictify
from episoderank.machine import block_prefix, block_super, build_machine
from episoderank.model import (
    EMPTY_SPEC,
    GRAD_TOL,
    MAX_ITER,
    T_CAP,
    CollapsedAlphabet,
    ModelParams,
    NumericalFitError,
    PartitionSpec,
    StateStats,
    collapse_alphabet,
    MachineUnion,
    collect_statistics,
    fit,
    fit_independence,
    gradient_hessian,
    log_likelihood,
    reach_table,
    transition_rates,
    walk,
)

from conftest import dataset_from_strings, random_strict_episode
from oracles import (
    conditional_label_prob,
    coords,
    greedy,
    identity_collapse,
    masks_of,
    newton_independence,
    rank,
    reach_table_by_add_at,
    sequence_log_prob,
    sequential_statistics,
    symbol_rows,
    transition_rates_from_probs,
)


def diamond():
    return make_episode(["a", "b", "c", "d"], [(0, 1), (0, 2), (1, 3), (2, 3)])


def random_instance(rng, max_vertices=4):
    """Random (machine, spec, stats) triple with synthetic counts."""
    ep = random_strict_episode(rng, "ab", max_vertices)
    m = build_machine(ep)
    col = collapse_alphabet(ep)
    edges = list(range(len(m.edge_src)))
    rng.shuffle(edges)
    half = len(edges) // 2
    spec = PartitionSpec(frozenset(edges[:half][:3]), frozenset(edges[half:][:3]))
    n = rng.integers(0, 25, size=(m.num_states, col.size)).astype(float)
    stats = StateStats(col, n.sum(axis=1), n)
    return m, spec, stats


def random_params(rng, col, t_scale=1.0):
    u = rng.normal(size=col.size)
    u[col.star] = 0.0
    return ModelParams(col, u, float(rng.normal(scale=t_scale)),
                       float(rng.normal(scale=t_scale)), col.star)


def mixed_members(rng):
    """Machines, params and specs of a union's members: every class count from
    2 to 9 (from 8 classes on, NumPy sums a row pairwise), each machine twice,
    once plain and once boosted, with the plain and boosted members
    interleaved."""
    machines, params, specs = [], [], []
    for k in range(1, 9):
        edges = [(i, j) for i in range(k) for j in range(i + 1, k) if rng.random() < 0.3]
        m = build_machine(make_episode(list("abcdefgh"[:k]), edges))
        col = collapse_alphabet(m.episode)
        order = list(range(len(m.edge_src)))
        rng.shuffle(order)
        third = len(order) // 3
        boosted = PartitionSpec(frozenset(order[:third]), frozenset(order[third:2 * third]))
        plain = ModelParams(col, random_params(rng, col).u, 0.0, 0.0, col.star)
        models = [(plain, EMPTY_SPEC), (random_params(rng, col, t_scale=2.0), boosted)]
        for p, spec in models[::-1] if k % 2 else models:
            machines.append(m)
            params.append(p)
            specs.append(spec)
    return machines, params, specs


class TestCollapse:
    def test_maps_absent_symbols_to_star(self):
        col = collapse_alphabet(serial("ab"))
        assert col.classes == ("a", "b", "*")
        assert [col.class_of(s) for s in "abcde"] == [0, 1, 2, 2, 2]

    def test_full_alphabet_keeps_identity_plus_unused_star(self):
        alpha = Alphabet("ab")
        col = collapse_alphabet(serial("ab"))
        assert col.classes == ("a", "b", "*")
        assert [col.class_of(s) for s in alpha.symbols] == [0, 1]

    def test_parameter_dimension_bound(self):
        ep = diamond()
        col = collapse_alphabet(ep)
        assert col.size + 2 <= ep.n + 3


class TestStatistics:
    def test_hand_trace(self):
        ds = dataset_from_strings(["ab"])
        m = build_machine(serial("ab"))
        stats = collect_statistics(m, ds)[0]
        assert stats.c.tolist() == [1.0, 1.0, 0.0]
        assert stats.n[0].tolist() == [1.0, 0.0, 0.0]  # classes a, b, *
        assert stats.n[1].tolist() == [0.0, 1.0, 0.0]

    def test_empty_dataset_zero(self):
        ds = dataset_from_strings([])
        stats = collect_statistics(build_machine(serial("ab")), ds)[0]
        assert stats.c.sum() == 0

    def test_event_conservation(self):
        rng = np.random.default_rng(2)
        rows = ["".join(rng.choice(list("abcxyz"), size=10)) for _ in range(30)]
        ds = dataset_from_strings(rows)
        for _ in range(10):
            ep = random_strict_episode(rng, "abc", 4)
            stats = collect_statistics(build_machine(ep), ds)[0]
            assert stats.c.sum() == ds.total_events
            assert np.array_equal(stats.n.sum(axis=1), stats.c)

    def test_support_comes_from_same_pass(self):
        ds = dataset_from_strings(["ab", "ba", "aab"])
        m = build_machine(serial("ab"))
        _, covered = collect_statistics(m, ds)
        assert covered == 2


class TestLockstepWalker:
    """``collect_statistics`` against the per-event walk it replaced."""

    @staticmethod
    def datasets(rng):
        yield dataset_from_strings([])
        yield dataset_from_strings(["", "", ""])
        yield dataset_from_strings(["xyz", "", "zzyx"])  # no episode label anywhere
        yield dataset_from_strings(["aaaa", "abab", "", "bbaa", "a"])
        for _ in range(30):
            rows = ["".join(rng.choice(list("abcxy"), size=int(rng.integers(0, 13))))
                    for _ in range(int(rng.integers(1, 25)))]
            yield dataset_from_strings(rows)
        for _ in range(4):  # a few long rows: many episode events per sequence
            rows = ["".join(rng.choice(list("abcxy"), size=int(rng.integers(100, 400))))
                    for _ in range(int(rng.integers(1, 4)))]
            yield dataset_from_strings(rows)

    @staticmethod
    def episodes(rng):
        # "d" never occurs in the corpora; repeated labels come as chains
        fixed = [parallel(""), serial("a"), serial("aa"), serial("aba"), serial("ad"),
                 parallel("ab"), diamond()]
        return fixed + [random_strict_episode(rng, "abcd", 4) for _ in range(20)]

    def test_matches_sequential_oracle_exactly(self):
        rng = np.random.default_rng(61)
        episodes = self.episodes(rng)
        for ds in self.datasets(rng):
            for ep in episodes:
                m = build_machine(ep)
                for col in (collapse_alphabet(ep), identity_collapse(ds.alphabet)):
                    stats, covered = collect_statistics(m, ds, col)
                    want, want_covered = sequential_statistics(m, ds, col)
                    assert np.array_equal(stats.n, want.n), (ep, symbol_rows(ds))
                    assert np.array_equal(stats.c, want.c)
                    assert covered == want_covered
                    assert stats.c.sum() == ds.total_events

    def test_matches_oracle_on_a_planted_corpus(self):
        ds = generate(default_config("plant", seed=3, num_sequences=300, counts=(30, 10, 6)))
        for ep in plant_patterns() + [serial(["a", "b", "a"]), parallel(["k", "n002", "n003"])]:
            m = build_machine(ep)
            stats, covered = collect_statistics(m, ds)
            want, want_covered = sequential_statistics(m, ds)
            assert np.array_equal(stats.n, want.n) and np.array_equal(stats.c, want.c)
            assert covered == want_covered


class TestUnionWalk:
    """One walk over a disjoint union of machines, member by member against
    the per-event walk."""

    @staticmethod
    def members(rng):
        # the empty episode, repeated labels, "d" absent from every corpus,
        # serial, parallel and DAG shapes
        fixed = [parallel(""), serial("a"), serial("aa"), serial("aba"), serial("ad"),
                 parallel("ab"), parallel("abc"), diamond(), serial("d")]
        mixed = fixed + [random_strict_episode(rng, "abcd", 4) for _ in range(12)]
        order = rng.permutation(len(mixed))
        return [mixed[i] for i in order]

    def test_members_match_the_sequential_oracle(self):
        rng = np.random.default_rng(64)
        for ds in TestLockstepWalker.datasets(rng):
            episodes = self.members(rng)
            machines = [build_machine(ep) for ep in episodes]
            cols = [collapse_alphabet(ep) for ep in episodes]
            wanted = rng.random(len(episodes)) < 0.5
            supports, stats = walk(MachineUnion(machines), ds, cols, wanted)
            for m, col, want_stats, got_support, got in zip(machines, cols, wanted,
                                                            supports, stats):
                oracle, oracle_support = sequential_statistics(m, ds, col)
                assert got_support == oracle_support, (m.episode, symbol_rows(ds))
                if want_stats:
                    assert np.array_equal(got.n, oracle.n), (m.episode, symbol_rows(ds))
                    assert np.array_equal(got.c, oracle.c)
                else:
                    assert got is None

    def test_supports_without_statistics(self):
        rng = np.random.default_rng(65)
        ds = generate(default_config("plant", seed=4, num_sequences=300, counts=(30, 10, 6)))
        episodes = plant_patterns() + self.members(rng)
        machines = [build_machine(ep) for ep in episodes]
        cols = [collapse_alphabet(ep) for ep in episodes]
        supports, stats = walk(MachineUnion(machines), ds, cols)
        assert stats == [None] * len(episodes)
        assert supports == [sequential_statistics(m, ds)[1] for m in machines]

    def test_empty_union(self):
        ds = dataset_from_strings(["ab", "ba"])
        assert walk(MachineUnion([]), ds, []) == ([], [])


class TestIndependenceFromLabelCounts:
    def test_bit_identical_to_the_fit_on_walk_statistics(self):
        rng = np.random.default_rng(66)
        corpora = [generate(default_config("plant", seed=2, num_sequences=200,
                                           counts=(20, 6, 4))),
                   dataset_from_strings(["ab", "ba", "aab", "bb", "ab", "abba"]),
                   dataset_from_strings(["abc", "", "cc"])]
        for ds in corpora:
            labels = sorted(ds.alphabet.symbols)[:6] + ["absent"]
            episodes = [random_strict_episode(rng, labels, 4) for _ in range(15)]
            cols = [collapse_alphabet(ep) for ep in episodes]
            batch = fit_independence(ds, cols)
            for ep, col, got in zip(episodes, cols, batch):
                m = build_machine(ep)
                want = fit(m, EMPTY_SPEC, collect_statistics(m, ds, col)[0])
                assert np.array_equal(got.u, want.u), ep
                assert got.pinned == want.pinned and got.t1 == got.t2 == 0.0
                alone = fit_independence(ds, [col])[0]
                assert np.array_equal(alone.u, got.u) and alone.pinned == got.pinned

    def test_empty_batch(self):
        assert fit_independence(dataset_from_strings(["ab"]), []) == []

    def test_zero_events_cannot_be_fitted(self):
        ds = dataset_from_strings(["", ""])
        with pytest.raises(NumericalFitError):
            fit_independence(ds, [collapse_alphabet(serial("ab"))])


class TestConditionalProb:
    def test_empty_spec_is_state_independent(self):
        m = build_machine(serial("ab"))
        col = CollapsedAlphabet(("a", "b", "*"), 2, {"a": 0, "b": 1})
        params = ModelParams(col, np.array([0.3, -0.2, 0.0]), 5.0, -5.0, 2)
        expected = np.exp(params.u) / np.exp(params.u).sum()
        for state in range(m.num_states):
            for cls, lab in enumerate(col.classes):
                p = conditional_label_prob(params, m, EMPTY_SPEC, state, lab)
                assert p == pytest.approx(expected[cls], abs=1e-15)

    def test_sink_uses_base_distribution(self):
        m = build_machine(serial("ab"))
        col = CollapsedAlphabet(("a", "b", "*"), 2, {"a": 0, "b": 1})
        spec = PartitionSpec(frozenset(range(len(m.edge_src))), frozenset())
        params = ModelParams(col, np.zeros(3), 3.0, 0.0, 2)
        assert conditional_label_prob(params, m, spec, m.sink, "a") == pytest.approx(1 / 3)

    def test_ln2_boost_gives_half(self):
        m = build_machine(serial("ab"))
        col = CollapsedAlphabet(("a", "b", "*"), 2, {"a": 0, "b": 1})
        # boost the b-edge out of state {a}
        (b_edge,) = [i for i, lab in enumerate(m.edge_labels) if lab == "b"]
        spec = PartitionSpec(frozenset([b_edge]), frozenset())
        params = ModelParams(col, np.zeros(3), math.log(2.0), 0.0, 2)
        assert conditional_label_prob(params, m, spec, 1, "b") == pytest.approx(0.5)


class TestLikelihood:
    def test_zero_stats(self):
        m = build_machine(serial("a"))
        col = CollapsedAlphabet(("a", "*"), 1, {"a": 0})
        stats = StateStats(col, np.zeros(2), np.zeros((2, 2)))
        x = np.array([1.0, 0.0, 0.0, 0.0])
        assert log_likelihood(stats, x, masks_of(m, EMPTY_SPEC, col)) == 0.0

    def test_single_state_closed_form(self):
        m = build_machine(serial("a"))
        col = CollapsedAlphabet(("a", "*"), 1, {"a": 0})
        n = np.zeros((2, 2))
        n[0] = [3.0, 1.0]
        stats = StateStats(col, n.sum(axis=1), n)
        x = np.array([math.log(3.0), 0.0, 0.0, 0.0])
        expected = 3 * math.log(0.75) + math.log(0.25)
        ll = log_likelihood(stats, x, masks_of(m, EMPTY_SPEC, col))
        assert ll == pytest.approx(expected, abs=1e-12)

    def test_matches_eventwise_evaluation(self):
        rng = np.random.default_rng(4)
        rows = ["".join(rng.choice(list("abcz"), size=8)) for _ in range(10)]
        ds = dataset_from_strings(rows)
        ep = make_episode(["a", "b", "c"], [(0, 1)])
        m = build_machine(ep)
        col = collapse_alphabet(ep)
        stats = collect_statistics(m, ds, col)[0]
        spec = PartitionSpec(frozenset([0]), frozenset([1]))
        params = random_params(rng, col)
        eventwise = sum(sequence_log_prob(m, params, spec, seq) for seq in symbol_rows(ds))
        ll = log_likelihood(stats, coords(params), masks_of(m, spec, col))
        assert ll == pytest.approx(eventwise, abs=1e-9)


class TestGradientHessian:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            m, spec, stats = random_instance(rng)
            x = coords(random_params(rng, stats.collapsed))
            masks = masks_of(m, spec, stats.collapsed)
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
            assert np.allclose(grad, fd, rtol=1e-5, atol=1e-6)

    def test_zero_gradient_at_empirical_frequencies(self):
        ds = dataset_from_strings(["ab", "ba", "aab", "bb"])
        ep = serial("ab")
        m = build_machine(ep)
        col = collapse_alphabet(ep)
        stats = collect_statistics(m, ds, col)[0]
        totals = stats.n.sum(axis=0)
        u = np.full(col.size, -25.0)
        nz = totals > 0
        u[nz] = np.log(totals[nz]) - np.log(totals[0])
        x = np.concatenate([u, [0.0, 0.0]])
        grad, _ = gradient_hessian(stats, x, masks_of(m, EMPTY_SPEC, col))
        assert np.abs(grad[:-2]).max() < 1e-9

    def test_hessian_matches_central_differences_of_gradient(self):
        rng = np.random.default_rng(26)
        h = 1e-6
        for _ in range(20):
            m, spec, stats = random_instance(rng)
            x = coords(random_params(rng, stats.collapsed))
            masks = masks_of(m, spec, stats.collapsed)
            _, hess = gradient_hessian(stats, x, masks)

            def grad_at(tweak):
                return gradient_hessian(stats, x + tweak, masks)[0]

            dim = len(hess)
            fd = np.zeros((dim, dim))
            for i in range(dim):
                e = np.zeros(dim)
                e[i] = h
                fd[:, i] = (grad_at(e) - grad_at(-e)) / (2 * h)
            assert np.abs(hess - fd).max() <= 1e-7 * np.abs(hess).max()

    def test_hessian_negative_semidefinite(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            m, spec, stats = random_instance(rng)
            x = coords(random_params(rng, stats.collapsed, t_scale=2.0))
            _, hess = gradient_hessian(stats, x, masks_of(m, spec, stats.collapsed))
            assert np.linalg.eigvalsh(hess).max() <= 1e-8

    def test_class_shift_is_a_null_direction(self):
        # adding one constant to every class weight changes no conditional
        rng = np.random.default_rng(27)
        for _ in range(20):
            m, spec, stats = random_instance(rng)
            x = coords(random_params(rng, stats.collapsed, t_scale=2.0))
            masks = masks_of(m, spec, stats.collapsed)
            grad, hess = gradient_hessian(stats, x, masks)
            K = stats.collapsed.size
            shift = np.concatenate([np.ones(K), [0.0, 0.0]])
            assert abs(grad[:K].sum()) <= 1e-12 * stats.c.sum()
            assert np.abs(hess @ shift).max() <= 1e-12 * stats.c.sum()
            c = rng.normal(scale=2.0)
            assert (abs(log_likelihood(stats, x + c * shift, masks)
                        - log_likelihood(stats, x, masks)) <= 1e-12 * stats.c.sum())


class TestFit:
    def test_boosted_fit_holds_the_pinned_class_and_the_floor(self):
        rng = np.random.default_rng(28)
        for _ in range(10):
            m, spec, stats = random_instance(rng)
            assert not spec.is_empty
            col = stats.collapsed
            # a label class that never occurs, then the catch-all class, whose
            # absence moves the gauge to the first label class with events
            for absent in (0, col.star):
                n = stats.n.copy()
                n[:, absent] = 0.0
                params = fit(m, spec, StateStats(col, n.sum(axis=1), n))
                zero = n.sum(axis=0) == 0
                assert params.pinned == (col.star if absent != col.star else 0)
                assert params.u[params.pinned] == 0.0
                assert np.all(params.u[zero] == -T_CAP)

    def test_independence_recovers_empirical(self):
        ds = dataset_from_strings(["ab", "ba", "aab", "bb", "ab"])
        ep = serial("ab")
        m = build_machine(ep)
        stats = collect_statistics(m, ds)[0]
        params = fit(m, EMPTY_SPEC, stats)
        totals = stats.n.sum(axis=0)
        freq = totals / totals.sum()
        probs = np.exp(params.u) / np.exp(params.u).sum()
        assert np.allclose(probs[:-1], freq[:-1], atol=1e-9)
        # the independence likelihood in closed form
        nz = totals > 0
        expected_ll = float((totals[nz] * np.log(freq[nz])).sum())
        masks = masks_of(m, EMPTY_SPEC, stats.collapsed)
        assert log_likelihood(stats, coords(params), masks) == pytest.approx(expected_ll)

    def test_gapless_inner_edges_saturate_t1(self):
        rng = np.random.default_rng(7)
        rows = []
        for _ in range(150):
            seq = list(rng.choice(["x", "z", "w"], size=12))
            pos = int(rng.integers(0, 10))
            seq[pos:pos + 3] = ["a", "b", "c"]
            rows.append(seq)
        ds = dataset_from_strings(rows)
        ep = serial(["a", "b", "c", "x"])
        m = build_machine(ep)
        stats = collect_statistics(m, ds)[0]
        inner = block_prefix(m, 0b0111)
        params = fit(m, PartitionSpec(inner, frozenset()), stats)
        assert params.t1 == 25.0
        assert params.t2 == 0.0

    def test_fitted_likelihood_dominates_independence(self):
        rng = np.random.default_rng(8)
        rows = ["".join(rng.choice(list("abcz"), size=10)) for _ in range(40)]
        ds = dataset_from_strings(rows)
        for _ in range(10):
            ep = random_strict_episode(rng, "abc", 4)
            m = build_machine(ep)
            stats = collect_statistics(m, ds)[0]
            base = log_likelihood(stats, coords(fit(m, EMPTY_SPEC, stats)),
                                  masks_of(m, EMPTY_SPEC, stats.collapsed))
            edges = list(range(len(m.edge_src)))
            rng.shuffle(edges)
            spec = PartitionSpec(frozenset(edges[: len(edges) // 2]), frozenset())
            fitted = log_likelihood(stats, coords(fit(m, spec, stats)),
                                    masks_of(m, spec, stats.collapsed))
            assert fitted >= base - 1e-9

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        m, spec, stats = random_instance(rng)
        p1 = fit(m, spec, stats)
        p2 = fit(m, spec, stats)
        assert np.array_equal(p1.u, p2.u) and p1.t1 == p2.t1 and p1.t2 == p2.t2

    def test_zero_events_rejected(self):
        m = build_machine(serial("ab"))
        col = CollapsedAlphabet(("a", "b", "*"), 2, {"a": 0, "b": 1})
        stats = StateStats(col, np.zeros(m.num_states), np.zeros((m.num_states, 3)))
        with pytest.raises(NumericalFitError):
            fit(m, EMPTY_SPEC, stats)

    def test_converges_when_catch_all_carries_almost_all_mass(self, monkeypatch):
        # sufficient statistics of the mined pair n523-n796 on the README corpus,
        # boosted by its serial form; log Z near log(1.002) used to drown the
        # Newton gains in rounding, so the fit ran to MAX_ITER without moving
        m = build_machine(parallel(["a", "b"]))
        col = CollapsedAlphabet(("a", "b", "*"), 2, {"a": 0, "b": 1})
        n = np.array([[47, 59, 48833], [0, 6, 567], [0, 0, 671], [0, 0, 46]], dtype=float)
        stats = StateStats(col, n.sum(axis=1), n)
        spec = PartitionSpec(block_super(m, serial(["a", "b"])), frozenset())
        calls = []
        original = model.gradient_hessian

        def counting(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(model, "gradient_hessian", counting)
        params = fit(m, spec, stats)
        assert len(calls) < MAX_ITER
        grad, _ = original(stats, coords(params), masks_of(m, spec, col))
        assert np.abs(grad).max() < GRAD_TOL

    def test_boosted_fit_builds_its_masks_once(self, monkeypatch):
        rng = np.random.default_rng(29)
        m, spec, stats = random_instance(rng)
        calls = []
        original = model.boost_masks

        def counting(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(model, "boost_masks", counting)
        iterations = []
        newton = model.gradient_hessian

        def iteration(*args):
            iterations.append(1)
            return newton(*args)

        monkeypatch.setattr(model, "gradient_hessian", iteration)
        fit(m, spec, stats)
        # every iteration evaluates the likelihood and its derivatives again
        assert len(iterations) > 1
        assert len(calls) == 1

    def test_concavity_along_chords(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            m, spec, stats = random_instance(rng)
            col = stats.collapsed

            masks = masks_of(m, spec, col)

            def ll(params):
                return log_likelihood(stats, coords(params), masks)

            a, b = random_params(rng, col, 2.0), random_params(rng, col, 2.0)
            mid = ModelParams(col, (a.u + b.u) / 2, (a.t1 + b.t1) / 2,
                              (a.t2 + b.t2) / 2, col.star)
            assert ll(mid) >= (ll(a) + ll(b)) / 2 - 1e-9


class TestIndependenceClosedForm:
    @staticmethod
    def plant_corpus():
        return generate(default_config("plant", seed=5, num_sequences=600, counts=(40, 8, 6)))

    def cases(self):
        plant = self.plant_corpus()
        ab = dataset_from_strings(["ab", "ba", "aab", "bb", "ab", "abba"])
        return [
            # every class occurs: the closed form is the old starting point
            (plant, serial("abcd"), None, 0),
            # a label absent from the corpus is held at the floor
            (plant, serial(["a", "absent"]), None, 1),
            # one class per symbol over a corpus of episode labels only: no
            # gaps, so the catch-all never occurs and a label class is pinned
            (ab, serial("ab"), identity_collapse(ab.alphabet), 1),
        ]

    def test_matches_newton_oracle(self):
        for dataset, episode, collapsed, floored in self.cases():
            m = build_machine(episode)
            stats = collect_statistics(m, dataset, collapsed)[0]
            assert np.count_nonzero(stats.n.sum(axis=0) == 0) == floored
            params = fit(m, EMPTY_SPEC, stats)
            oracle = newton_independence(m, stats)
            assert params.pinned == oracle.pinned
            assert params.t1 == 0.0 and params.t2 == 0.0
            assert np.abs(params.u - oracle.u).max() < 1e-12

    def test_projected_gradient_vanishes(self):
        for dataset, episode, collapsed, _ in self.cases():
            m = build_machine(episode)
            stats = collect_statistics(m, dataset, collapsed)[0]
            params = fit(m, EMPTY_SPEC, stats)
            grad, _ = gradient_hessian(stats, coords(params),
                                       masks_of(m, EMPTY_SPEC, stats.collapsed))
            observed = stats.n.sum(axis=0) > 0
            # floored classes may only press against the floor
            assert np.abs(grad[:-2][observed]).max() < 1e-9 * stats.c.sum()
            assert np.all(grad[:-2][~observed] <= 0.0)

    def test_runs_no_newton_iteration(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("independence fit evaluated a gradient")

        monkeypatch.setattr(model, "gradient_hessian", forbidden)
        monkeypatch.setattr(model, "log_likelihood", forbidden)
        for dataset, episode, collapsed, _ in self.cases():
            m = build_machine(episode)
            fit(m, EMPTY_SPEC, collect_statistics(m, dataset, collapsed)[0])


class TestReachStep:
    def test_bit_identical_to_add_at_loop(self):
        rng = np.random.default_rng(21)
        ds = generate(default_config("plant", seed=3, num_sequences=300, counts=(30, 8, 6)))
        for ep in (serial("abcd"), strictify(parallel(["a", "a", "b"])), diamond()):
            m = build_machine(ep)
            stats = collect_statistics(m, ds)[0]
            edges = list(range(len(m.edge_src)))
            rng.shuffle(edges)
            half = len(edges) // 2
            boosted = PartitionSpec(frozenset(edges[:half]), frozenset(edges[half:]))
            one = MachineUnion([m])
            for spec in (EMPTY_SPEC, boosted):
                params = fit(m, spec, stats)
                stay, edge_p = transition_rates(one, [params], [spec])
                assert np.array_equal(reach_table(one, stay, edge_p, range(41)),
                                      reach_table_by_add_at(m, stay, edge_p, 40))
            params = random_params(rng, stats.collapsed, t_scale=2.0)
            stay, edge_p = transition_rates(one, [params], [boosted])
            assert np.array_equal(reach_table(one, stay, edge_p, range(41)),
                                  reach_table_by_add_at(m, stay, edge_p, 40))

    def test_scattered_lengths_keep_those_rows_bit_for_bit(self):
        # a one-member union, then a union that repeats one machine under two
        # models, then one that mixes class counts and plain and boosted members
        rng = np.random.default_rng(23)
        lengths = [0, 3, 17, 40]
        machines = [build_machine(ep) for ep in (serial("abcd"), diamond(), serial("abcd"))]
        params, specs = [], []
        for m in machines:
            edges = list(range(len(m.edge_src)))
            rng.shuffle(edges)
            params.append(random_params(rng, collapse_alphabet(m.episode), t_scale=2.0))
            specs.append(PartitionSpec(frozenset(edges[:2]), frozenset(edges[2:4])))
        m, one = machines[1], MachineUnion(machines[1:2])
        stay, edge_p = transition_rates(one, params[1:2], specs[1:2])
        table = reach_table(one, stay, edge_p, lengths)
        assert table.shape == (len(lengths), m.num_states)
        assert np.array_equal(table, reach_table_by_add_at(m, stay, edge_p, 40)[lengths])

        union = MachineUnion(machines)
        stay, edge_p = transition_rates(union, params, specs)
        table = reach_table(union, stay, edge_p, lengths)
        assert table.shape == (len(lengths), union.num_states)
        for i, m in enumerate(machines):
            lo, hi = union.offsets[i:i + 2]
            alone = reach_table_by_add_at(m, stay[lo:hi], edge_p[union.edge_member == i], 40)
            assert np.array_equal(table[:, lo:hi], alone[lengths])

        machines, params, specs = mixed_members(rng)
        union = MachineUnion(machines)
        stay, edge_p = transition_rates(union, params, specs)
        table = reach_table(union, stay, edge_p, lengths)
        for i, m in enumerate(machines):
            lo, hi = union.offsets[i:i + 2]
            one = MachineUnion([m])
            stay_i, edge_i = transition_rates(one, params[i:i + 1], specs[i:i + 1])
            assert np.array_equal(stay[lo:hi], stay_i)
            assert np.array_equal(edge_p[union.edge_member == i], edge_i)
            assert np.array_equal(table[:, lo:hi], reach_table(one, stay_i, edge_i, lengths))

    def test_lengths_must_ascend(self):
        m = build_machine(diamond())
        one = MachineUnion([m])
        stay, edge_p = transition_rates_from_probs(m, TestReach.WORKED_PROBS)
        for lengths in ([3, 1], [-1, 2]):
            with pytest.raises(ValueError, match="ascend"):
                reach_table(one, stay, edge_p, lengths)
        twice = reach_table(one, stay, edge_p, [2, 2])
        assert np.array_equal(twice[0], twice[1])

    def test_independence_rates_match_the_masked_path(self):
        # the rates of every member equal those of its own masked conditionals
        rng = np.random.default_rng(22)
        for _ in range(20):
            ep = random_strict_episode(rng, "abcdefghij", 12)
            m = build_machine(ep)
            one = MachineUnion([m])
            col = collapse_alphabet(ep)
            params = random_params(rng, col, t_scale=3.0)
            log_p = model.log_conditionals(params.u, 0.0, 0.0,
                                           masks_of(m, EMPTY_SPEC, col))
            edge_p = np.exp(log_p[m.edge_src, one.edge_classes([col])])
            assert np.array_equal(transition_rates(one, [params], [EMPTY_SPEC])[1], edge_p)

        machines, params, specs = mixed_members(rng)
        union = MachineUnion(machines)
        edge_p = transition_rates(union, params, specs)[1]
        for i, (m, p, spec) in enumerate(zip(machines, params, specs)):
            one = MachineUnion([m])
            log_p = model.log_conditionals(p.u, p.t1, p.t2, masks_of(m, spec, p.collapsed))
            alone = np.exp(log_p[m.edge_src, one.edge_classes([p.collapsed])])
            assert np.array_equal(edge_p[union.edge_member == i], alone)
            assert np.array_equal(transition_rates(one, [p], [spec])[1], alone)


class TestReach:
    WORKED_PROBS = {"a": 0.4, "b": 0.3, "c": 0.2, "d": 0.06, "e": 0.04}

    def test_worked_example_coefficients_exact(self):
        m = build_machine(diamond())
        stay, edge_p = transition_rates_from_probs(m, self.WORKED_PROBS)
        assert stay.tolist() == [1.0 - 0.4, 1.0 - (0.3 + 0.2), 1.0 - 0.2,
                                 1.0 - 0.3, 1.0 - 0.06, 1.0]
        incoming = {
            s: {(m.edge_src[i].item(), edge_p[i]) for i in np.flatnonzero(m.edge_dst == s)}
            for s in range(m.num_states)
        }
        assert incoming[4] == {(2, 0.2), (3, 0.3)}
        assert incoming[5] == {(4, 0.06)}

    def test_length_zero_is_point_mass(self):
        m = build_machine(diamond())
        stay, edge_p = transition_rates_from_probs(m, self.WORKED_PROBS)
        table = reach_table(MachineUnion([m]), stay, edge_p, range(1))
        assert table[0, m.source] == 1.0 and table[0].sum() == 1.0

    def test_slices_are_distributions_and_sink_monotone(self):
        m = build_machine(diamond())
        stay, edge_p = transition_rates_from_probs(m, self.WORKED_PROBS)
        table = reach_table(MachineUnion([m]), stay, edge_p, range(41))
        assert np.allclose(table.sum(axis=1), 1.0, atol=1e-9)
        sink = table[:, m.sink]
        assert np.all(np.diff(sink) >= -1e-15)

    def test_exhaustive_class_enumeration(self):
        rng = np.random.default_rng(3)
        for _ in range(8):
            ep = random_strict_episode(rng, "ab", 4)
            m = build_machine(ep)
            col = collapse_alphabet(ep)
            params = random_params(rng, col)
            edges = list(range(len(m.edge_src)))
            rng.shuffle(edges)
            spec = PartitionSpec(frozenset(edges[:2]), frozenset(edges[2:4]))
            one = MachineUnion([m])
            table = reach_table(one, *transition_rates(one, [params], [spec]), range(5))
            exact = np.zeros(m.num_states)
            for seq in itertools.product(col.classes, repeat=4):
                exact[greedy(m, seq)] += math.exp(sequence_log_prob(m, params, spec, seq))
            assert np.abs(exact - table[4]).max() < 1e-12

    def test_empty_spec_equals_direct_independence_recursion(self):
        m = build_machine(diamond())
        col = CollapsedAlphabet(("a", "b", "c", "d", "*"), 4,
                                {lab: i for i, lab in enumerate("abcd")})
        u = np.array([math.log(p) for p in (0.4, 0.3, 0.2, 0.06)] + [math.log(0.04)])
        params = ModelParams(col, u, 0.0, 0.0, 4)
        stay_m, edge_m = transition_rates(MachineUnion([m]), [params], [EMPTY_SPEC])
        stay_d, edge_d = transition_rates_from_probs(m, self.WORKED_PROBS)
        assert np.abs(stay_m - stay_d).max() < 1e-15
        assert np.abs(edge_m - edge_d).max() < 1e-15

    def test_boost_monotone_in_t1(self):
        ep = serial("abc")
        m = build_machine(ep)
        col = CollapsedAlphabet(("a", "b", "c", "*"), 3, {"a": 0, "b": 1, "c": 2})
        inner = block_prefix(m, 0b111)
        spec = PartitionSpec(inner, frozenset())
        u = np.array([math.log(0.1)] * 3 + [0.0])
        one = MachineUnion([m])
        previous = -1.0
        for t1 in [0.0, 0.5, 1.0, 2.0, 4.0, 8.0]:
            params = ModelParams(col, u, t1, 0.0, 3)
            sink_p = reach_table(one, *transition_rates(one, [params], [spec]),
                                 range(13))[12, m.sink]
            assert sink_p >= previous
            previous = sink_p


class TestCollapseEquivalence:
    def test_rank_identical_with_and_without_collapsing(self):
        # same fitted rank whether noise symbols are pooled or kept separate
        rng = np.random.default_rng(12)
        rows = []
        for _ in range(100):
            seq = list(rng.choice(list("uvwxyz"), size=10))
            if rng.random() < 0.5:
                pos = int(rng.integers(0, 8))
                seq[pos:pos + 2] = ["a", "b"]
            rows.append("".join(seq))
        ds = dataset_from_strings(rows)
        ep = serial("ab")
        m = build_machine(ep)

        for collapsed in (collapse_alphabet(ep), identity_collapse(ds.alphabet)):
            stats, observed = collect_statistics(m, ds, collapsed)
            spec = PartitionSpec(frozenset([1]), frozenset())  # boost b after a
            results = []
            for s in (EMPTY_SPEC, spec):
                params = fit(m, s, stats)
                results.append(rank(m, params, s, ds, observed))
            if collapsed.star == 2:
                base = results
            else:
                assert results[0].rank == pytest.approx(base[0].rank, abs=1e-9)
                assert results[1].rank == pytest.approx(base[1].rank, abs=1e-9)
