import itertools

import numpy as np
import pytest

from episoderank.episodes import (
    CycleError,
    Episode,
    SizeCapError,
    StrictnessError,
    addable,
    describe,
    is_proper_superepisode_same_vertices,
    is_strict,
    linear_extension,
    load_episodes,
    make_episode,
    parallel,
    prefix_graphs,
    save_episodes,
    serial,
    strictify,
    transitive_reduction,
)

from conftest import all_sequences, enumerate_strict_episodes, random_strict_episode
from oracles import brute_force_covers, induced, reduction_by_search, transitive_closure

# the four-vertex diamond used throughout: a before b and c, both before d
DIAMOND_EDGES = [(0, 1), (0, 2), (1, 3), (2, 3)]


def diamond():
    return make_episode(["a", "b", "c", "d"], DIAMOND_EDGES)


def _reachability_closure(n, edges):
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
    closed = set()
    for s in range(n):
        stack, seen = [s], set()
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        closed.update((s, w) for w in seen)
    return closed


def _random_dag(rng):
    """A vertex count and the edges of a random DAG over a random vertex order."""
    n = int(rng.integers(1, 8))
    order = [int(v) for v in rng.permutation(n)]
    edges = [(order[i], order[j]) for i in range(n) for j in range(i + 1, n)
             if rng.random() < 0.35]
    return n, edges


def _assert_cycle(cycle, edges):
    """A cycle witness is a closed walk over the given edges."""
    assert len(cycle) >= 2 and cycle[0] == cycle[-1], cycle
    assert all(pair in set(edges) for pair in zip(cycle, cycle[1:])), (cycle, edges)


class TestOrderRule:
    def test_addable_is_ready_vertices_ascending(self):
        preds = diamond().predecessor_masks()
        assert addable(preds, 0) == [0]
        assert addable(preds, 0b0001) == [1, 2]
        assert addable(preds, 0b0011) == [2]
        assert addable(preds, 0b1111) == []

    def test_linear_extension_places_each_vertex_after_its_predecessors(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            n, edges = _random_dag(rng)
            preds = [0] * n
            for u, v in edges:
                preds[v] |= 1 << u
            order = linear_extension(preds, lambda ready: ready[int(rng.integers(len(ready)))])
            assert sorted(order) == list(range(n))
            pos = {v: i for i, v in enumerate(order)}
            assert all(pos[u] < pos[v] for u, v in edges), (edges, order)


class TestClosure:
    def test_chain(self):
        ep = make_episode("abc", [(0, 1), (1, 2)])
        assert ep.edges == {(0, 1), (1, 2), (0, 2)}

    def test_edgeless_identity(self):
        ep = parallel("abc")
        assert ep.edges == frozenset()
        assert transitive_closure(ep) == ep

    def test_diamond_against_reachability_oracle(self):
        ep = diamond()
        assert len(ep.edges) == 5
        assert ep.edges == frozenset(_reachability_closure(4, DIAMOND_EDGES))
        # seeded random DAGs; distinct labels in vertex order keep the
        # canonical order the identity
        rng = np.random.default_rng(21)
        for _ in range(200):
            n, edges = _random_dag(rng)
            ep = make_episode("abcdefg"[:n], edges)
            assert ep.edges == frozenset(_reachability_closure(n, edges)), edges

    def test_cycle_rejected_with_witness(self):
        with pytest.raises(CycleError) as exc:
            make_episode("abc", [(0, 1), (1, 2), (2, 0)])
        _assert_cycle(exc.value.cycle, [(0, 1), (1, 2), (2, 0)])
        rng = np.random.default_rng(22)
        cyclic = 0
        for _ in range(300):
            n = int(rng.integers(2, 7))
            edges = [(u, v) for u in range(n) for v in range(n)
                     if u != v and rng.random() < 0.3]
            if not any((v, v) in _reachability_closure(n, edges) for v in range(n)):
                make_episode("a" * n, edges)  # acyclic: accepted
                continue
            cyclic += 1
            with pytest.raises(CycleError) as exc:
                make_episode("a" * n, edges)
            _assert_cycle(exc.value.cycle, edges)
        assert cyclic > 50
        # a self-loop on a DAG is the only cycle, and its witness is [v, v]
        for _ in range(100):
            n, edges = _random_dag(rng)
            v = int(rng.integers(n))
            with pytest.raises(CycleError) as exc:
                make_episode("abcdefg"[:n], edges + [(v, v)])
            assert exc.value.cycle == [v, v]

    def test_self_loop_rejected(self):
        with pytest.raises(CycleError):
            make_episode("ab", [(0, 0)])


class TestReduction:
    def test_chain(self):
        ep = serial("abc")
        assert transitive_reduction(ep) == {(0, 1), (1, 2)}

    def test_edgeless(self):
        assert transitive_reduction(parallel("ab")) == frozenset()

    def test_diamond_recovers_drawn_edges(self):
        assert transitive_reduction(diamond()) == frozenset(DIAMOND_EDGES)

    def test_reduction_closes_back(self, ):
        rng = np.random.default_rng(11)
        for _ in range(50):
            ep = random_strict_episode(rng, "abc", 5)
            again = make_episode(ep.labels, transitive_reduction(ep))
            assert again == ep

    def test_matches_search_for_intermediate_vertex(self):
        for ep in enumerate_strict_episodes(4, "ab"):
            assert transitive_reduction(ep) == reduction_by_search(ep)


class TestStrictness:
    def test_parallel_equal_labels_not_strict(self):
        g2 = make_episode(["a", "a", "b", "c"], [])
        assert not is_strict(g2)

    def test_connected_equal_labels_strict(self):
        g3 = make_episode(["a", "a", "b", "c"], [(0, 1)])
        assert is_strict(g3)

    def test_distinct_labels_always_strict(self):
        assert is_strict(diamond())

    def test_strictify_parallel_pair(self):
        g2 = make_episode(["a", "a", "b", "c"], [])
        g3 = make_episode(["a", "a", "b", "c"], [(0, 1)])
        assert strictify(g2) == g3

    def test_strictify_unique_labels_unchanged(self):
        assert strictify(diamond()) == diamond()

    def test_strictify_triple_matches_serial_coverage(self):
        # matched by exactly the same sequences, exhaustively up to length 4
        par = parallel("aaa")
        chained = strictify(par)
        assert chained == serial("aaa")
        for seq in all_sequences("ab", 4):
            assert brute_force_covers(par, seq) == brute_force_covers(chained, seq)

    def test_strictify_rejects_a_cyclic_episode_with_its_cycle(self):
        # built directly, so neither closed nor checked for cycles
        for edges in ([(0, 1), (1, 2), (2, 0)], [(0, 1), (2, 2)]):
            ep = Episode(("a", "b", "a"), frozenset(edges))
            with pytest.raises(CycleError) as exc:
                strictify(ep)
            _assert_cycle(exc.value.cycle, edges)

    def test_strictify_respects_existing_partial_order(self):
        # two a's already ordered through an intermediate vertex
        ep = make_episode(["a", "b", "a"], [(0, 1), (1, 2)])
        out = strictify(ep)
        assert (0, 2) in out.edges and is_strict(out)


class TestInduced:
    def test_full_and_empty(self):
        ep = diamond()
        assert induced(ep, range(4)) == ep
        assert induced(ep, []).n == 0

    def test_prefix_pair_gives_single_edge(self):
        sub = induced(diamond(), [0, 1])
        assert sub.labels == ("a", "b") and sub.edges == {(0, 1)}


class TestPrefixGraphs:
    def test_diamond_has_six(self):
        masks = prefix_graphs(diamond())
        assert masks == [0b0000, 0b0001, 0b0011, 0b0101, 0b0111, 0b1111]

    def test_chain_prefixes(self):
        assert len(prefix_graphs(serial("abc"))) == 4

    def test_parallel_all_subsets(self):
        assert len(prefix_graphs(parallel("abc"))) == 8

    def test_vertex_cap(self):
        with pytest.raises(SizeCapError):
            prefix_graphs(parallel([f"x{i}" for i in range(17)]))

    def test_lattice_closed_under_union_intersection(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            ep = random_strict_episode(rng, "abc", 5)
            masks = set(prefix_graphs(ep))
            for m1, m2 in itertools.combinations(masks, 2):
                assert m1 & m2 in masks and m1 | m2 in masks


class TestSuperepisode:
    def test_parallel_vs_serial(self):
        assert is_proper_superepisode_same_vertices(parallel("ab"), serial("ab"))

    def test_not_proper_for_equal(self):
        assert not is_proper_superepisode_same_vertices(serial("ab"), serial("ab"))

    def test_label_mismatch(self):
        assert not is_proper_superepisode_same_vertices(parallel("ab"), serial("ac"))


class TestCanonical:
    def test_idempotent_and_permutation_invariant(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            ep = random_strict_episode(rng, "abc", 5)
            assert make_episode(ep.labels, ep.edges) == ep
            perm = list(rng.permutation(ep.n))
            labels = [ep.labels[perm[i]] for i in range(ep.n)]
            inv = {perm[i]: i for i in range(ep.n)}
            edges = [(inv[u], inv[v]) for u, v in ep.edges]
            assert make_episode(labels, edges) == ep

    def test_coverage_invariant_under_closure(self):
        # a non-closed DAG and its closure are matched by the same sequences
        rng = np.random.default_rng(9)
        seqs = all_sequences("abc", 5)
        for _ in range(20):
            n = int(rng.integers(1, 5))
            labels = tuple("ab"[int(rng.integers(2))] for _ in range(n))
            raw = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]
            open_ep = Episode(labels, frozenset(raw))  # not closed, not canonical
            closed = make_episode(labels, raw)
            for seq in seqs:
                if brute_force_covers(open_ep, seq) != brute_force_covers(closed, seq):
                    # canonical relabeling only permutes vertices; recheck honestly
                    raise AssertionError((labels, raw, seq))


class TestEpisodeFiles:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        items = [(f"e{i}", random_strict_episode(rng, "abc", 5)) for i in range(20)]
        path = tmp_path / "eps.jsonl"
        save_episodes(items, str(path))
        back = load_episodes(str(path))
        assert back == items

    def test_loader_closes_and_canonicalizes(self, tmp_path):
        path = tmp_path / "eps.jsonl"
        path.write_text('{"id": "x", "labels": ["b", "a", "c"], "edges": [[1, 0], [0, 2]]}\n')
        [(eid, ep)] = load_episodes(str(path))
        assert ep == serial("abc")

    def test_loader_rejects_non_strict_without_flag(self, tmp_path):
        path = tmp_path / "eps.jsonl"
        path.write_text('{"id": "x", "labels": ["a", "a"], "edges": []}\n')
        with pytest.raises(StrictnessError):
            load_episodes(str(path))
        [(eid, ep)] = load_episodes(str(path), auto_strictify=True)
        assert ep == serial("aa")

    def test_describe_is_stable(self):
        assert describe(diamond()) == "a-b-c-d|0<1|0<2|1<3|2<3"
