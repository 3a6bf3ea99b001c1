import itertools

import numpy as np
import pytest

from episoderank.datagen import Alphabet
from episoderank.episodes import (
    CycleError,
    Episode,
    is_proper_superepisode_same_vertices,
    is_strict,
    make_episode,
    parallel,
    prefix_graphs,
    serial,
)
from episoderank.machine import (
    Machine,
    block_prefix,
    block_super,
    build_machine,
    render_machine,
    support,
)
from episoderank.model import PartitionSpec, collapse_alphabet

from conftest import (
    all_sequences,
    dataset_from_strings,
    enumerate_strict_episodes,
    random_strict_episode,
)
from oracles import (
    EdgeListMachine,
    block_super_by_machine,
    brute_force_covers,
    covers,
    greedy,
    identity_collapse,
    induced,
    out_edges,
)


def diamond():
    return make_episode(["a", "b", "c", "d"], [(0, 1), (0, 2), (1, 3), (2, 3)])


def edge_pairs(machine: Machine, edge_set) -> set[tuple[int, int]]:
    return {(machine.edge_src[i].item(), machine.edge_dst[i].item()) for i in edge_set}


class TestBuild:
    def test_diamond_machine(self):
        m = build_machine(diamond())
        assert m.num_states == 6
        assert m.edge_labels == ["a", "b", "c", "c", "b", "d"]
        assert list(zip(m.edge_src.tolist(), m.edge_dst.tolist())) == \
            [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4), (4, 5)]
        assert m.source == 0 and m.sink == 5

    def test_single_vertex(self):
        m = build_machine(serial("a"))
        assert m.num_states == 2 and len(m.edge_src) == 1 and m.edge_labels[0] == "a"

    def test_parallel_pair(self):
        m = build_machine(parallel("ab"))
        assert m.num_states == 4 and len(m.edge_src) == 4
        labels = m.edge_labels
        out_of_source = sorted(labels[i] for i in np.flatnonzero(m.edge_src == m.source))
        into_sink = sorted(labels[i] for i in np.flatnonzero(m.edge_dst == m.sink))
        assert out_of_source == ["a", "b"] and into_sink == ["a", "b"]

    def test_unique_edge_labels_per_state(self):
        # outgoing and incoming labels stay distinct on a large random family
        rng = np.random.default_rng(42)
        for _ in range(1000):
            m = build_machine(random_strict_episode(rng, "abc", 5))
            for state in range(m.num_states):
                out = [m.edge_labels[i] for i in out_edges(m)[state]]
                inc = [m.edge_labels[i] for i in np.flatnonzero(m.edge_dst == state)]
                assert len(out) == len(set(out)) and len(inc) == len(set(inc))


class TestGreedy:
    def test_worked_paths(self):
        m = build_machine(diamond())
        assert greedy(m, "adc") == 3  # ends in the {a,c} state
        assert greedy(m, "bcd", start=1) == 5

    def test_empty_sequence_is_identity(self):
        m = build_machine(diamond())
        for state in range(m.num_states):
            assert greedy(m, "", start=state) == state

    def test_covers_examples(self):
        m = build_machine(diamond())
        assert covers(m, "aebfcd")
        assert not covers(m, "cabde")

    def test_empty_episode_covers_everything(self):
        m = build_machine(parallel(""))
        assert m.source == m.sink
        assert covers(m, "") and covers(m, "xyz")


class TestBruteForce:
    def test_examples(self):
        assert brute_force_covers(diamond(), "aebfcd")
        assert not brute_force_covers(diamond(), "abc")

    def test_agrees_with_greedy_on_small_family(self):
        rng = np.random.default_rng(13)
        seqs = all_sequences("abc", 5)
        for _ in range(40):
            ep = random_strict_episode(rng, "ab", 4)
            m = build_machine(ep)
            for seq in seqs:
                assert covers(m, seq) == brute_force_covers(ep, seq)


class TestSupport:
    def test_hand_counted(self):
        ds = dataset_from_strings(["ab", "ba", "aab"])
        assert support(build_machine(serial("ab")), ds) == 2

    def test_empty_dataset(self):
        ds = dataset_from_strings([])
        assert support(build_machine(serial("ab")), ds) == 0

    def test_matches_brute_force_on_small_instances(self):
        # empty rows, labels absent from the corpus ("d"), repeated labels
        rng = np.random.default_rng(17)
        for _ in range(60):
            rows = ["".join(rng.choice(list("abc"), size=int(rng.integers(0, 7))))
                    for _ in range(int(rng.integers(0, 12)))]
            ds = dataset_from_strings(rows)
            ep = random_strict_episode(rng, "abcd", 4)
            brute = sum(brute_force_covers(ep, row) for row in rows)
            assert support(build_machine(ep), ds) == brute, (ep, rows)

    def test_monotone_under_subepisodes(self):
        rng = np.random.default_rng(8)
        rows = ["".join(rng.choice(list("abc"), size=8)) for _ in range(40)]
        ds = dataset_from_strings(rows)
        for _ in range(25):
            sup_ep = random_strict_episode(rng, "abc", 4)
            m_sup = build_machine(sup_ep)
            # same-vertex subepisode: keep a random subset of the order
            kept = [e for e in sup_ep.edges if rng.random() < 0.5]
            chains = [(u, v) for u, v in sup_ep.edges
                      if sup_ep.labels[u] == sup_ep.labels[v]]
            sub_ep = make_episode(sup_ep.labels, kept + chains)
            assert support(build_machine(sub_ep), ds) >= support(m_sup, ds)
            # induced subepisode
            keep = [v for v in range(sup_ep.n) if rng.random() < 0.7]
            ind = induced(sup_ep, keep)
            assert support(build_machine(ind), ds) >= support(m_sup, ds)


class TestBlockPrefix:
    def test_diamond_rows(self):
        m = build_machine(diamond())
        rows = {
            0b0001: (set(), {(2, 4), (3, 4), (4, 5)}),
            0b0011: ({(1, 2), (3, 4)}, {(4, 5)}),
            0b0101: ({(1, 3), (2, 4)}, {(4, 5)}),
            0b0111: ({(1, 2), (1, 3), (2, 4), (3, 4)}, set()),
        }
        for w, (c1, c2) in rows.items():
            assert edge_pairs(m, block_prefix(m, w)) == c1
            assert edge_pairs(m, block_prefix(m, 0b1111 ^ w)) == c2

    def test_non_prefix_set_on_chain(self):
        m = build_machine(serial("abc"))
        assert edge_pairs(m, block_prefix(m, 0b101)) == {(2, 3)}

    def test_never_contains_source_edges_and_complement_disjoint(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            ep = random_strict_episode(rng, "abc", 5)
            m = build_machine(ep)
            full = (1 << ep.n) - 1
            for w in prefix_graphs(ep):
                c1 = block_prefix(m, w)
                c2 = block_prefix(m, full ^ w)
                assert not c1 & c2
                assert all(m.edge_src[i] != m.source for i in c1 | c2)

    def test_non_prefix_splits_leave_a_stuck_state(self):
        # a bipartition with neither side ancestor-closed always produces a
        # state that has seen part of one half but cannot extend it next
        for ep in enumerate_strict_episodes(4, "ab"):
            self._check_stuck_states(ep)
        rng = np.random.default_rng(17)
        for _ in range(60):
            self._check_stuck_states(random_strict_episode(rng, "abc", 5))

    @staticmethod
    def _check_stuck_states(ep):
        if ep.n < 2:
            return
        m = build_machine(ep)
        masks = set(prefix_graphs(ep))
        state_of = {mask: i for i, mask in enumerate(m.states)}
        full = (1 << ep.n) - 1
        for w1 in range(1, full):
            w2 = full ^ w1
            blocked = {w1: block_prefix(m, w1), w2: block_prefix(m, w2)}
            stuck = {w1: False, w2: False}
            for x in masks:
                for w in (w1, w2):
                    inter = x & w
                    if inter == 0 or inter == w:
                        continue
                    if not any(i in blocked[w] for i in out_edges(m)[state_of[x]]):
                        stuck[w] = True
            if w1 not in masks and w2 not in masks:
                assert stuck[w1] or stuck[w2], (ep, bin(w1))
            # on an ancestor-closed side itself there is never a stuck state
            for w in (w1, w2):
                if w in masks:
                    assert not stuck[w], (ep, bin(w))


class TestBlockSuper:
    def test_diamond_with_both_linearizations(self):
        m = build_machine(diamond())
        assert edge_pairs(m, block_super(m, serial("abcd"))) == {(1, 2), (2, 4), (4, 5)}
        assert edge_pairs(m, block_super(m, serial(["a", "c", "b", "d"]))) == \
            {(1, 3), (3, 4), (4, 5)}

    def test_parallel_pair_with_serial(self):
        m = build_machine(parallel("ab"))
        edge_set = block_super(m, serial("ab"))
        assert len(edge_set) == 1
        (idx,) = edge_set
        assert m.states[m.edge_src[idx]] == 0b01 and m.edge_dst[idx] == m.sink
        assert m.edge_labels[idx] == "b"

    def test_surjection_and_full_translation(self):
        rng = np.random.default_rng(31)
        done = 0
        while done < 30:
            h = random_strict_episode(rng, "abc", 4)
            kept = [e for e in h.edges if rng.random() < 0.5]
            chains = [(u, v) for u, v in h.edges if h.labels[u] == h.labels[v]]
            g = make_episode(h.labels, kept + chains)
            if g.edges == h.edges:
                continue
            done += 1
            m = build_machine(g)
            other = build_machine(h)
            # every state of the stricter machine is a state here
            assert set(other.states) <= set(m.states)
            non_source = sum(1 for src in other.edge_src.tolist() if other.states[src] != 0)
            assert len(block_super(m, h)) == non_source

    def test_matches_the_stricter_machine_on_every_pair(self):
        episodes = {(e.labels, e.edges): e for e in
                    enumerate_strict_episodes(4, "ab") + enumerate_strict_episodes(3, "abc")}
        pairs = [(g, h) for g in episodes.values() for h in episodes.values()
                 if is_proper_superepisode_same_vertices(g, h)]
        assert len(pairs) == 255  # distinct: both sets hold the episodes of up to 3 "ab" vertices
        for g, h in pairs:
            m = build_machine(g)
            assert block_super(m, h) == block_super_by_machine(m, h), (g, h)

    def test_rejects_non_superepisode(self):
        m = build_machine(parallel("ab"))
        with pytest.raises(ValueError):
            block_super(m, serial("ac"))


class TestRender:
    def test_byte_stable(self):
        m = build_machine(make_episode(["a", "b"], [(0, 1)]))
        text = render_machine(m)
        assert text == (
            "machine: 3 states, 2 edges\n"
            "  state 0 {} (source)\n"
            "  state 1 {a}\n"
            "  state 2 {a,b} (sink)\n"
            "  edge 0: 0 -a-> 1\n"
            "  edge 1: 1 -b-> 2"
        )


class TestSkeletonAgainstEdgeLists:
    """``build_machine`` (a shape skeleton plus labels) against the
    per-episode machine with one ``MachineEdge`` per edge, on every strict DAG
    shape of up to 4 vertices."""

    @staticmethod
    def shapes(n: int) -> list[frozenset]:
        """Every closed DAG edge set on n vertices."""
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        found = set()
        for bits in range(1 << len(pairs)):
            try:
                ep = make_episode([str(v) for v in range(n)],
                                  [pairs[k] for k in range(len(pairs)) if bits >> k & 1])
            except CycleError:
                continue
            found.add(ep.edges)
        return sorted(found, key=sorted)

    @staticmethod
    def episode(row: tuple[str, ...], edges: frozenset) -> Episode | None:
        """The episode of a label row on a shape, if it is strict and canonical."""
        ep = Episode(row, edges)
        return ep if is_strict(ep) and make_episode(row, edges) == ep else None

    def test_every_shape_and_label_row(self):
        alphabet = Alphabet(["b", "a", "c", "y"])  # "d" and "z" are absent
        checked = supers = 0
        for n in range(5):
            shapes = self.shapes(n)
            assert len(shapes) == [1, 1, 3, 19, 219][n]  # the posets on n labelled vertices
            # distinct labels, repeated ones, and "z", absent from the corpus
            rows = dict.fromkeys([tuple("abcd"[:n]),
                                  *itertools.combinations_with_replacement("abz", n)])
            for edges, row in itertools.product(shapes, rows):
                ep = self.episode(row, edges)
                if ep is None:
                    continue
                m, want = build_machine(ep), EdgeListMachine(ep)
                assert m.states == want.states
                assert m.edge_src.tolist() == [e.src for e in want.edges]
                assert m.edge_dst.tolist() == [e.dst for e in want.edges]
                assert m.edge_vertex.tolist() == [e.vertex for e in want.edges]
                assert m.edge_labels == [e.label for e in want.edges]
                assert (m.source, m.sink) == (want.source, want.sink)
                assert render_machine(m) == want.render()
                full = (1 << n) - 1
                specs = []
                for w in m.states:
                    c1, c2 = block_prefix(m, w), block_prefix(m, full ^ w)
                    assert (c1, c2) == (want.block_prefix(w), want.block_prefix(full ^ w))
                    specs.append(PartitionSpec(c1, c2))
                for stricter in shapes:
                    h = self.episode(row, stricter) if edges < stricter else None
                    if h is not None:
                        got = block_super(m, h)
                        assert got == want.block_super(h), (ep, h)
                        specs.append(PartitionSpec(got, frozenset()))
                        supers += 1
                for collapsed in (collapse_alphabet(ep), identity_collapse(alphabet)):
                    for spec in specs:
                        assert np.array_equal(m.boost_masks(spec, collapsed),
                                              want.boost_masks(spec, collapsed)), (ep, spec)
                checked += 1
        assert (checked, supers) == (633, 5150)
