"""Prefix-graph automata over episodes: one skeleton per shape, labels per episode.

A machine's states are the episode's ancestor-closed vertex sets; an edge adds
one vertex whose predecessors are already present and carries that vertex's
label. States and edges depend only on the episode's shape, its vertex count
and closed edge set, so they live in a :class:`Skeleton`, the edges as
``edge_src``/``edge_dst``/``edge_vertex`` arrays. A :class:`Machine` is a
skeleton plus the episode: its label row gives edge ``i`` the label of vertex
``edge_vertex[i]``, so a batch of episodes builds one skeleton per shape. For
strict episodes the outgoing labels of every state are distinct, which makes
the greedy walk (follow a matching edge if one exists, otherwise stay)
deterministic, and a sequence matches the episode exactly when the walk over
the whole sequence ends in the sink state. The walk itself is ``model.walk``
and a model's boost masks are ``model.boost_masks``, both over a disjoint
union of machines.
"""

from __future__ import annotations

import numpy as np

from .episodes import (
    Episode,
    SizeCapError,
    StrictnessError,
    addable,
    is_proper_superepisode_same_vertices,
    is_strict,
    prefix_graphs,
    vertex_set_label,
)

STATE_CAP = 65_536


class Skeleton:
    """The states and edges shared by every episode of one shape: a vertex
    count ``n`` and a closed edge set.

    ``states`` holds vertex bitmasks ordered by (size, mask), so the source is
    the first and the sink the last. Edge ``i`` leaves ``edge_src[i]``, adds
    vertex ``edge_vertex[i]`` and reaches ``edge_dst[i]``; edges come in
    (source state, added vertex) order.
    """

    def __init__(self, episode: Episode):
        """The skeleton of ``episode``'s shape; its labels play no part."""
        states = prefix_graphs(episode)
        if len(states) > STATE_CAP:
            raise SizeCapError(
                f"machine would have {len(states)} states, above the cap of {STATE_CAP}")
        preds = episode.predecessor_masks()
        pairs = [(i, v) for i, mask in enumerate(states) for v in addable(preds, mask)]
        index = {mask: i for i, mask in enumerate(states)}
        self.n = episode.n
        self.states = states
        self.edge_src = np.array([i for i, _ in pairs], dtype=np.intp)
        self.edge_vertex = np.array([v for _, v in pairs], dtype=np.intp)
        self.edge_dst = np.array([index[states[i] | 1 << v] for i, v in pairs], dtype=np.intp)

    @property
    def num_states(self) -> int:
        return len(self.states)


class Machine:
    """Automaton for one strict episode: the skeleton of its shape and the
    episode, whose labels the edges carry."""

    def __init__(self, skeleton: Skeleton, episode: Episode):
        if not is_strict(episode):
            raise StrictnessError("machine construction requires a strict episode")
        self.skeleton = skeleton
        self.episode = episode
        self.states = skeleton.states
        self.edge_src, self.edge_dst = skeleton.edge_src, skeleton.edge_dst
        self.edge_vertex = skeleton.edge_vertex
        self.source = 0
        self.sink = skeleton.num_states - 1

    @property
    def num_states(self) -> int:
        return len(self.states)

    @property
    def edge_labels(self) -> list[str]:
        """The label of every edge: its added vertex's."""
        return [self.episode.labels[v] for v in self.edge_vertex.tolist()]


def build_machine(episode: Episode) -> Machine:
    """The automaton of a strict episode, on a skeleton of its own.

    Raises SizeCapError above the vertex or state cap, or StrictnessError.
    """
    return Machine(Skeleton(episode), episode)


# --- boosted edge sets --------------------------------------------------------

def block_prefix(machine: Machine | Skeleton, w_mask: int) -> frozenset[int]:
    """Edges that add a vertex of W from a state already intersecting W.

    Source-outgoing edges can never qualify (the source intersects nothing);
    the set is well defined for arbitrary W, but only ancestor-closed W (or
    complements of one) model gap behaviour faithfully. It depends on the
    shape alone.
    """
    states = machine.states
    return frozenset(idx for idx, (src, v) in enumerate(zip(machine.edge_src.tolist(),
                                                           machine.edge_vertex.tolist()))
                     if states[src] & w_mask and w_mask >> v & 1)


def block_super(machine: Machine, stricter: Episode) -> frozenset[int]:
    """Edges of this machine mirrored from a same-vertex stricter episode.

    The stricter episode's machine is the part of this one closed under its
    order: its states are the states here that are ancestor-closed under the
    stricter order (its edge set is a superset, so they are states here too),
    and its edges are the edges here that leave such a state and add a vertex
    whose stricter predecessors that state already holds. The non-source ones
    are picked here without building that machine. The set depends on the two
    shapes alone.
    """
    if not is_proper_superepisode_same_vertices(machine.episode, stricter):
        raise ValueError("second episode must be a proper same-vertex superepisode")
    preds = stricter.predecessor_masks()
    closed = [all(preds[v] & ~mask == 0 for v in range(stricter.n) if mask >> v & 1)
              for mask in machine.states]
    return frozenset(idx for idx, (src, v) in enumerate(zip(machine.edge_src.tolist(),
                                                           machine.edge_vertex.tolist()))
                     if src != machine.source and closed[src]
                     and preds[v] & ~machine.states[src] == 0)


# --- textual rendering ---------------------------------------------------------

def render_machine(machine: Machine) -> str:
    """Deterministic multi-line description of states and edges."""
    lines = [f"machine: {machine.num_states} states, {len(machine.edge_src)} edges"]
    for i in range(machine.num_states):
        tag = " (source)" if i == machine.source else (" (sink)" if i == machine.sink else "")
        lines.append(f"  state {i} {vertex_set_label(machine.episode, machine.states[i])}{tag}")
    for idx, (src, label, dst) in enumerate(zip(machine.edge_src.tolist(), machine.edge_labels,
                                                machine.edge_dst.tolist())):
        lines.append(f"  edge {idx}: {src} -{label}-> {dst}")
    return "\n".join(lines)
