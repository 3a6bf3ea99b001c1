"""Prefix-graph automaton over an episode: states, edges, block edges.

The machine's states are the episode's ancestor-closed vertex sets; an edge
adds one vertex whose predecessors are already present and carries that
vertex's label. For strict episodes the outgoing labels of every state are
distinct, which makes the greedy walk (follow a matching edge if one exists,
otherwise stay) deterministic, and a sequence matches the episode exactly when
the walk over the whole sequence ends in the sink state. The walk itself is
``model.walk``, over a disjoint union of machines; ``support`` is re-exported
from there.
"""

from __future__ import annotations

from dataclasses import dataclass

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
from .model import support  # noqa: F401

STATE_CAP = 65_536


@dataclass(frozen=True)
class MachineEdge:
    src: int
    dst: int
    label: str
    vertex: int  # vertex added by this transition


class Machine:
    """Automaton for one strict episode. It caches nothing: the edge classes
    and boost masks are computed on each call, which a fit makes once."""

    def __init__(self, episode: Episode, states: list[int], edges: list[MachineEdge]):
        self.episode = episode
        self.states = states  # vertex bitmasks, ordered by (size, mask)
        self.edges = edges
        self.source = 0
        self.sink = len(states) - 1
        self.edge_src = np.array([e.src for e in edges], dtype=np.intp)
        self.edge_dst = np.array([e.dst for e in edges], dtype=np.intp)

    @property
    def num_states(self) -> int:
        return len(self.states)

    def edge_classes(self, collapsed) -> np.ndarray:
        """Model class of every edge label under a collapsed alphabet."""
        return np.array([collapsed.class_of(e.label) for e in self.edges], dtype=np.intp)

    def boost_masks(self, spec, collapsed) -> np.ndarray:
        """``bool[2, S, K]``: True where state H has an outgoing edge labelled
        k in C1 (layer 0) or C2 (layer 1)."""
        edge_cls = self.edge_classes(collapsed)
        masks = np.zeros((2, self.num_states, collapsed.size), dtype=bool)
        for layer, edge_set in enumerate((spec.c1, spec.c2)):
            idx = list(edge_set)
            masks[layer, self.edge_src[idx], edge_cls[idx]] = True
        return masks


def build_machine(episode: Episode) -> Machine:
    """Construct the automaton; deterministic state and edge numbering.

    Edges come out in (source state, added vertex) order.
    """
    if not is_strict(episode):
        raise StrictnessError("machine construction requires a strict episode")
    states = prefix_graphs(episode)
    if len(states) > STATE_CAP:
        raise SizeCapError(
            f"machine would have {len(states)} states, above the cap of {STATE_CAP}")
    index = {mask: i for i, mask in enumerate(states)}
    preds = episode.predecessor_masks()
    edges = [MachineEdge(i, index[mask | 1 << v], episode.labels[v], v)
             for i, mask in enumerate(states) for v in addable(preds, mask)]
    return Machine(episode, states, edges)


# --- boosted edge sets --------------------------------------------------------

def block_prefix(machine: Machine, w_mask: int) -> frozenset[int]:
    """Edges that add a vertex of W from a state already intersecting W.

    Source-outgoing edges can never qualify (the source intersects nothing);
    the set is well defined for arbitrary W, but only ancestor-closed W (or
    complements of one) model gap behaviour faithfully.
    """
    picked = []
    for idx, e in enumerate(machine.edges):
        if machine.states[e.src] & w_mask and (1 << e.vertex) & w_mask:
            picked.append(idx)
    return frozenset(picked)


def block_super(machine: Machine, stricter: Episode) -> frozenset[int]:
    """Edges of this machine mirrored from a same-vertex stricter episode.

    The stricter episode's machine is the part of this one closed under its
    order: its states are the states here that are ancestor-closed under the
    stricter order (its edge set is a superset, so they are states here too),
    and its edges are the edges here that leave such a state and add a vertex
    whose stricter predecessors that state already holds. The non-source ones
    are picked here without building that machine.
    """
    if not is_proper_superepisode_same_vertices(machine.episode, stricter):
        raise ValueError("second episode must be a proper same-vertex superepisode")
    preds = stricter.predecessor_masks()
    closed = [all(preds[v] & ~mask == 0 for v in range(stricter.n) if mask >> v & 1)
              for mask in machine.states]
    return frozenset(idx for idx, e in enumerate(machine.edges)
                     if e.src != machine.source and closed[e.src]
                     and preds[e.vertex] & ~machine.states[e.src] == 0)


# --- textual rendering ---------------------------------------------------------

def render_machine(machine: Machine) -> str:
    """Deterministic multi-line description of states and edges."""
    lines = [f"machine: {machine.num_states} states, {len(machine.edges)} edges"]
    for i in range(machine.num_states):
        tag = " (source)" if i == machine.source else (" (sink)" if i == machine.sink else "")
        lines.append(f"  state {i} {vertex_set_label(machine.episode, machine.states[i])}{tag}")
    for idx, e in enumerate(machine.edges):
        lines.append(f"  edge {idx}: {e.src} -{e.label}-> {e.dst}")
    return "\n".join(lines)
