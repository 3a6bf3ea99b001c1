"""Rank episodes by how surprising their support is under independence and
partition models built on a prefix-graph automaton."""

from .datagen import Alphabet, Dataset, GeneratorConfig, generate, load_sequences, save_dataset
from .episodes import (
    Episode,
    is_proper_superepisode_same_vertices,
    is_strict,
    load_episodes,
    make_episode,
    parallel,
    prefix_graphs,
    save_episodes,
    serial,
    strictify,
    transitive_reduction,
)
from .machine import (
    Machine,
    block_prefix,
    block_super,
    build_machine,
    support,
)
from .miner import CandidateSet, merge_serial_intersections, mine_parallel, mine_serial
from .model import (
    EMPTY_SPEC,
    ModelParams,
    PartitionSpec,
    StateStats,
    collapse_alphabet,
    fit,
    gradient_hessian,
    log_likelihood,
)
from .ranking import (
    RankResult,
    kendall_tau,
    rank_episode,
    rank_many,
    rho_eta,
    tail_exact,
    tail_normal,
    tail_poisson,
)

__version__ = "0.1.0"
