"""Sequence corpora: text ingestion and the seeded synthetic generators.

A dataset holds its event sequences as one flat array of interned label ids
with per-sequence offsets. ``load_sequences`` reads a corpus in chunks of
whole tokens, splits and groups each chunk's tokens with array operations, and
passes only each chunk's distinct tokens through the ``Alphabet``; a line's
token count carries over from chunk to chunk, so memory stays bounded however
long a line is. The three synthetic corpus kinds (``plant``, ``plant2``,
``gap``) write known patterns into uniform noise; all randomness flows from a
single 64-bit seed through a NumPy PCG64 generator, so output is
byte-identical across runs and platforms. The generator draws label ids
directly, one array per sequence, and joins them.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .episodes import Episode, linear_extension, make_episode, serial

logger = logging.getLogger(__name__)


class DataError(ValueError):
    """Malformed or unusable input data."""


class Alphabet:
    """Bijective interning table between label strings and integer ids."""

    def __init__(self, symbols: Iterable[str] = ()):
        self.symbols: list[str] = []
        self._ids: dict[str, int] = {}
        for s in symbols:
            self.intern(s)

    def intern(self, symbol: str) -> int:
        sid = self._ids.get(symbol)
        if sid is None:
            sid = len(self.symbols)
            self.symbols.append(symbol)
            self._ids[symbol] = sid
        return sid

    def ids_of(self, symbols: Iterable[str]) -> np.ndarray:
        """The id of each symbol, -1 for a symbol not interned."""
        ids = self._ids.get
        return np.fromiter((ids(s, -1) for s in symbols), dtype=np.intp)

    def __len__(self) -> int:
        return len(self.symbols)


class Dataset:
    """Event sequences over an interned alphabet, held as flat arrays.

    ``tokens`` is every event's label id, all sequences in one ``int32``
    array; ``tokens[offsets[i]:offsets[i + 1]]`` is sequence ``i``. The flat
    positions of every label, sorted by label, are built on the first call of
    :meth:`label_index`; they are what makes an episode's scan cheap, since
    only events whose label occurs in the episode can move its machine. The
    number of events of every label (:meth:`label_counts`) and the sequence
    number of every event (:attr:`sequence_ids`) are likewise built on first
    use.
    """

    def __init__(self, alphabet: Alphabet, tokens: np.ndarray, offsets: np.ndarray):
        self.alphabet = alphabet
        self.tokens = tokens
        self.offsets = offsets
        self._positions: tuple[np.ndarray, np.ndarray] | None = None
        self._label_counts: np.ndarray | None = None
        self._sequence_ids: np.ndarray | None = None
        self._length_counts: dict[int, int] | None = None

    @property
    def num_sequences(self) -> int:
        return len(self.offsets) - 1

    @property
    def total_events(self) -> int:
        return len(self.tokens)

    def length_counts(self) -> dict[int, int]:
        """Number of sequences of each length, keyed by ascending length."""
        if self._length_counts is None:
            lengths, counts = np.unique(np.diff(self.offsets), return_counts=True)
            self._length_counts = dict(zip(lengths.tolist(), counts.tolist()))
        return self._length_counts

    @property
    def sequence_ids(self) -> np.ndarray:
        """The sequence each event belongs to, one entry per event."""
        if self._sequence_ids is None:
            self._sequence_ids = np.repeat(np.arange(self.num_sequences), np.diff(self.offsets))
        return self._sequence_ids

    def label_counts(self) -> np.ndarray:
        """Number of events of each label id."""
        if self._label_counts is None:
            self._label_counts = np.bincount(self.tokens, minlength=len(self.alphabet))
        return self._label_counts

    def label_index(self) -> tuple[np.ndarray, np.ndarray]:
        """Every event's flat position, sorted by label, and where each label's
        run starts: label ``l``'s events are at ``positions[starts[l]:starts[l +
        1]]``, ascending."""
        if self._positions is None:
            self._positions = (label_order(self.tokens, len(self.alphabet)),
                               np.concatenate(([0], np.cumsum(self.label_counts()))))
        return self._positions


def label_order(labels: np.ndarray, count: int) -> np.ndarray:
    """``np.argsort(labels, kind="stable")`` of labels in ``[0, count)``."""
    # NumPy sorts 8- and 16-bit integers stably by radix sort, several times
    # faster than wider ones, so the labels are sorted as the narrowest type
    return np.argsort(labels.astype(np.min_scalar_type(count)), kind="stable")


# Characters read from a corpus at once. A chunk is the whole tokens that end
# in one read, after the partial token carried over from the reads before, so
# the arrays of a chunk stay bounded however long a line is, unless a single
# token is longer.
READ_CHARS = 1 << 17

# Every character ``str.split()`` separates tokens at, but the line break,
# mapped to a space; no character above U+3000 is whitespace (the tests scan
# every code point).
_SPACES = {c: " " for c in range(0x3001) if chr(c).isspace() and c != 0x0A}

# _MASKS[j] keeps the low j bytes of a 64-bit word.
_MASKS = np.array([(1 << 8 * j) - 1 for j in range(9)], dtype=np.uint64)


def _chunks(fh):
    """The text of ``fh``, every separator but the line break mapped to a
    space, in chunks that end at a separator; the last one ends with a line
    break if the text did not."""
    rest, end = "", "\n"  # the token not yet ended, and the last character
    while text := fh.read(READ_CHARS):
        text = rest + text.translate(_SPACES)
        cut = max(text.rfind(" "), text.rfind("\n")) + 1
        if cut:
            yield text[:cut]
        rest, end = text[cut:], text[-1]
    if end != "\n":
        yield rest + "\n"


def _token_groups(data: np.ndarray, starts: np.ndarray, lens: np.ndarray):
    """The group of equal tokens of each token and the first token of each
    group; the tokens are the ``lens[i]`` bytes of ``data`` at ``starts[i]``.

    A token's key is its bytes as little-endian 64-bit words, padded with
    0xFF, which UTF-8 never holds: two tokens of as many words have equal keys
    exactly when they are equal. Tokens are grouped by one sort of their keys
    per number of words.
    """
    padded = np.concatenate((data, np.zeros(8, dtype=np.uint8)))
    word_at = np.ndarray(len(data) + 1, dtype="<u8", buffer=padded, strides=(1,))
    words = (lens + 7) // 8
    group = np.empty(len(lens), dtype=np.intp)
    firsts = [np.empty(0, dtype=np.intp)]
    groups = 0
    for w in np.flatnonzero(np.bincount(words)).tolist():
        tokens = np.flatnonzero(words == w)
        at = starts[tokens]
        keys = [word_at[at + 8 * i] for i in range(w)]
        mask = _MASKS[lens[tokens] - 8 * (w - 1)]  # of the last word
        keys[-1] = keys[-1] & mask | ~mask
        order = np.argsort(keys[0]) if w == 1 else np.lexsort(keys)
        new = np.zeros(len(order), dtype=bool)
        new[0] = True
        for key in keys:
            key = key[order]
            new[1:] |= key[1:] != key[:-1]
        ranked = tokens[order]
        group[ranked] = groups + np.cumsum(new) - 1
        heads = np.flatnonzero(new)
        firsts.append(np.minimum.reduceat(ranked, heads))
        groups += len(heads)
    return group, np.concatenate(firsts)


def _parse(text: str, alphabet: Alphabet):
    """The label ids of the tokens of ``text``, a chunk of :func:`_chunks`,
    interning the new ones in order of first appearance, and the number of
    tokens before each line break."""
    raw = text.encode("utf-8")
    data = np.frombuffer(raw, dtype=np.uint8)
    inside = np.zeros(len(data) + 2, dtype=bool)
    inside[1:-1] = (data != 0x20) & (data != 0x0A)
    flips = np.flatnonzero(inside[1:] != inside[:-1])
    starts, ends = flips[0::2], flips[1::2]
    breaks = np.searchsorted(starts, np.flatnonzero(data == 0x0A))
    group, firsts = _token_groups(data, starts, ends - starts)
    seen = np.argsort(firsts)  # the groups in order of first appearance
    firsts = firsts[seen]
    ids = np.empty(len(seen), dtype=np.int32)
    ids[seen] = [alphabet.intern(raw[a:b].decode("utf-8"))
                 for a, b in zip(starts[firsts].tolist(), ends[firsts].tolist())]
    return ids[group], breaks


def load_sequences(path: str) -> Dataset:
    """Read a corpus of one sequence per line; blank lines are skipped.

    Lines end at ``\\n``, ``\\r\\n`` or ``\\r``, and tokens are separated by
    any whitespace ``str.split()`` splits at, as if each line were split by
    it. Labels are interned in order of first appearance.
    """
    alphabet = Alphabet()
    tokens, lengths = [np.empty(0, dtype=np.int32)], [np.empty(0, dtype=np.intp)]
    carry = 0  # tokens of the line the chunks so far leave unfinished
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for text in _chunks(fh):
                ids, breaks = _parse(text, alphabet)
                tokens.append(ids)
                lengths.append(np.diff(breaks, prepend=-carry))
                carry = len(ids) - int(breaks[-1]) if len(breaks) else carry + len(ids)
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not valid UTF-8: {exc}") from None
    except OSError as exc:
        raise DataError(f"{path}: {exc}") from None
    lengths = np.concatenate(lengths)
    blank = len(lengths) - np.count_nonzero(lengths)
    if blank:
        logger.warning("%s: skipped %d blank line(s)", path, blank)
    offsets = np.concatenate(([0], np.cumsum(lengths[lengths > 0])), dtype=np.int64)
    return Dataset(alphabet, np.concatenate(tokens), offsets)


def save_dataset(dataset: Dataset, path: str) -> None:
    """Inverse of :func:`load_sequences`."""
    words = list(map(dataset.alphabet.symbols.__getitem__, dataset.tokens.tolist()))
    bounds = dataset.offsets.tolist()
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(" ".join(words[a:b]) + "\n" for a, b in zip(bounds, bounds[1:]))


# --- synthetic generators ----------------------------------------------------

@dataclass
class PlantSpec:
    """One pattern to write into the corpus ``count`` times."""

    episode: Episode
    count: int
    gap_p: float = 0.0


@dataclass
class GeneratorConfig:
    kind: str
    seed: int
    num_sequences: int
    length_range: tuple[int, int]
    noise_alphabet_size: int
    plants: list[PlantSpec] = field(default_factory=list)

    def validate(self) -> None:
        lo, hi = self.length_range
        if lo < 1 or hi < lo:
            raise DataError(f"bad length range {self.length_range}")
        for spec in self.plants:
            if spec.count < 0:
                raise DataError("plant count must be >= 0")
            if not (0.0 <= spec.gap_p < 1.0):
                raise DataError(f"gap probability {spec.gap_p} outside [0, 1)")
            if spec.count > self.num_sequences:
                raise DataError(
                    f"cannot place {spec.count} occurrences into "
                    f"{self.num_sequences} distinct sequences")
            if spec.gap_p == 0.0 and spec.episode.n > hi:
                raise DataError(
                    f"pattern of {spec.episode.n} events cannot fit into "
                    f"sequences of length <= {hi}")


DEFAULT_PLANT_COUNTS = (200, 20, 10)
DEFAULT_PLANT2_COUNTS = (400, 400)
DEFAULT_GAP_COUNT = 200


def plant_patterns() -> list[Episode]:
    """The serial 4-pattern, the serial 2-pattern and the diamond."""
    diamond = make_episode(["k", "n", "m", "l"], [(0, 1), (0, 2), (1, 3), (2, 3)])
    return [serial(["a", "b", "c", "d"]), serial(["e", "f"]), diamond]


def plant2_patterns() -> list[Episode]:
    return [serial(["a", "b", "c"]), serial(["d", "e", "f"])]


def gap_pattern() -> Episode:
    return serial(["a", "b", "c", "d"])


# Per synthetic corpus kind: its patterns, their default counts (one per
# pattern) and the size of its noise alphabet.
KINDS = {
    "plant": (plant_patterns, DEFAULT_PLANT_COUNTS, 990),
    "plant2": (plant2_patterns, DEFAULT_PLANT2_COUNTS, 994),
    "gap": (lambda: [gap_pattern()], (DEFAULT_GAP_COUNT,), 996),
}


def default_config(kind: str, seed: int, num_sequences: int | None = None,
                   counts: Sequence[int] | None = None,
                   gap_p: float = 0.0) -> GeneratorConfig:
    """Standard configuration for one of the synthetic corpus kinds.

    Alphabet sizes keep noise symbols disjoint from planted labels, with a
    total alphabet of 1000 symbols in every kind.
    """
    if kind not in KINDS:
        raise DataError(f"unknown generator kind {kind!r}")
    make_patterns, def_counts, noise = KINDS[kind]
    patterns = make_patterns()
    counts = tuple(counts) if counts is not None else def_counts
    if len(counts) != len(patterns):
        raise DataError(f"{kind} takes {len(patterns)} plant counts, got {len(counts)}")
    plants = [PlantSpec(ep, c, gap_p if kind == "gap" else 0.0)
              for ep, c in zip(patterns, counts)]
    return GeneratorConfig(
        kind=kind,
        seed=seed,
        num_sequences=num_sequences if num_sequences is not None else 10_000,
        length_range=(20, 30),
        noise_alphabet_size=noise,
        plants=plants,
    )


def _linearization(episode: Episode, rng: np.random.Generator) -> list[int]:
    """Topological order of the episode, choosing uniformly among ready vertices;
    a lone ready vertex draws nothing from the generator."""
    def pick(ready: list[int]) -> int:
        return ready[int(rng.integers(len(ready)))] if len(ready) > 1 else ready[0]

    return linear_extension(episode.predecessor_masks(), pick)


def generate(config: GeneratorConfig) -> Dataset:
    """Build a corpus of uniform noise with patterns written over it.

    Noise events are i.i.d. uniform over the noise alphabet. Each pattern
    occurrence goes into its own uniformly chosen sequence (distinct within one
    pattern spec), starting at a uniform feasible position; consecutive pattern
    events are separated by Geometric(p) noise positions and the occurrence is
    abandoned if it runs past the sequence end. Planted labels never appear as
    noise.
    """
    config.validate()
    rng = np.random.default_rng(np.random.PCG64(config.seed))
    lo, hi = config.length_range

    alphabet = Alphabet(f"n{i:03d}" for i in range(config.noise_alphabet_size))
    lengths = rng.integers(lo, hi + 1, size=config.num_sequences)
    noise = config.noise_alphabet_size
    sequences = [rng.integers(0, noise, size=int(k)) for k in lengths]

    for spec in config.plants:
        pattern_ids = [alphabet.intern(lab) for lab in spec.episode.labels]
        targets = rng.choice(config.num_sequences, size=spec.count, replace=False)
        for seq_idx in targets:
            seq = sequences[int(seq_idx)]
            order = _linearization(spec.episode, rng)
            k = len(order)
            if len(seq) < k:
                continue
            start = int(rng.integers(0, len(seq) - k + 1))
            positions = [start]
            for _ in range(k - 1):
                gap = int(rng.geometric(1.0 - spec.gap_p)) - 1
                positions.append(positions[-1] + 1 + gap)
            if positions[-1] >= len(seq):
                continue  # does not fit: leave the sequence untouched
            for vertex, pos in zip(order, positions):
                seq[pos] = pattern_ids[vertex]

    tokens = np.concatenate([np.empty(0, dtype=np.int32), *sequences], dtype=np.int32)
    return Dataset(alphabet, tokens, np.concatenate(([0], np.cumsum(lengths))))
