import hashlib
import logging

import numpy as np
import pytest

from episoderank import datagen
from episoderank.cli import main
from episoderank.datagen import (
    DataError,
    Dataset,
    GeneratorConfig,
    PlantSpec,
    default_config,
    generate,
    label_order,
    load_sequences,
    plant_patterns,
    save_dataset,
)
from episoderank.episodes import serial
from episoderank.machine import build_machine
from episoderank.model import support

from conftest import dataset_from_strings
from oracles import load_sequences_by_line, rows, symbol_rows


@pytest.fixture(scope="module")
def full_plant() -> Dataset:
    return generate(default_config("plant", seed=7))


class TestLoadSave:
    def test_basic_load(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text("a b c\nb a\n")
        ds = load_sequences(str(path))
        assert ds.num_sequences == 2 and len(ds.alphabet) == 3
        assert symbol_rows(ds)[0] == ["a", "b", "c"]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        ds = load_sequences(str(path))
        assert ds.num_sequences == 0
        assert support(build_machine(serial("ab")), ds) == 0

    def test_blank_lines_skipped_with_warning(self, tmp_path, caplog):
        path = tmp_path / "corpus.txt"
        path.write_text("a b\n\n\nb a\n")
        with caplog.at_level(logging.WARNING):
            ds = load_sequences(str(path))
        assert ds.num_sequences == 2
        assert "2 blank line" in caplog.text

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        rows = [" ".join(rng.choice(["tok1", "tok2", "x"], size=5)) for _ in range(10)]
        path = tmp_path / "corpus.txt"
        path.write_text("\n".join(rows) + "\n")
        ds = load_sequences(str(path))
        out = tmp_path / "again.txt"
        save_dataset(ds, str(out))
        assert out.read_text() == path.read_text()

    def test_round_trip_skips_blank_lines_and_keeps_first_appearance_order(self, tmp_path,
                                                                           caplog):
        path = tmp_path / "corpus.txt"
        path.write_text("zeta b zeta\n\n  \na b\nb\n\n")
        with caplog.at_level(logging.WARNING):
            ds = load_sequences(str(path))
        assert "skipped 3 blank line(s)" in caplog.text
        assert ds.alphabet.symbols == ["zeta", "b", "a"]
        assert rows(ds) == [[0, 1, 0], [2, 1], [1]]
        out = tmp_path / "again.txt"
        save_dataset(ds, str(out))
        assert out.read_bytes() == b"zeta b zeta\na b\nb\n"
        again = tmp_path / "again2.txt"
        save_dataset(load_sequences(str(out)), str(again))
        assert again.read_bytes() == out.read_bytes()

    def test_length_counts_ascend_by_length(self):
        # the key order fixes the summation order of the expected support and
        # is the order of the reach rows
        ds = dataset_from_strings(["abc", "a", "", "xyz", "ab", "b", "", "c"])
        counts = ds.length_counts()
        assert list(counts.items()) == [(0, 2), (1, 3), (2, 1), (3, 2)]
        assert ds.num_sequences == 8 and ds.total_events == 11

    def test_missing_file(self):
        with pytest.raises(DataError):
            load_sequences("/nonexistent/corpus.txt")


# every character str.split() splits at but the line break, which ends a line
WHITESPACE = [chr(c) for c in range(0x110000) if chr(c).isspace() and c != 0x0A]
BREAKS = ["\n", "\r\n", "\r"]
# labels of 1, 8, 9, 16, 17 and more bytes, non-ASCII ones, NUL bytes and
# pairs that differ only in their last byte or their length
LABELS = ["a", "b", "\x00", "\x00\x00", "a\x00", "\u00e9", "\u6f22", "\U0001f600",
          "abcdefgh", "abcdefg\x00", "abcdefghi", "abcdefghj", "\u20ac\u20ac\u20ac",
          "p" * 16, "p" * 17, "q" * 17, "r" * 25, "\u6f22" * 6, "x\u00e9" * 9]
LABEL_CHARS = ["a", "z", "\x00", "\x7f", "\u00e9", "\u6f22", "\U0001f600"]


def random_corpus(rng: np.random.Generator) -> str:
    """Lines of labels from LABELS and random ones, separated by runs of any
    whitespace, some of them blank or whitespace-only, ended by any line break."""
    def label() -> str:
        if rng.random() < 0.6:
            return LABELS[int(rng.integers(len(LABELS)))]
        size = int(rng.integers(1, 21))
        return "".join(LABEL_CHARS[i] for i in rng.integers(len(LABEL_CHARS), size=size))

    def space() -> str:
        return "".join(WHITESPACE[i] for i in rng.integers(len(WHITESPACE),
                                                            size=int(rng.integers(1, 4))))

    lines = []
    for _ in range(int(rng.integers(0, 40))):
        tokens = [label() for _ in range(int(rng.integers(0, 8)))]
        line = space().join(tokens)
        if rng.random() < 0.3:
            line = space() + line
        if rng.random() < 0.3:
            line += space()
        lines.append(line + BREAKS[int(rng.integers(len(BREAKS)))])
    text = "".join(lines)
    if text and rng.random() < 0.3:
        text = text.rstrip("\r\n")  # no final line break
    return text


def assert_loads_as_by_line(path, caplog) -> None:
    expected, blank = load_sequences_by_line(str(path))
    caplog.clear()
    with caplog.at_level(logging.WARNING):
        got = load_sequences(str(path))
    assert got.tokens.dtype == expected.tokens.dtype == np.int32
    assert got.offsets.dtype == expected.offsets.dtype == np.int64
    assert np.array_equal(got.tokens, expected.tokens)
    assert np.array_equal(got.offsets, expected.offsets)
    assert got.alphabet.symbols == expected.alphabet.symbols
    warned = [r.getMessage() for r in caplog.records if "blank line" in r.getMessage()]
    assert warned == ([f"{path}: skipped {blank} blank line(s)"] if blank else [])


class TestLoadMatchesTheLineReader:
    """``load_sequences`` reads chunks with arrays; it must give what splitting
    each line with ``str.split()`` gives."""

    @pytest.mark.parametrize("read_chars", [None, 1, 3, 7])
    def test_random_corpora(self, read_chars, tmp_path, caplog, monkeypatch):
        # a few characters a read makes lines, labels and \r\n pairs straddle
        # chunk bounds
        if read_chars is not None:
            monkeypatch.setattr(datagen, "READ_CHARS", read_chars)
        rng = np.random.default_rng(2025)
        path = tmp_path / "corpus.txt"
        for _ in range(60):
            path.write_bytes(random_corpus(rng).encode("utf-8"))
            assert_loads_as_by_line(path, caplog)

    @pytest.mark.parametrize("read_chars", [None, 2])
    @pytest.mark.parametrize("text", [
        "", "\n", "\r\n\r\n", "  \t\n\u3000\n", "a", "a b", "a b\n", "a\r\nb\rc\n",
        "a\rb\r", "\x00 \x00\x00\n\x00", "a\u2028b\u2029c\x85d\x1ce\n",
        "\ufeffa b\n",  # a byte order mark is part of the first label
        " ".join(WHITESPACE).join(["x", "y"]),
        "abcdefgh abcdefghi abcdefgh\nabcdefghi\n" + "w" * 40 + " " + "w" * 41,
    ])
    def test_written_corpora(self, text, read_chars, tmp_path, caplog, monkeypatch):
        if read_chars is not None:
            monkeypatch.setattr(datagen, "READ_CHARS", read_chars)
        path = tmp_path / "corpus.txt"
        path.write_bytes(text.encode("utf-8"))
        assert_loads_as_by_line(path, caplog)

    @pytest.mark.parametrize("read_chars", [None, 1, 3, 7])
    def test_one_line_longer_than_ten_chunks(self, read_chars, tmp_path, caplog, monkeypatch):
        # a chunk ends at a separator, so a line spans many chunks; its token
        # count carries over from each chunk to the next
        if read_chars is not None:
            monkeypatch.setattr(datagen, "READ_CHARS", read_chars)
        rng = np.random.default_rng(2026)
        block = "".join(random_corpus(rng) for _ in range(4)).replace("\r", " ").replace("\n", " ")
        line = block * (10 * datagen.READ_CHARS // len(block) + 1)
        path = tmp_path / "corpus.txt"
        for text in (line, line + "\n", "a b\n" + line + "\r\nc\n\n"):
            path.write_bytes(text.encode("utf-8"))
            assert_loads_as_by_line(path, caplog)
        assert load_sequences(str(path)).num_sequences == 3

    def test_separators_are_every_split_character(self):
        # the table stops at U+3000; no whitespace lies above it
        assert sorted(map(chr, datagen._SPACES)) == WHITESPACE

    @pytest.mark.parametrize("read_chars,at", [(None, 3), (4096, 20_000)])
    def test_invalid_utf8_is_a_data_error(self, read_chars, at, tmp_path, monkeypatch):
        # in the first chunk, and in a chunk after several whole ones
        if read_chars is not None:
            monkeypatch.setattr(datagen, "READ_CHARS", read_chars)
        data = bytearray(b"ab cd\n" * (at // 6 + 10))
        data[at] = 0xFF
        path = tmp_path / "corpus.txt"
        path.write_bytes(bytes(data))
        with pytest.raises(DataError, match="not valid UTF-8"):
            load_sequences(str(path))


@pytest.mark.parametrize("count", [255, 256, 65_536, 65_537])
def test_label_order_is_the_stable_argsort(count):
    rng = np.random.default_rng(count)
    labels = rng.integers(0, count, size=200_000).astype(np.int32)
    labels[:2] = [0, count - 1]
    expected = np.argsort(labels.astype(np.int64), kind="stable")
    assert np.array_equal(label_order(labels, count), expected)
    ds = Dataset(datagen.Alphabet(map(str, range(count))), labels,
                 np.array([0, len(labels)], dtype=np.int64))
    positions, starts = ds.label_index()
    for label in (0, 1, count - 1):
        assert np.array_equal(positions[starts[label]:starts[label + 1]],
                              np.flatnonzero(labels == label))


class TestGenerate:
    def test_full_scale_event_count(self, full_plant):
        assert full_plant.num_sequences == 10_000
        assert abs(full_plant.total_events - 250_000) <= 2_500
        assert len(full_plant.alphabet) == 1_000  # 990 noise + 10 planted

    def test_planted_supports(self, full_plant):
        for pattern, count in zip(plant_patterns(), (200, 20, 10)):
            supp = support(build_machine(pattern), full_plant)
            assert supp >= count, (pattern, supp)

    def test_contiguous_when_gapless(self, full_plant):
        # planted labels only come from plants, so a covering sequence holds
        # the 4 pattern events contiguously somewhere
        ids = full_plant.alphabet.ids_of("abcd").tolist()
        found = 0
        for seq in rows(full_plant):
            if all(i in seq for i in ids):
                pos = seq.index(ids[0])
                if seq[pos:pos + 4] == ids:
                    found += 1
        assert found >= 200

    def test_corpus_bytes_are_pinned(self, tmp_path, capsys):
        # README-flow corpus; a change to the RNG stream or the writer moves it
        out = tmp_path / "plant.txt"
        assert main(["generate", "--kind", "plant", "--seed", "1", "--num-sequences", "2000",
                     "--plant-counts", "40,8,6", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "a6c5c5cabdbb4a12b51ce57d0016ca3a1ee080597f7e3cdb2d9e3655de7fc46b")

    def test_seed_determinism(self):
        cfg = default_config("gap", seed=42, num_sequences=200, gap_p=0.3)
        d1, d2 = generate(cfg), generate(cfg)
        assert rows(d1) == rows(d2)
        assert d1.alphabet.symbols == d2.alphabet.symbols

    def test_different_seeds_differ(self):
        a = generate(default_config("gap", seed=1, num_sequences=50, counts=(10,)))
        b = generate(default_config("gap", seed=2, num_sequences=50, counts=(10,)))
        assert rows(a) != rows(b)

    def test_gap_zero_support_equals_count(self):
        cfg = default_config("gap", seed=3, num_sequences=2000)
        ds = generate(cfg)
        assert support(build_machine(serial("abcd")), ds) == 200

    def test_gap_probability_spreads_pattern(self):
        cfg = default_config("gap", seed=4, num_sequences=2000, gap_p=0.5)
        ds = generate(cfg)
        ids = ds.alphabet.ids_of("abcd").tolist()
        gaps = []
        for seq in rows(ds):
            positions = [i for i, s in enumerate(seq) if s in set(ids)]
            if len(positions) == 4 and [seq[i] for i in positions] == ids:
                gaps.append((positions[-1] - positions[0]) - 3)
        # Geometric(p=0.5) gaps average 1 per slot, 3 slots per occurrence
        assert gaps and 1.5 < np.mean(gaps) < 5.0

    def test_plant2_defaults(self):
        ds = generate(default_config("plant2", seed=5, num_sequences=1500, counts=(60, 60)))
        assert len(ds.alphabet) == 1_000  # 994 noise + 6 planted
        for pattern in (serial("abc"), serial("def")):
            assert support(build_machine(pattern), ds) == 60

    def test_lengths_in_range(self):
        ds = generate(default_config("plant", seed=6, num_sequences=300, counts=(5, 2, 1)))
        assert all(20 <= len(s) <= 30 for s in rows(ds))

    def test_config_validation(self):
        with pytest.raises(DataError):
            generate(default_config("plant", seed=0, num_sequences=100, counts=(200, 2, 1)))
        long_pattern = serial([f"p{i}" for i in range(40)])
        cfg = GeneratorConfig("plant", 0, 100, (20, 30), 50,
                              [PlantSpec(long_pattern, 5, 0.0)])
        with pytest.raises(DataError):
            generate(cfg)
        with pytest.raises(DataError):
            default_config("nope", seed=0)

    def test_noise_disjoint_from_planted_labels(self):
        ds = generate(default_config("plant", seed=8, num_sequences=500, counts=(10, 4, 2)))
        planted = set("abcdefklmn")
        planted_ids = set(ds.alphabet.ids_of(planted).tolist()) - {-1}
        counts = {pid: 0 for pid in planted_ids}
        for seq in rows(ds):
            for sid in seq:
                if sid in counts:
                    counts[sid] += 1
        # each planted label appears exactly once per successful occurrence
        (a_id,) = ds.alphabet.ids_of("a").tolist()
        assert counts[a_id] == 10
