import hashlib
import logging

import numpy as np
import pytest

from episoderank.cli import main
from episoderank.datagen import (
    DataError,
    Dataset,
    GeneratorConfig,
    PlantSpec,
    default_config,
    generate,
    load_sequences,
    plant_patterns,
    save_dataset,
)
from episoderank.episodes import serial
from episoderank.machine import build_machine, support

from conftest import dataset_from_strings
from oracles import rows, symbol_rows


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

    def test_length_counts_keep_first_appearance_order(self):
        # the key order fixes the summation order of the expected support
        ds = dataset_from_strings(["abc", "a", "", "xyz", "ab", "b", "", "c"])
        counts = ds.length_counts()
        assert list(counts.items()) == [(3, 2), (1, 3), (0, 2), (2, 1)]
        assert ds.num_sequences == 8 and ds.total_events == 11

    def test_missing_file(self):
        with pytest.raises(DataError):
            load_sequences("/nonexistent/corpus.txt")


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
        ids = [full_plant.alphabet.id_of(lab) for lab in "abcd"]
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
        ids = [ds.alphabet.id_of(lab) for lab in "abcd"]
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
        planted_ids = {ds.alphabet.id_of(x) for x in planted} - {None}
        counts = {pid: 0 for pid in planted_ids}
        for seq in rows(ds):
            for sid in seq:
                if sid in counts:
                    counts[sid] += 1
        # each planted label appears exactly once per successful occurrence
        a_id = ds.alphabet.id_of("a")
        assert counts[a_id] == 10
