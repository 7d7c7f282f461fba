import pytest

from siglink.errors import ConfigError
from siglink.synth import generate_dataset, write_dataset


class TestGenerateDataset:
    def test_deterministic_for_same_seed(self, tmp_path):
        outputs = []
        for run in range(2):
            rows, truth = generate_dataset(100, 3, 0.2, seed=42)
            rec = tmp_path / f"r{run}.csv"
            tru = tmp_path / f"t{run}.csv"
            write_dataset(rows, truth, rec, tru)
            outputs.append((rec.read_bytes(), tru.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_seed_changes_output(self):
        assert generate_dataset(50, 2, 0.3, seed=1) != generate_dataset(50, 2, 0.3, seed=2)

    def test_row_and_truth_counts(self):
        rows, truth = generate_dataset(10, 4, 0.5, seed=7)
        assert len(rows) == 40
        assert len(truth) == 10 * 6  # C(4,2) per entity

    def test_zero_corruption_copies_identical(self):
        rows, _ = generate_dataset(20, 3, 0.0, seed=3)
        for e in range(20):
            group = rows[e * 3:(e + 1) * 3]
            assert len({(r["name"], r["address"], r["phone"]) for r in group}) == 1

    def test_full_corruption_usually_changes_fields(self):
        rows, _ = generate_dataset(30, 2, 1.0, seed=5)
        changed = sum(
            1 for e in range(30)
            if rows[2 * e]["name"] != rows[2 * e + 1]["name"]
            or rows[2 * e]["phone"] != rows[2 * e + 1]["phone"]
        )
        assert changed > 20

    def test_rec_ids_unique_and_referenced(self):
        rows, truth = generate_dataset(15, 3, 0.2, seed=11)
        ids = [r["rec_id"] for r in rows]
        assert len(set(ids)) == len(ids)
        known = set(ids)
        assert all(a in known and b in known for a, b in truth)

    def test_phone_is_digit_string(self):
        rows, _ = generate_dataset(25, 2, 0.4, seed=13)
        assert all(r["phone"].isdigit() for r in rows)

    def test_parameter_validation(self):
        # Each error names its parameter, as ``SynthSpec`` names its key.
        with pytest.raises(ConfigError, match=r"^n_entities must be >= 1, got 0$"):
            generate_dataset(0, 3, 0.2, seed=1)
        with pytest.raises(ConfigError, match=r"^records_per_entity must be >= 1, got 0$"):
            generate_dataset(5, 0, 0.2, seed=1)
        with pytest.raises(ConfigError, match=r"^corruption_rate must be in \[0, 1\], got 1.5$"):
            generate_dataset(5, 3, 1.5, seed=1)

    def test_csv_shape(self, tmp_path):
        rows, truth = generate_dataset(5, 2, 0.2, seed=21)
        rec, tru = tmp_path / "records.csv", tmp_path / "truth.csv"
        write_dataset(rows, truth, rec, tru)
        rec_lines = rec.read_text().splitlines()
        assert rec_lines[0] == "rec_id,name,address,phone"
        assert len(rec_lines) == 11
        tru_lines = tru.read_text().splitlines()
        assert tru_lines[0] == "id_a,id_b"
        assert len(tru_lines) == 6
