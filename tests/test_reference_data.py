import pytest

from atomscreen.spectra import _parse_reference_text, load_reference_records, reference_records


class TestBundledData:
    def test_row_counts(self):
        records = load_reference_records()
        assert len(records) == 11 + 6 + 9
        assert len(reference_records("I")) == 11
        assert len(reference_records("II")) == 6
        assert len(reference_records("III")) == 9

    def test_spot_values_match_the_printed_tables(self):
        table1 = {r.label: r for r in reference_records("I")}
        assert table1["He"].present1_ev == 24.76
        assert table1["He"].present2_ev == 35.21
        assert table1["He"].reference_ev == 24.60
        assert table1["Mg"].present1_ev == 8.95
        table2 = {r.label: r for r in reference_records("II")}
        assert table2["1s"].present1_ev == 79.161
        assert table2["3d"].present2_ev == 55.911
        table3 = {r.label: r for r in reference_records("III")}
        assert table3["2s"].present1_ev == -5.500
        assert table3["4f"].present1_ev == -0.834
        assert table3["4f"].reference_ev == -0.848

    def test_refuses_a_table_it_does_not_hold(self):
        with pytest.raises(ValueError, match=r"^table must be 'I', 'II' or 'III'$"):
            reference_records("IV")


class TestParsing:
    def test_rejects_wrong_field_count(self):
        with pytest.raises(ValueError, match="expected 5 fields"):
            _parse_reference_text("# version: 1\nHe 24.76 35.21 I\n")

    def test_rejects_unknown_table(self):
        with pytest.raises(ValueError, match="unknown table"):
            _parse_reference_text("# version: 1\nHe 1 2 3 IV\n")

    def test_rejects_bad_number(self):
        with pytest.raises(ValueError, match="bad number"):
            _parse_reference_text("# version: 1\nHe x 35.21 24.60 I\n")

    def test_rejects_missing_version(self):
        with pytest.raises(ValueError, match="version"):
            _parse_reference_text("He 24.76 35.21 24.60 I\n")

    def test_rejects_empty_file(self):
        with pytest.raises(ValueError, match="no reference records"):
            _parse_reference_text("# version: 1\n")
