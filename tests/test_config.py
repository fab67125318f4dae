from __future__ import annotations

import pytest

from dropsplit.config import ConfigError, ingest_config_from, load_kv, split_seed_from

RANGE = "range_start=2009.1\nrange_end=2012.2\n"


def kv_from(tmp_path, text: str) -> dict[str, str]:
    path = tmp_path / "run.cfg"
    path.write_text(text, encoding="utf-8")
    return load_kv(path)


class TestComments:
    def test_hash_inside_value_is_kept(self, tmp_path):
        kv = kv_from(tmp_path, "students=data/run#2/students.csv\n")
        assert kv["students"] == "data/run#2/students.csv"

    def test_trailing_comment_after_whitespace_is_dropped(self, tmp_path):
        kv = kv_from(tmp_path, "# full-line comment\n  # indented comment\nseed=7 # trailing comment\n")
        assert kv == {"seed": "7"}


class TestMinitermMap:
    def test_non_integer_index_names_the_key(self, tmp_path):
        kv = kv_from(tmp_path, RANGE + "map.S1=first\n")
        with pytest.raises(ConfigError, match="map.S1"):
            ingest_config_from(kv)

    def test_index_outside_calendar_names_the_key(self, tmp_path):
        kv = kv_from(tmp_path, RANGE + "terms_per_year=2\nmap.S1=3\n")
        with pytest.raises(ConfigError, match="map.S1"):
            ingest_config_from(kv)

    def test_valid_index_is_mapped(self, tmp_path):
        kv = kv_from(tmp_path, RANGE + "map.S1=2\n")
        assert ingest_config_from(kv).miniterm_map == {"S1": 2}


class TestSplitSeed:
    def test_non_integer_names_the_key(self, tmp_path):
        kv = kv_from(tmp_path, "split_seed=x\n")
        with pytest.raises(ConfigError, match="split_seed"):
            split_seed_from(kv)

    def test_value_and_default(self, tmp_path):
        assert split_seed_from(kv_from(tmp_path, "split_seed=42\n")) == 42
        assert split_seed_from({}) == 0
