from __future__ import annotations

import pytest

from dropsplit.config import (
    ConfigError,
    classifier_specs_from,
    generator_config_from,
    ingest_config_from,
    load_kv,
    split_seed_from,
)
from dropsplit.terms import Term

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

    @pytest.mark.parametrize("value", ["-1", str(2**64)])
    def test_outside_64_bits_names_the_key(self, tmp_path, value):
        with pytest.raises(ConfigError, match=r"key 'split_seed': seed must lie in \[0, 2\*\*64\)"):
            split_seed_from(kv_from(tmp_path, f"split_seed={value}\n"))

    def test_64_bit_extremes_accepted(self, tmp_path):
        assert split_seed_from(kv_from(tmp_path, "split_seed=0\n")) == 0
        assert split_seed_from(kv_from(tmp_path, f"split_seed={2**64 - 1}\n")) == 2**64 - 1


class TestGeneratorSeed:
    @pytest.mark.parametrize("value", ["-1", str(2**64)])
    def test_outside_64_bits_names_the_key(self, tmp_path, value):
        with pytest.raises(ConfigError, match=r"key 'seed': seed must lie in \[0, 2\*\*64\)"):
            generator_config_from(kv_from(tmp_path, RANGE + f"seed={value}\n"))

    def test_64_bit_extremes_accepted(self, tmp_path):
        assert generator_config_from(kv_from(tmp_path, RANGE + f"seed={2**64 - 1}\n")).seed == 2**64 - 1


class TestGeneratorKeys:
    @pytest.mark.parametrize("key", ["intake_per_trem", "max_terms", "score_behind_drop", "students"])
    def test_unread_key_names_it(self, tmp_path, key):
        with pytest.raises(ConfigError, match=f"^unknown generator config key '{key}'$"):
            generator_config_from(kv_from(tmp_path, RANGE + f"{key}=5\n"))

    def test_regime_shift_without_term_is_refused(self, tmp_path):
        with pytest.raises(ConfigError, match="^key 'regime_change_shift' needs a regime_change_term$"):
            generator_config_from(kv_from(tmp_path, RANGE + "regime_change_shift=0.5\n"))

    def test_every_readable_key_is_read(self, tmp_path):
        kv = kv_from(
            tmp_path,
            RANGE + "seed=3\nterms_per_year=2\nintake_per_term=7\ndegree_count=2\nscore_base=5.5\n"
            "regime_change_term=2010.2\nregime_change_shift=0.5\n",
        )
        cfg = generator_config_from(kv)
        assert (cfg.seed, cfg.intake_per_term, cfg.degree_count, cfg.score_base) == (3, 7, 2, 5.5)
        assert (cfg.regime_change.term, cfg.regime_change.hazard_shift) == (Term(2010, 2), 0.5)


class TestAttrCodes:
    def write(self, tmp_path, text):
        path = tmp_path / "codes.csv"
        path.write_text(text, encoding="utf-8")
        return ingest_config_from({"range_start": "2009.1", "range_end": "2012.2", "attr_codes": str(path)}), path

    def test_codes_are_read(self, tmp_path):
        cfg, _ = self.write(tmp_path, "attribute,value,code\nsex,F,0\nsex,M,1\n")
        assert cfg.attr_codes == {"sex": {"F": 0, "M": 1}}

    def test_missing_column_names_file_and_row(self, tmp_path):
        with pytest.raises(ConfigError) as exc:
            self.write(tmp_path, "attribute,value\nsex,F\n")
        assert str(exc.value) == f"{tmp_path / 'codes.csv'}: row 1: missing column 'code'"

    def test_non_integer_code_names_file_and_row(self, tmp_path):
        with pytest.raises(ConfigError) as exc:
            self.write(tmp_path, "attribute,value,code\nsex,F,0\nsex,M,x\n")
        assert str(exc.value) == f"{tmp_path / 'codes.csv'}: row 3: column 'code' has non-integer value 'x'"

    def test_extra_cell_names_file_and_row(self, tmp_path):
        with pytest.raises(ConfigError) as exc:
            self.write(tmp_path, "attribute,value,code\nsex,M,1\nsex,F,0,extra\n")
        assert str(exc.value) == f"{tmp_path / 'codes.csv'}: row 3: more cells than the header's 3"

    def test_repeated_pair_names_file_and_both_rows(self, tmp_path):
        with pytest.raises(ConfigError) as exc:
            self.write(tmp_path, "attribute,value,code\nsex,F,0\nsex,M,1\nsex,F,1\n")
        assert str(exc.value) == f"{tmp_path / 'codes.csv'}: row 4: attribute 'sex' value 'F' already coded on row 2"


class TestClassifierParameters:
    @pytest.mark.parametrize(
        "line, message",
        [
            ("extra_trees.n_trees=abc", "key 'extra_trees.n_trees': expected integer, got 'abc'"),
            ("extra_trees.feature_subsample=half", "key 'extra_trees.feature_subsample': expected 'sqrt', 'log2' or integer, got 'half'"),
            ("extra_trees.max_depth=deep", "key 'extra_trees.max_depth': expected integer or 'none', got 'deep'"),
            ("gaussian_nb.variance_floor=tiny", "key 'gaussian_nb.variance_floor': expected number, got 'tiny'"),
            ("knn.seed=x", "key 'knn.seed': expected integer, got 'x'"),
            ("extra_trees.seed=-1", "key 'extra_trees.seed': seed must lie in [0, 2**64), got -1"),
            (f"extra_trees.seed={2**64}", f"key 'extra_trees.seed': seed must lie in [0, 2**64), got {2**64}"),
        ],
    )
    def test_bad_value_names_the_key(self, tmp_path, line, message):
        kv = kv_from(tmp_path, "classifiers=extra_trees,gaussian_nb,knn\n" + line + "\n")
        with pytest.raises(ConfigError) as exc:
            classifier_specs_from(kv)
        assert str(exc.value) == message

    def test_values_parsed(self, tmp_path):
        kv = kv_from(
            tmp_path,
            f"classifiers=extra_trees\nextra_trees.n_trees=3\nextra_trees.max_depth=none\n"
            f"extra_trees.feature_subsample=2\nextra_trees.seed={2**64 - 1}\n",
        )
        (spec,) = classifier_specs_from(kv)
        assert (spec.n_trees, spec.max_depth, spec.feature_subsample, spec.seed) == (3, None, 2, 2**64 - 1)
