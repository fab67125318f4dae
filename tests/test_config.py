from __future__ import annotations

import re
from dataclasses import fields
from pathlib import Path

import pytest

from dropsplit.classifiers import ClassifierSpec
from dropsplit.config import RUN_KEYS, ConfigError, RunConfig, generator_config_from, load_kv
from dropsplit.terms import Term

RANGE = "range_start=2009.1\nrange_end=2012.2\n"


def kv_from(tmp_path, text: str) -> dict[str, str]:
    path = tmp_path / "run.cfg"
    path.write_text(text, encoding="utf-8")
    return load_kv(path)


def load(tmp_path, text: str) -> RunConfig:
    """A run config over students/courses files (not read at load) plus text."""
    path = tmp_path / "run.cfg"
    path.write_text("students=s.csv\ncourses=c.csv\n" + RANGE + text, encoding="utf-8")
    return RunConfig.load(path)


class TestComments:
    def test_hash_inside_value_is_kept(self, tmp_path):
        kv = kv_from(tmp_path, "students=data/run#2/students.csv\n")
        assert kv["students"] == "data/run#2/students.csv"

    def test_trailing_comment_after_whitespace_is_dropped(self, tmp_path):
        kv = kv_from(tmp_path, "# full-line comment\n  # indented comment\nseed=7 # trailing comment\n")
        assert kv == {"seed": "7"}


class TestMinitermMap:
    def test_non_integer_index_names_the_key(self, tmp_path):
        with pytest.raises(ConfigError, match="map.S1"):
            load(tmp_path, "map.S1=first\n")

    def test_index_outside_calendar_names_the_key(self, tmp_path):
        with pytest.raises(ConfigError, match="map.S1"):
            load(tmp_path, "terms_per_year=2\nmap.S1=3\n")

    def test_valid_index_is_mapped(self, tmp_path):
        assert load(tmp_path, "map.S1=2\n").ingest.miniterm_map == {"S1": 2}


class TestSplitSeed:
    def test_non_integer_names_the_key(self, tmp_path):
        with pytest.raises(ConfigError, match="split_seed"):
            load(tmp_path, "split_seed=x\n")

    def test_value_and_default(self, tmp_path):
        assert load(tmp_path, "split_seed=42\n").split_seed == 42
        assert load(tmp_path, "").split_seed == 0

    @pytest.mark.parametrize("value", ["-1", str(2**64)])
    def test_outside_64_bits_names_the_key(self, tmp_path, value):
        with pytest.raises(ConfigError, match=r"key 'split_seed': seed must lie in \[0, 2\*\*64\)"):
            load(tmp_path, f"split_seed={value}\n")

    def test_64_bit_extremes_accepted(self, tmp_path):
        assert load(tmp_path, "split_seed=0\n").split_seed == 0
        assert load(tmp_path, f"split_seed={2**64 - 1}\n").split_seed == 2**64 - 1


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

    def test_terms_per_year_below_one_names_the_key(self, tmp_path):
        with pytest.raises(ConfigError, match=r"^key 'terms_per_year': expected an integer >= 1, got '0'$"):
            generator_config_from(kv_from(tmp_path, RANGE + "terms_per_year=0\n"))

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
        return load(tmp_path, f"attr_codes={path}\n").ingest, path

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
        with pytest.raises(ConfigError) as exc:
            load(tmp_path, "classifiers=extra_trees,gaussian_nb,knn\n" + line + "\n")
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "line, message",
        [
            ("knn.k=0", "key 'knn.k': k must be >= 1"),
            ("decision_tree.max_depth=0", "key 'decision_tree.max_depth': max_depth must be >= 1 or None"),
            ("extra_trees.min_samples_split=1", "key 'extra_trees.min_samples_split': min_samples_split must be >= 2"),
            ("extra_trees.n_trees=0", "key 'extra_trees.n_trees': n_trees must be >= 1"),
            ("extra_trees.feature_subsample=0", "key 'extra_trees.feature_subsample': feature_subsample must be >= 1"),
            ("gaussian_nb.variance_floor=0", "key 'gaussian_nb.variance_floor': variance_floor must be positive"),
        ],
    )
    def test_out_of_range_value_names_the_key(self, tmp_path, line, message):
        with pytest.raises(ConfigError) as exc:
            load(tmp_path, "classifiers=decision_tree,extra_trees,knn,gaussian_nb\n" + line + "\n")
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "line, message",
        [
            ("knn.n_trees=30", "key 'knn.n_trees': classifier kind 'knn' does not read n_trees, only k"),
            (
                "gaussian_nb.max_depth=3",
                "key 'gaussian_nb.max_depth': classifier kind 'gaussian_nb' does not read max_depth, only variance_floor",
            ),
            (
                "decision_tree.seed=3",
                "key 'decision_tree.seed': classifier kind 'decision_tree' does not read seed, only max_depth,min_samples_split",
            ),
            ("fast.max_depth=3", "key 'fast.max_depth': classifier kind 'knn' does not read max_depth, only k"),
        ],
    )
    def test_parameter_the_kind_does_not_read_names_key_and_kind(self, tmp_path, line, message):
        with pytest.raises(ConfigError) as exc:
            load(tmp_path, "classifiers=decision_tree,knn,gaussian_nb,fast\nfast.kind=knn\n" + line + "\n")
        assert str(exc.value) == message

    def test_values_parsed(self, tmp_path):
        (spec,) = load(
            tmp_path,
            f"classifiers=extra_trees\nextra_trees.n_trees=3\nextra_trees.max_depth=none\n"
            f"extra_trees.feature_subsample=2\nextra_trees.seed={2**64 - 1}\n",
        ).specs
        assert (spec.n_trees, spec.max_depth, spec.feature_subsample, spec.seed) == (3, None, 2, 2**64 - 1)


class TestKeyTable:
    def test_readme_lists_every_key_with_its_default(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("### Run-config keys", 1)[1].split("\n#", 1)[0]
        listed = re.findall(r"^\| `([^`]+)` \| ([^|]+?) \|", section, flags=re.M)

        def shown(row) -> str:
            if row.required:
                return "required"
            return {None: "unset", "": "empty"}.get(row.default, f"`{row.default}`")

        assert listed == [(key, shown(row)) for key, row in RUN_KEYS.items()]

    def test_classifier_parameter_defaults_are_the_spec_defaults(self):
        spec_defaults = {f.name: f.default for f in fields(ClassifierSpec)}
        params = [key.removeprefix("<name>.") for key in RUN_KEYS if key.startswith("<name>.")]
        assert params == ["kind", "max_depth", "min_samples_split", "n_trees", "feature_subsample", "seed", "k", "variance_floor"]
        for param in params[1:]:
            row = RUN_KEYS[f"<name>.{param}"]
            assert row.parse(row.default, 2) == spec_defaults[param], param

    def test_defaults_of_an_ingest_config(self, tmp_path):
        cfg = load(tmp_path, "")
        assert [a.value for a in cfg.approaches] == ["A", "B1", "B2", "B2T", "B3T", "B4T"]
        assert cfg.specs == [ClassifierSpec(kind=k) for k in ("decision_tree", "extra_trees", "knn", "gaussian_nb")]
        assert (cfg.terms_per_year, cfg.t_start, cfg.t_end, cfg.split_seed) == (2, None, None, 0)
        assert (cfg.points_mode, cfg.final_approach.value, cfg.confusion_terms) == ("pairs", "B4T", [])
        assert cfg.time_features == ("completed_terms", "courses_taken", "courses_failed", "mean_attendance", "mean_score")
        assert cfg.students_path == tmp_path / "s.csv" and cfg.generator is None
        assert (cfg.ingest.range_start, cfg.ingest.range_end, cfg.ingest.miniterm_map, cfg.ingest.attr_codes) == (
            Term(2009, 1), Term(2012, 2), {}, None
        )

    def test_flag_replaces_the_key_and_an_error_names_the_flag(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("students=s.csv\ncourses=c.csv\n" + RANGE + "t_start=2011.x\napproaches=B1\n", encoding="utf-8")
        cfg = RunConfig.load(path, {"t_start": "2012.1", "approaches": None})
        assert (cfg.t_start, [a.value for a in cfg.approaches]) == (Term(2012, 1), ["B1"])
        with pytest.raises(ConfigError, match=r"^--t-end: malformed term '2012\.x'"):
            RunConfig.load(path, {"t_start": "2012.1", "t_end": "2012.x"})
        with pytest.raises(ConfigError, match=r"^key 't_start': malformed term '2011\.x'"):
            RunConfig.load(path, {"t_start": ""})
