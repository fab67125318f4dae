from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from dropsplit.cli import main
from dropsplit.config import RunConfig
from dropsplit.splits import SplitApproach, SplitRequest, build_split
from dropsplit.synthgen import generate
from dropsplit.terms import Term

GEN_CFG = """\
seed=11
range_start=2009.1
range_end=2012.2
intake_per_term=15
"""


@pytest.fixture
def gen_cfg(tmp_path) -> Path:
    path = tmp_path / "gen.cfg"
    path.write_text(GEN_CFG, encoding="utf-8")
    return path


@pytest.fixture
def run_cfg(tmp_path, gen_cfg) -> Path:
    path = tmp_path / "run.cfg"
    path.write_text(
        f"""\
generator_config={gen_cfg.name}
terms_per_year=2
t_start=2011.1
t_end=2012.2
approaches=B1,B2T
classifiers=gaussian_nb,decision_tree
decision_tree.max_depth=5
split_seed=3
confusion_terms=2012.1
final_approach=B2T
""",
        encoding="utf-8",
    )
    return path


def digest_dir(path: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(path.iterdir())
        if p.is_file()
    }


def assert_no_run(out: Path) -> None:
    """Neither out nor a staging sibling of it is left behind."""
    assert not out.exists()
    assert not [p.name for p in out.parent.iterdir() if p.name.startswith(f".{out.name}")]


def read_manifest(path: Path) -> dict[str, str]:
    out = {}
    for line in (path / "manifest.txt").read_text().splitlines():
        key, value = line.split("=", 1)
        out[key] = value
    return out


class TestGenerate:
    def test_writes_all_outputs(self, tmp_path, gen_cfg):
        out = tmp_path / "gen_out"
        assert main(["generate", "--config", str(gen_cfg), "--out", str(out)]) == 0
        for name in ("students.csv", "courses.csv", "truth_sealed.csv", "genstats.txt", "manifest.txt", "config.txt"):
            assert (out / name).exists(), name
        manifest = read_manifest(out)
        assert manifest["command"] == "generate"
        assert manifest["seed"] == "11"

    def test_same_config_byte_identical(self, tmp_path, gen_cfg):
        out1, out2 = tmp_path / "g1", tmp_path / "g2"
        main(["generate", "--config", str(gen_cfg), "--out", str(out1)])
        main(["generate", "--config", str(gen_cfg), "--out", str(out2)])
        assert digest_dir(out1) == digest_dir(out2)

    @pytest.mark.parametrize(
        "line, message",
        [
            ("degree_count=0", "error: degree_count must be >= 1, got 0"),
            ("score_base=nan", "error: score_base must be finite, got nan"),
            ("attendance_noise_std=inf", "error: attendance_noise_std must be finite, got inf"),
            ("intake_per_trem=5", "error [config]: unknown generator config key 'intake_per_trem'"),
            ("max_terms=14", "error [config]: unknown generator config key 'max_terms'"),
        ],
    )
    def test_bad_setting_exits_1_naming_it(self, tmp_path, line, message, capsys):
        cfg = tmp_path / "bad_gen.cfg"
        cfg.write_text(GEN_CFG + line + "\n", encoding="utf-8")
        out = tmp_path / "gen_out"
        assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err.strip() == message
        assert not out.exists()


class TestSplitCommand:
    def test_matches_module_level_oracle(self, tmp_path, run_cfg):
        out = tmp_path / "split_out"
        code = main(
            ["split", "--config", str(run_cfg), "--approach", "B4T", "--t", "2011.2", "--out", str(out)]
        )
        assert code == 0
        cfg = RunConfig.load(run_cfg)
        cohort = generate(cfg.generator).cohort
        train, test = build_split(cohort, SplitRequest(SplitApproach.B4T, Term(2011, 2), seed=3))
        expected_train = [",".join(train.meta.feature_names + ("label",))]
        for i in range(train.n):
            expected_train.append(
                ",".join([repr(float(v)) for v in train.X[i]] + [str(int(train.y[i]))])
            )
        got = (out / "train.csv").read_text().strip().splitlines()
        assert got == expected_train
        prov = (out / "provenance.csv").read_text().strip().splitlines()
        assert prov[0] == "student_id,as_of,role"
        assert len(prov) == 1 + train.n + test.n
        manifest = read_manifest(out)
        assert manifest["approach"] == "B4T"
        assert manifest["reference_term"] == "2011.2"
        assert manifest["train_rows"] == str(train.n)

    def test_missing_input_file_exits_1_with_path(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("students=missing_students.csv\ncourses=missing_courses.csv\nrange_start=2009.1\nrange_end=2012.2\n")
        code = main(["split", "--config", str(cfg), "--approach", "B1", "--t", "2011.1", "--out", str(tmp_path / "o")])
        assert code == 1
        assert "missing_students.csv" in capsys.readouterr().err

    def test_unknown_flag_exits_2(self, run_cfg, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["split", "--config", str(run_cfg), "--bogus", "x", "--t", "2011.1", "--out", str(tmp_path / "o")])
        assert exc.value.code == 2

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_outside_64_bits_exits_1(self, run_cfg, tmp_path, capsys, seed):
        out = tmp_path / "o"
        code = main(["split", "--config", str(run_cfg), "--approach", "A", "--t", "2011.2", "--seed", seed, "--out", str(out)])
        assert code == 1
        assert f"error [config]: --seed: seed must lie in [0, 2**64), got {seed}" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_approach_exits_1(self, run_cfg, tmp_path, capsys):
        code = main(["split", "--config", str(run_cfg), "--approach", "B9", "--t", "2011.1", "--out", str(tmp_path / "o")])
        assert code == 1
        assert "B9" in capsys.readouterr().err

    def test_time_features_config_key_controls_columns(self, tmp_path, run_cfg):
        cfg = tmp_path / "narrow.cfg"
        cfg.write_text(run_cfg.read_text() + "time_features=courses_taken,mean_score\n")
        out = tmp_path / "narrow_out"
        assert main(["split", "--config", str(cfg), "--approach", "B1", "--t", "2011.2", "--out", str(out)]) == 0
        header = (out / "train.csv").read_text().splitlines()[0]
        assert header.endswith("courses_taken,mean_score,label")
        assert "mean_attendance" not in header

    def test_unknown_time_feature_exits_1(self, tmp_path, run_cfg, capsys):
        cfg = tmp_path / "bad_feats.cfg"
        cfg.write_text(run_cfg.read_text() + "time_features=bogus_feature\n")
        code = main(["split", "--config", str(cfg), "--approach", "B1", "--t", "2011.2", "--out", str(tmp_path / "o2")])
        assert code == 1
        err = capsys.readouterr().err
        assert "bogus_feature" in err
        assert "error [config]: key 'time_features': unknown time-based features: ['bogus_feature']" in err
        assert not (tmp_path / "o2").exists()

    def test_bad_reference_term_names_the_flag(self, tmp_path, run_cfg, capsys):
        out = tmp_path / "o"
        code = main(["split", "--config", str(run_cfg), "--approach", "B1", "--t", "2011.x", "--out", str(out)])
        assert code == 1
        assert "error [config]: --t: malformed term '2011.x'" in capsys.readouterr().err
        assert not out.exists()

    def test_reference_term_outside_the_range_names_the_flag(self, tmp_path, run_cfg, capsys):
        out = tmp_path / "o"
        code = main(["split", "--config", str(run_cfg), "--approach", "B4T", "--t", "2013.1", "--out", str(out)])
        assert code == 1
        assert "error [config]: --t: 2013.1 is outside the cohort range 2009.1..2012.2" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["split", "predict"])
    def test_approach_flag_names_one_approach(self, tmp_path, run_cfg, capsys, command):
        out = tmp_path / "o"
        extra = ["--t", "2011.2"] if command == "split" else ["--classifier", "gaussian_nb"]
        code = main([command, "--config", str(run_cfg), "--approach", "B1,B2T", *extra, "--out", str(out)])
        assert code == 1
        assert "error [config]: --approach: expected one approach, got 'B1,B2T'" in capsys.readouterr().err
        assert not out.exists()


class TestEvaluateCommand:
    def test_bad_split_seed_names_the_key(self, tmp_path, run_cfg, capsys):
        cfg = tmp_path / "bad_seed.cfg"
        cfg.write_text(run_cfg.read_text().replace("split_seed=3", "split_seed=x"))
        out = tmp_path / "bad_seed_out"
        assert main(["evaluate", "--config", str(cfg), "--out", str(out)]) == 1
        assert "error [config]: key 'split_seed'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("split_seed=3", "split_seed=-1", "key 'split_seed': seed must lie in [0, 2**64), got -1"),
            ("decision_tree.max_depth=5", "decision_tree.min_samples_split=abc", "key 'decision_tree.min_samples_split': expected integer"),
            ("classifiers=gaussian_nb,decision_tree", "classifiers=gaussian_nb,gaussian_nb", "key 'classifiers': a name is listed twice in gaussian_nb,gaussian_nb"),
        ],
    )
    def test_bad_value_names_the_key(self, tmp_path, run_cfg, capsys, old, new, message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(run_cfg.read_text().replace(old, new))
        assert main(["evaluate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert f"error [config]: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "old, new, key",
        [
            ("split_seed=3", "split_seed=3\npoints_mode=bogus", "points_mode"),
            ("final_approach=B2T", "final_approach=B9", "final_approach"),
            ("final_approach=B2T", "final_approach=B1,B2T", "final_approach"),
            ("confusion_terms=2012.1", "confusion_terms=2012.1,2012.x", "confusion_terms"),
            ("t_start=2011.1", "t_start=2011.x", "t_start"),
            ("t_end=2012.2", "t_end=2012.x", "t_end"),
            ("approaches=B1,B2T", "approaches=B1,B9", "approaches"),
        ],
    )
    def test_bad_report_setting_exits_before_the_grid(self, tmp_path, run_cfg, capsys, old, new, key):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(run_cfg.read_text().replace(old, new))
        out = tmp_path / "o"
        assert main(["evaluate", "--config", str(cfg), "--out", str(out)]) == 1
        assert f"error [config]: key {key!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags", [["--t-start", "2011.x"], ["--t-end", "2012.3"], ["--approaches", "B1,B9"]]
    )
    def test_bad_grid_flag_names_the_flag(self, tmp_path, run_cfg, capsys, flags):
        out = tmp_path / "o"
        assert main(["evaluate", "--config", str(run_cfg), *flags, "--out", str(out)]) == 1
        assert f"error [config]: {flags[0]}: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "line, message",
        [
            # a key no row of the table lists
            ("final_aproach=B3T", "unknown run config key 'final_aproach'"),
            ("time_feature=elapsed_terms", "unknown run config key 'time_feature'"),
            ("students_path=x", "unknown run config key 'students_path'"),
            ("decision_tree.n_tree=3", "unknown run config key 'decision_tree.n_tree'"),
            # a <name>.<param> key whose name is not a configured classifier
            ("extra_tree.n_trees=3", "key 'extra_tree.n_trees': 'extra_tree' is not in classifiers=gaussian_nb,decision_tree"),
            # a key the generator_config mode does not read
            ("range_start=1999.1", "key 'range_start' is not read when generator_config is set"),
            ("map.S1=1", "key 'map.S1' is not read when generator_config is set"),
            ("attr_codes=codes.csv", "key 'attr_codes' is not read when generator_config is set"),
            # both kinds of input
            ("students=s.csv\ncourses=c.csv", "key 'students' is not read when generator_config is set"),
            # terms per year
            ("terms_per_year=0", "key 'terms_per_year': expected an integer >= 1, got '0'"),
            ("terms_per_year=3", "key 'terms_per_year': 3 here, 2 in the generator config"),
            # every <name>.<param>
            ("gaussian_nb.kind=forest", "key 'gaussian_nb.kind': expected one of decision_tree,extra_trees,knn,gaussian_nb, got 'forest'"),
            ("gaussian_nb.max_depth=deep", "key 'gaussian_nb.max_depth': expected integer or 'none', got 'deep'"),
            ("gaussian_nb.min_samples_split=x", "key 'gaussian_nb.min_samples_split': expected integer, got 'x'"),
            ("gaussian_nb.n_trees=x", "key 'gaussian_nb.n_trees': expected integer, got 'x'"),
            ("gaussian_nb.feature_subsample=half", "key 'gaussian_nb.feature_subsample': expected 'sqrt', 'log2' or integer, got 'half'"),
            ("gaussian_nb.seed=-1", "key 'gaussian_nb.seed': seed must lie in [0, 2**64), got -1"),
            ("gaussian_nb.k=x", "key 'gaussian_nb.k': expected integer, got 'x'"),
            ("gaussian_nb.variance_floor=tiny", "key 'gaussian_nb.variance_floor': expected number, got 'tiny'"),
            # a walk that ends before it starts (the config has t_start=2011.1, t_end=2012.2)
            ("t_end=2010.2", "key 't_end': 2010.2 is before t_start 2011.1"),
            ("--t-end 2010.2", "--t-end: 2010.2 is before t_start 2011.1"),
            ("--t-start 2013.1", "key 't_end': 2012.2 is before t_start 2013.1"),
            # a walk past the generated cohort's range, 2009.1..2012.2
            ("t_end=2013.1", "key 't_end': 2013.1 is outside the cohort range 2009.1..2012.2"),
            ("--t-end 2013.1", "--t-end: 2013.1 is outside the cohort range 2009.1..2012.2"),
            ("--t-start 2008.2", "--t-start: 2008.2 is outside the cohort range 2009.1..2012.2"),
        ],
    )
    def test_config_typo_exits_before_the_grid(self, tmp_path, run_cfg, capsys, line, message):
        """line is appended to the config, in place of a key it sets, or
        passed as flags when it starts with --."""
        flags = line.split() if line.startswith("--") else []
        appended = [] if flags else line.split("\n")
        keys = {"terms_per_year"} | {kv.split("=")[0] for kv in appended}
        kept = [kv for kv in run_cfg.read_text().splitlines() if kv.split("=")[0] not in keys]
        cfg = tmp_path / "typo.cfg"
        cfg.write_text("\n".join(kept + appended) + "\n")
        out = tmp_path / "o"
        assert main(["evaluate", "--config", str(cfg), *flags, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error [config]: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "line, flags, message",
        [
            ("t_start=2011.1\nt_end=2013.1\n", [], "key 't_end': 2013.1 is outside the cohort range 2009.1..2012.2"),
            ("t_start=2011.1\nt_end=2012.2\n", ["--t-end", "2013.1"], "--t-end: 2013.1 is outside the cohort range 2009.1..2012.2"),
            ("t_start=2008.2\nt_end=2012.2\n", [], "key 't_start': 2008.2 is outside the cohort range 2009.1..2012.2"),
        ],
    )
    def test_walk_outside_the_ingest_range_exits_before_the_grid(self, tmp_path, gen_cfg, capsys, line, flags, message):
        gen_out = tmp_path / "gen_data"
        main(["generate", "--config", str(gen_cfg), "--out", str(gen_out)])
        cfg = tmp_path / "ingest.cfg"
        cfg.write_text(
            f"students={gen_out / 'students.csv'}\ncourses={gen_out / 'courses.csv'}\n"
            f"range_start=2009.1\nrange_end=2012.2\nclassifiers=gaussian_nb\n{line}"
        )
        capsys.readouterr()
        out = tmp_path / "o"
        assert main(["evaluate", "--config", str(cfg), *flags, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error [config]: {message}\n"
        assert not out.exists()

    def test_end_to_end_outputs(self, tmp_path, run_cfg):
        out = tmp_path / "eval_out"
        assert main(["evaluate", "--config", str(run_cfg), "--out", str(out)]) == 0
        for name in (
            "accuracy_B1.csv",
            "accuracy_B2T.csv",
            "points_B1.csv",
            "points_B2T.csv",
            "chart_B1.svg",
            "chart_B2T.svg",
            "setsizes.csv",
            "predictions.csv",
            "manifest.txt",
        ):
            assert (out / name).exists(), name
        manifest = read_manifest(out)
        assert manifest["final_approach"] == "B2T"
        assert int(manifest["predictions"]) + int(manifest["prediction_exclusions"]) > 0

    def test_two_runs_byte_identical(self, tmp_path, run_cfg):
        out1, out2 = tmp_path / "e1", tmp_path / "e2"
        main(["evaluate", "--config", str(run_cfg), "--out", str(out1)])
        main(["evaluate", "--config", str(run_cfg), "--out", str(out2)])
        assert digest_dir(out1) == digest_dir(out2)

    def test_flag_overrides_narrow_range(self, tmp_path, run_cfg, capsys):
        out = tmp_path / "eval_narrow"
        main(["evaluate", "--config", str(run_cfg), "--t-start", "2012.1", "--t-end", "2012.2", "--approaches", "B1", "--out", str(out)])
        header = (out / "accuracy_B1.csv").read_text().splitlines()[0]
        assert header == "classifier,2012.1,2012.2,mean"
        assert not (out / "accuracy_B2T.csv").exists()
        # final_approach=B2T is not among the evaluated approaches
        assert not (out / "predictions.csv").exists()
        assert "note: final-stage predictions skipped (final_approach B2T is not evaluated)" in capsys.readouterr().err


class TestPredictCommand:
    def test_oracle_refused_outside_test_mode(self, tmp_path, run_cfg, monkeypatch, capsys):
        monkeypatch.delenv("DROPSPLIT_TEST_MODE", raising=False)
        out = tmp_path / "pred_out"
        truth = tmp_path / "truth.csv"
        truth.write_text("student_id,status,exit_term\n")
        code = main(
            [
                "predict", "--config", str(run_cfg), "--approach", "B2T",
                "--classifier", "gaussian_nb", "--oracle", str(truth), "--out", str(out),
            ]
        )
        assert code == 1
        assert "test mode" in capsys.readouterr().err
        assert not out.exists()

    def test_predictions_accounting(self, tmp_path, run_cfg):
        out = tmp_path / "pred_out2"
        code = main(
            ["predict", "--config", str(run_cfg), "--approach", "B4T", "--classifier", "gaussian_nb", "--out", str(out)]
        )
        assert code == 0
        lines = (out / "predictions.csv").read_text().strip().splitlines()[1:]
        cfg = RunConfig.load(run_cfg)
        cohort = generate(cfg.generator).cohort
        enrolled = [s for s in cohort.students if not s.exited and s.entrance <= cohort.range.hi]
        assert len(lines) == len(enrolled)

    def test_oracle_scoring_in_test_mode(self, tmp_path, gen_cfg, run_cfg, monkeypatch):
        monkeypatch.setenv("DROPSPLIT_TEST_MODE", "1")
        gen_out = tmp_path / "gen_for_oracle"
        main(["generate", "--config", str(gen_cfg), "--out", str(gen_out)])
        out = tmp_path / "pred_oracle"
        code = main(
            [
                "predict", "--config", str(run_cfg), "--approach", "B4T",
                "--classifier", "decision_tree", "--oracle", str(gen_out / "truth_sealed.csv"),
                "--out", str(out),
            ]
        )
        assert code == 0
        manifest = read_manifest(out)
        assert "oracle_accuracy" in manifest
        assert 0.0 <= float(manifest["oracle_accuracy"]) <= 1.0


class TestReportCommand:
    def test_recomputes_points_from_accuracy_csv(self, tmp_path, run_cfg):
        eval_out = tmp_path / "eval_for_report"
        main(["evaluate", "--config", str(run_cfg), "--out", str(eval_out)])
        report_out = tmp_path / "report_out"
        code = main(["report", "--grid-dir", str(eval_out), "--out", str(report_out)])
        assert code == 0
        assert (report_out / "points_B1.csv").read_text() == (eval_out / "points_B1.csv").read_text()
        assert (report_out / "chart_B2T.svg").exists()

    def test_bad_points_mode_exits_before_writing(self, tmp_path, capsys):
        (tmp_path / "accuracy_B1.csv").write_text("classifier,2012.1,2012.2,mean\ngaussian_nb,0.5,0.6,0.55\nmean,0.5,0.6,0.55\n")
        out = tmp_path / "r"
        assert main(["report", "--grid-dir", str(tmp_path), "--points-mode", "bogus", "--out", str(out)]) == 1
        assert "error [config]: --points-mode" in capsys.readouterr().err
        assert not out.exists()
        assert main(["report", "--grid-dir", str(tmp_path), "--points-mode", "streaks", "--out", str(out)]) == 0

    def test_bad_terms_per_year_in_the_grid_config_names_the_file(self, tmp_path, capsys):
        (tmp_path / "accuracy_B1.csv").write_text("classifier,2012.1,2012.2,mean\ngaussian_nb,0.5,0.6,0.55\nmean,0.5,0.6,0.55\n")
        (tmp_path / "config.txt").write_text("terms_per_year=0\n")
        out = tmp_path / "r"
        assert main(["report", "--grid-dir", str(tmp_path), "--out", str(out)]) == 1
        config = tmp_path / "config.txt"
        assert f"error [config]: {config}: key 'terms_per_year': expected an integer >= 1, got '0'" in capsys.readouterr().err
        assert not out.exists()

    def test_reads_the_calendar_of_the_grid_config(self, tmp_path):
        # Under 3 terms a year, 2015.2 and 2015.3 are adjacent: a, top at
        # both, holds the pair and wins without a tiebreak.
        (tmp_path / "accuracy_B4T.csv").write_text(
            "classifier,2015.2,2015.3,mean\na,0.75,0.75,0.75\nb,0.5,0.25,0.375\nmean,0.625,0.5,0.5625\n"
        )
        (tmp_path / "config.txt").write_text("terms_per_year=3\n")
        out = tmp_path / "r"
        assert main(["report", "--grid-dir", str(tmp_path), "--out", str(out)]) == 0
        assert (out / "points_B4T.csv").read_text() == (
            "classifier,points,period_mean,selection\na,1,0.75,winner\nb,0,0.375,runner_up\n# tiebreak_used=false\n"
        )

    def test_points_mode_of_the_grid_config_is_the_default(self, tmp_path):
        # a holds both pairs of one run: 2 points as pairs, 1 as a streak.
        (tmp_path / "accuracy_B4T.csv").write_text(
            "classifier,2015.1,2015.2,2016.1,mean\na,0.9,0.9,0.9,0.9\nb,0.5,0.5,0.5,0.5\nmean,0.7,0.7,0.7,0.7\n"
        )
        (tmp_path / "config.txt").write_text("generator_config=gen.cfg\npoints_mode=streaks\n")
        for flags, points in (([], "1"), (["--points-mode", "pairs"], "2")):
            out = tmp_path / f"r{points}"
            assert main(["report", "--grid-dir", str(tmp_path), *flags, "--out", str(out)]) == 0
            assert (out / "points_B4T.csv").read_text().splitlines()[1] == f"a,{points},0.9,winner"

    def test_empty_dir_is_error(self, tmp_path, capsys):
        code = main(["report", "--grid-dir", str(tmp_path), "--out", str(tmp_path / "r")])
        assert code == 1

    ACCURACY_B1 = (
        "classifier,2012.1,2012.2,mean\n"
        "gaussian_nb,0.5,0.6,0.55\n"
        "decision_tree,0.7,0.4,0.55\n"
        "mean,0.6,0.5,0.55\n"
    )

    @pytest.mark.parametrize(
        "name, old, new, message",
        [
            # a row one cell short: decision_tree's mean cell is cut
            ("accuracy_B1.csv", "0.4,0.55\n", "0.4\n", "line 3: 3 cells, the header has 4"),
            ("accuracy_B1.csv", "0.7,", "0.7x,", "line 3: column '2012.1' has non-numeric value '0.7x'"),
            # cells `float` reads that are not accuracies
            ("accuracy_B1.csv", "0.7,", "1_5,", "line 3: column '2012.1' has non-numeric value '1_5'"),
            ("accuracy_B1.csv", "0.7,", "nan,", "line 3: column '2012.1' has 'nan', not an accuracy in [0, 1]"),
            ("accuracy_B1.csv", "0.4,", "inf,", "line 3: column '2012.2' has 'inf', not an accuracy in [0, 1]"),
            ("accuracy_B1.csv", "0.55\nmean", "1.5\nmean", "line 3: column 'mean' has '1.5', not an accuracy in [0, 1]"),
            ("accuracy_B1.csv", "mean,0.6", "mean,-0.0001", "line 4: column '2012.1' has '-0.0001', not an accuracy in [0, 1]"),
            ("accuracy_B1.csv", "2012.1", "2012.x", "line 1: malformed term '2012.x', expected YYYY.K"),
            ("accuracy_B1.csv", "classifier,", "", "line 1: expected the header classifier,<terms>,mean"),
            # a stray file beside a good one, read after it
            ("accuracy_Z9.csv", "", "", "'Z9' is not an approach, expected one of A,B1,B2,B2T,B3T,B4T"),
            # a second row of one classifier, or of the mean
            ("accuracy_B1.csv", "mean,", "decision_tree,0.1,0.1,0.1\nmean,", "line 4: row 'decision_tree' repeats line 3"),
            ("accuracy_B1.csv", "mean,0.6,0.5,0.55\n", "mean,0.6,0.5,0.55\nmean,0.1,0.1,0.1\n", "line 5: row 'mean' repeats line 4"),
        ],
    )
    def test_bad_accuracy_csv_names_the_file_and_exits_before_writing(self, tmp_path, capsys, name, old, new, message):
        grid = tmp_path / "grid"
        grid.mkdir()
        (grid / "accuracy_B1.csv").write_text(self.ACCURACY_B1)
        (grid / name).write_text(self.ACCURACY_B1.replace(old, new, 1) if old else self.ACCURACY_B1)
        out = tmp_path / "r"
        assert main(["report", "--grid-dir", str(grid), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error [evaluation]: {grid / name}: {message}")
        assert not out.exists()


class TestIngestCommand:
    def test_summarizes_generated_data(self, tmp_path, gen_cfg):
        gen_out = tmp_path / "gen_data"
        main(["generate", "--config", str(gen_cfg), "--out", str(gen_out)])
        cfg = tmp_path / "ingest.cfg"
        cfg.write_text(
            f"""\
students={gen_out / 'students.csv'}
courses={gen_out / 'courses.csv'}
range_start=2009.1
range_end=2012.2
""",
            encoding="utf-8",
        )
        out = tmp_path / "ingest_out"
        assert main(["ingest", "--config", str(cfg), "--out", str(out)]) == 0
        manifest = read_manifest(out)
        assert manifest["rejected_courses"] == "0"
        assert (out / "summary.txt").read_text() == (gen_out / "genstats.txt").read_text()

    def test_attr_codes_resolve_against_the_config_directory(self, tmp_path, gen_cfg, monkeypatch):
        gen_out = tmp_path / "gen_data"
        main(["generate", "--config", str(gen_cfg), "--out", str(gen_out)])
        sub = tmp_path / "sub"
        sub.mkdir()
        cfg = sub / "run.cfg"
        inputs = f"students={gen_out / 'students.csv'}\ncourses={gen_out / 'courses.csv'}\nrange_start=2009.1\nrange_end=2012.2\n"
        cfg.write_text(inputs)
        assert main(["ingest", "--config", str(cfg), "--out", str(tmp_path / "plain")]) == 0
        (sub / "codes.csv").write_bytes((tmp_path / "plain" / "attr_codes.csv").read_bytes())
        cfg.write_text(inputs + "attr_codes=codes.csv\n")
        monkeypatch.chdir(tmp_path)
        assert main(["ingest", "--config", "sub/run.cfg", "--out", "coded"]) == 0
        assert (tmp_path / "coded" / "attr_codes.csv").read_text() == (sub / "codes.csv").read_text()


def fail(exc: BaseException):
    """A stand-in for a cli writer that raises exc once called."""

    def raiser(*args, **kwargs):
        raise exc

    return raiser


class TestFailedRuns:
    """A run that fails leaves neither --out nor its staging directory."""

    def test_generate_writer_error(self, tmp_path, gen_cfg, monkeypatch, capsys):
        monkeypatch.setattr("dropsplit.cli.write_truth_csv", fail(ValueError("disk full")))
        out = tmp_path / "gen_out"
        assert main(["generate", "--config", str(gen_cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: disk full\n"
        assert_no_run(out)

    def test_interrupt_removes_the_stage(self, tmp_path, gen_cfg, monkeypatch):
        monkeypatch.setattr("dropsplit.cli.write_courses_csv", fail(KeyboardInterrupt()))
        out = tmp_path / "gen_out"
        with pytest.raises(KeyboardInterrupt):
            main(["generate", "--config", str(gen_cfg), "--out", str(out)])
        assert_no_run(out)

    @pytest.mark.parametrize("command", ["ingest", "evaluate"])
    def test_malformed_course_term(self, tmp_path, gen_cfg, capsys, command):
        gen_out = tmp_path / "gen_data"
        assert main(["generate", "--config", str(gen_cfg), "--out", str(gen_out)]) == 0
        lines = (gen_out / "courses.csv").read_text().splitlines(keepends=True)
        cells = lines[4].split(",")  # row 5; the header is row 1
        lines[4] = ",".join(cells[:2] + ["2010.x"] + cells[3:])
        (tmp_path / "courses.csv").write_text("".join(lines))
        cfg = tmp_path / "ingest.cfg"
        cfg.write_text(
            f"students={gen_out / 'students.csv'}\ncourses={tmp_path / 'courses.csv'}\n"
            "range_start=2009.1\nrange_end=2012.2\nt_start=2011.1\nt_end=2012.2\nclassifiers=gaussian_nb\n"
        )
        out = tmp_path / "o"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        assert "error [records]: row 5: malformed term '2010.x'" in capsys.readouterr().err
        assert_no_run(out)

    def test_split_writer_error_after_the_data_files(self, tmp_path, run_cfg, monkeypatch, capsys):
        monkeypatch.setattr("dropsplit.cli._write_provenance_csv", fail(ValueError("disk full")))
        out = tmp_path / "o"
        assert main(["split", "--config", str(run_cfg), "--approach", "B4T", "--t", "2011.2", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: disk full\n"
        assert_no_run(out)

    def test_predict_bad_oracle_after_the_predictions(self, tmp_path, run_cfg, monkeypatch, capsys):
        monkeypatch.setenv("DROPSPLIT_TEST_MODE", "1")
        truth = tmp_path / "truth.csv"
        truth.write_text("student_id,status,exit_term\nS000000,lost,2010.1\n")
        out = tmp_path / "o"
        argv = ["predict", "--config", str(run_cfg), "--approach", "B4T", "--classifier", "gaussian_nb"]
        assert main([*argv, "--oracle", str(truth), "--out", str(out)]) == 1
        assert "error [records]: truth.csv: row 2: 'lost'" in capsys.readouterr().err
        assert_no_run(out)

    def test_report_manifest_error_after_the_csvs(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "accuracy_B1.csv").write_text("classifier,2012.1,2012.2,mean\ngaussian_nb,0.5,0.6,0.55\nmean,0.5,0.6,0.55\n")
        monkeypatch.setattr("dropsplit.cli._write_manifest", fail(ValueError("disk full")))
        out = tmp_path / "r"
        assert main(["report", "--grid-dir", str(tmp_path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: disk full\n"
        assert_no_run(out)


class TestReruns:
    """--out must be absent or an empty directory; nothing is merged."""

    def test_rerun_is_refused_and_keeps_the_first_run(self, tmp_path, run_cfg, capsys):
        out = tmp_path / "e"
        assert main(["evaluate", "--config", str(run_cfg), "--approaches", "B1,B4T", "--out", str(out)]) == 0
        first = digest_dir(out)
        assert "accuracy_B1.csv" in first
        capsys.readouterr()
        assert main(["evaluate", "--config", str(run_cfg), "--approaches", "B4T", "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error [config]: --out: {out} exists and is not an empty directory\n"
        assert digest_dir(out) == first
        assert [p.name for p in tmp_path.iterdir() if p.name.startswith(".")] == []

    def test_empty_directory_is_accepted(self, tmp_path, gen_cfg):
        out, plain = tmp_path / "empty", tmp_path / "plain"
        out.mkdir()
        plain.mkdir()
        assert main(["generate", "--config", str(gen_cfg), "--out", str(out)]) == 0
        assert read_manifest(out)["command"] == "generate"
        assert out.stat().st_mode == plain.stat().st_mode

    def test_out_filled_during_the_run_is_kept(self, tmp_path, gen_cfg, monkeypatch, capsys):
        out = tmp_path / "o"
        out.mkdir()

        def another_run(*args, **kwargs):
            (out / "keep.txt").write_text("keep\n")

        monkeypatch.setattr("dropsplit.cli.write_truth_csv", another_run)
        assert main(["generate", "--config", str(gen_cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error [config]: --out: ")
        assert [p.name for p in out.iterdir()] == ["keep.txt"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["gen.cfg", "o"]

    @pytest.mark.parametrize("kind", ["file", "directory", "symlink"])
    def test_occupied_out_is_refused(self, tmp_path, gen_cfg, capsys, kind):
        out = tmp_path / "o"
        if kind == "file":
            out.write_text("keep\n")
        elif kind == "directory":
            out.mkdir()
            (out / "keep.txt").write_text("keep\n")
        else:
            (tmp_path / "target").mkdir()
            out.symlink_to(tmp_path / "target")
        before = sorted(p.name for p in tmp_path.iterdir())
        assert main(["generate", "--config", str(gen_cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error [config]: --out: {out} exists and is not an empty directory\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == before
        assert kind != "symlink" or not any((tmp_path / "target").iterdir())
