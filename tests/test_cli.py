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
    def test_seed_outside_64_bits_exits_2(self, run_cfg, tmp_path, capsys, seed):
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main(["split", "--config", str(run_cfg), "--approach", "A", "--t", "2011.2", "--seed", seed, "--out", str(out)])
        assert exc.value.code == 2
        assert f"argument --seed: seed must lie in [0, 2**64), got {seed}" in capsys.readouterr().err
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
        assert "bogus_feature" in capsys.readouterr().err


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
        ],
    )
    def test_bad_value_names_the_key(self, tmp_path, run_cfg, capsys, old, new, message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(run_cfg.read_text().replace(old, new))
        assert main(["evaluate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert f"error [config]: {message}" in capsys.readouterr().err

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

    def test_flag_overrides_narrow_range(self, tmp_path, run_cfg):
        out = tmp_path / "eval_narrow"
        main(["evaluate", "--config", str(run_cfg), "--t-start", "2012.1", "--t-end", "2012.2", "--approaches", "B1", "--out", str(out)])
        header = (out / "accuracy_B1.csv").read_text().splitlines()[0]
        assert header == "classifier,2012.1,2012.2,mean"
        assert not (out / "accuracy_B2T.csv").exists()


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
        assert not (out / "predictions.csv").exists()

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

    def test_empty_dir_is_error(self, tmp_path, capsys):
        code = main(["report", "--grid-dir", str(tmp_path), "--out", str(tmp_path / "r")])
        assert code == 1


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
