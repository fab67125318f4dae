"""Command-line front end.

Subcommands: generate, ingest, split, evaluate, predict, report. Every run
writes its manifest and config snapshot into the output directory before any
data file, carries no timestamps, and takes all randomness from explicit
seeds, so rerunning a manifest reproduces the directory byte for byte.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from collections import Counter
from pathlib import Path

from . import __version__
from .config import ConfigError, RunConfig, generator_config_from, load_kv, parse_flag, write_attr_codes
from .evaluation import (
    AccuracyCsvError,
    EnrolledPredictions,
    EvaluationError,
    EvaluationGrid,
    chart_svg,
    points_csv,
    predict_enrolled,
    read_accuracy_csv,
    render_report,
    run_grid,
    score_points,
)
from .features import FeatureSetSpec
from .records import Cohort, IngestError, ingest
from .rng import check_seed
from .splits import LabeledDataset, SplitApproach, SplitError, SplitRequest, build_split
from .synthgen import (
    format_stats,
    generate,
    read_truth_csv,
    validate,
    write_courses_csv,
    write_students_csv,
    write_truth_csv,
)
from .terms import TermParseError, format_term, iter_terms

_ORACLE_ENV = "DROPSPLIT_TEST_MODE"


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_manifest(out_dir: Path, entries: list[tuple[str, str]]) -> None:
    text = "".join(f"{key}={value}\n" for key, value in entries)
    (out_dir / "manifest.txt").write_text(text, encoding="utf-8")


def _start_out_dir(out: str, command: str, config_path: Path) -> tuple[Path, list[tuple[str, str]]]:
    """Create the output directory and write manifest + config snapshot first."""
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    snapshot = out_dir / "config.txt"
    snapshot.write_text(config_path.read_text(encoding="utf-8"), encoding="utf-8")
    entries = [
        ("command", command),
        ("package_version", __version__),
        ("config_sha256", _sha256(config_path)),
    ]
    _write_manifest(out_dir, entries)
    return out_dir, entries


def _load_cohort(cfg: RunConfig) -> tuple[Cohort, list[tuple[str, str]]]:
    """Materialize the cohort; sealed generator truth is never returned here."""
    if cfg.generator is not None:
        synth = generate(cfg.generator)
        return synth.cohort, [("generator_seed", str(cfg.generator.seed))]
    result = ingest(cfg.students_path, cfg.courses_path, cfg.ingest)
    extras = [
        ("ingest_rejected_courses", str(len(result.rejected_courses))),
        ("ingest_dropped_students", str(result.dropped_students)),
        ("ingest_duplicate_rows", str(result.duplicate_rows)),
    ]
    return result.cohort, extras


def _write_dataset_csv(ds: LabeledDataset, path: Path) -> None:
    with path.open("w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(ds.meta.feature_names + ("label",)) + "\n")
        for i in range(ds.n):
            cells = [repr(float(v)) for v in ds.X[i]]
            fh.write(",".join(cells + [str(int(ds.y[i]))]) + "\n")


def _write_provenance_csv(train: LabeledDataset, test: LabeledDataset, path: Path) -> None:
    with path.open("w", encoding="utf-8", newline="") as fh:
        fh.write("student_id,as_of,role\n")
        for ds in (train, test):
            for sid, as_of in ds.rows:
                fh.write(f"{sid},{format_term(as_of)},{ds.meta.role}\n")


def _write_predictions_csv(result: EnrolledPredictions, path: Path) -> None:
    with path.open("w", encoding="utf-8", newline="") as fh:
        fh.write("student_id,predicted_label,exclusion_reason\n")
        for sid, label in result.predictions:
            fh.write(f"{sid},{label},\n")
        for sid, reason in result.exclusions:
            fh.write(f"{sid},,{reason}\n")


def _cmd_generate(args) -> int:
    config_path = Path(args.config)
    gcfg = generator_config_from(load_kv(config_path))
    out_dir, entries = _start_out_dir(args.out, "generate", config_path)
    synth = generate(gcfg)
    write_students_csv(synth.cohort, out_dir / "students.csv")
    write_courses_csv(synth.cohort, out_dir / "courses.csv")
    write_truth_csv(synth, out_dir / "truth_sealed.csv")
    (out_dir / "genstats.txt").write_text(format_stats(validate(synth.cohort)), encoding="utf-8")
    entries += [
        ("seed", str(gcfg.seed)),
        ("students", str(len(synth.cohort.students))),
        ("enrolled_with_sealed_truth", str(len(synth.truth))),
    ]
    _write_manifest(out_dir, entries)
    return 0


def _cmd_ingest(args) -> int:
    config_path = Path(args.config)
    cfg = RunConfig.load(config_path)
    if cfg.ingest is None:
        raise ConfigError("ingest needs students/courses paths in the config")
    out_dir, entries = _start_out_dir(args.out, "ingest", config_path)
    result = ingest(cfg.students_path, cfg.courses_path, cfg.ingest)
    write_attr_codes(result.attr_codes, out_dir / "attr_codes.csv")
    with (out_dir / "rejects.csv").open("w", encoding="utf-8", newline="") as fh:
        fh.write("row,student_id,reason\n")
        for row, sid, reason in result.rejected_courses:
            fh.write(f"{row},{sid},{reason}\n")
    (out_dir / "summary.txt").write_text(format_stats(validate(result.cohort)), encoding="utf-8")
    entries += [
        ("students", str(len(result.cohort.students))),
        ("rejected_courses", str(len(result.rejected_courses))),
        ("dropped_students", str(result.dropped_students)),
        ("duplicate_rows", str(result.duplicate_rows)),
    ]
    _write_manifest(out_dir, entries)
    return 0


def _cmd_split(args) -> int:
    config_path = Path(args.config)
    cfg = RunConfig.load(config_path)
    approach = parse_flag("--approach", "final_approach", args.approach)
    t = parse_flag("--t", "t_start", args.t, cfg.terms_per_year)
    cfg.check_in_range("--t", t)
    seed = args.seed if args.seed is not None else cfg.split_seed
    out_dir, entries = _start_out_dir(args.out, "split", config_path)
    cohort, extras = _load_cohort(cfg)
    spec = FeatureSetSpec.for_cohort(cohort, cfg.time_features)
    train, test = build_split(cohort, SplitRequest(approach, t, seed), spec=spec)
    _write_dataset_csv(train, out_dir / "train.csv")
    _write_dataset_csv(test, out_dir / "test.csv")
    _write_provenance_csv(train, test, out_dir / "provenance.csv")
    reasons = Counter(e.reason for ds in (train, test) for e in ds.meta.exclusions)
    entries += extras + [
        ("approach", approach.value),
        ("reference_term", format_term(t)),
        ("seed", str(seed)),
        ("train_rows", str(train.n)),
        ("test_rows", str(test.n)),
    ]
    entries += [(f"exclusions.{reason}", str(count)) for reason, count in sorted(reasons.items())]
    _write_manifest(out_dir, entries)
    return 0


def _cmd_evaluate(args) -> int:
    config_path = Path(args.config)
    cfg = RunConfig.load(config_path, {key: getattr(args, key) for key in ("approaches", "t_start", "t_end")})
    for key in ("t_start", "t_end"):
        if getattr(cfg, key) is None:
            raise ConfigError(f"{key} must come from the config or the matching flag")
    out_dir, entries = _start_out_dir(args.out, "evaluate", config_path)
    cohort, extras = _load_cohort(cfg)
    t_values = list(iter_terms(cfg.t_start, cfg.t_end, cfg.terms_per_year))
    spec = FeatureSetSpec.for_cohort(cohort, cfg.time_features)
    grid = run_grid(cohort, cfg.approaches, cfg.specs, t_values, split_seed=cfg.split_seed, feature_spec=spec)
    tables = {}
    for approach in cfg.approaches:
        try:
            tables[approach.value] = score_points(grid, approach, mode=cfg.points_mode)
        except EvaluationError:
            continue
    render_report(grid, tables, out_dir, confusion_terms=cfg.confusion_terms)
    entries += extras + [
        ("approaches", ",".join(a.value for a in cfg.approaches)),
        ("t_start", format_term(cfg.t_start)),
        ("t_end", format_term(cfg.t_end)),
        ("split_seed", str(cfg.split_seed)),
        ("classifiers", ",".join(s.label for s in cfg.specs)),
        ("points_mode", cfg.points_mode),
    ]
    final = cfg.final_approach
    table = tables.get(final.value)  # None when final is not evaluated or has no point table
    if table is not None:
        winning = next(s for s in cfg.specs if s.label == table.winner)
        result = predict_enrolled(cohort, winning, final, feature_spec=spec)
        _write_predictions_csv(result, out_dir / "predictions.csv")
        entries += [
            ("final_approach", final.value),
            ("final_classifier", table.winner),
            ("predictions", str(len(result.predictions))),
            ("prediction_exclusions", str(len(result.exclusions))),
        ]
    for (a, t), count in sorted(grid.exclusion_counts.items(), key=lambda kv: (kv[0][0], kv[0][1])):
        if count:
            entries.append((f"exclusions.{a}.{format_term(t)}", str(count)))
    _write_manifest(out_dir, entries)
    if table is None:
        reason = "no point table for approach" if final in cfg.approaches else f"final_approach {final.value} is not evaluated"
        print(f"note: final-stage predictions skipped ({reason})", file=sys.stderr)
    return 0


def _cmd_predict(args) -> int:
    config_path = Path(args.config)
    cfg = RunConfig.load(config_path)
    approach = parse_flag("--approach", "final_approach", args.approach)
    by_label = {s.label: s for s in cfg.specs}
    if args.classifier not in by_label:
        raise ConfigError(f"classifier {args.classifier!r} not configured; have {sorted(by_label)}")
    if args.oracle and os.environ.get(_ORACLE_ENV) != "1":
        raise ConfigError(
            f"--oracle reads sealed ground truth and is refused outside test mode (set {_ORACLE_ENV}=1)"
        )
    out_dir, entries = _start_out_dir(args.out, "predict", config_path)
    cohort, extras = _load_cohort(cfg)
    spec = FeatureSetSpec.for_cohort(cohort, cfg.time_features)
    result = predict_enrolled(cohort, by_label[args.classifier], approach, feature_spec=spec)
    _write_predictions_csv(result, out_dir / "predictions.csv")
    entries += extras + [
        ("approach", approach.value),
        ("classifier", args.classifier),
        ("predictions", str(len(result.predictions))),
        ("prediction_exclusions", str(len(result.exclusions))),
    ]
    if args.oracle:
        truth = read_truth_csv(args.oracle, cfg.terms_per_year)
        pairs = [
            (label, 0 if truth[sid].status.value == "dropout" else 1)
            for sid, label in result.predictions
            if sid in truth
        ]
        if pairs:
            hits = sum(1 for pred, true in pairs if pred == true)
            entries.append(("oracle_matched", str(len(pairs))))
            entries.append(("oracle_accuracy", repr(hits / len(pairs))))
    _write_manifest(out_dir, entries)
    return 0


def _cmd_report(args) -> int:
    mode = parse_flag("--points-mode", "points_mode", args.points_mode)
    tpy = parse_flag("--terms-per-year", "terms_per_year", args.terms_per_year)
    grid_dir = Path(args.grid_dir)
    accuracy_files = sorted(grid_dir.glob("accuracy_*.csv"))
    if not accuracy_files:
        raise ConfigError(f"no accuracy_*.csv files under {grid_dir}")
    outputs = {}  # file name -> text, all made before --out is created
    for path in accuracy_files:
        name = path.stem.split("_", 1)[1]
        try:
            approach = SplitApproach(name)
        except ValueError:
            valid = ",".join(a.value for a in SplitApproach)
            raise AccuracyCsvError(f"{path}: {name!r} is not an approach, expected one of {valid}") from None
        t_values, rows, _ = read_accuracy_csv(path, tpy)
        grid = EvaluationGrid(
            approaches=(approach,),
            classifiers=tuple(rows),
            t_values=tuple(t_values),
            terms_per_year=tpy,
        )
        for classifier, cells in rows.items():
            for t, value in zip(t_values, cells[:-1]):
                if value is not None:
                    grid.accuracy[(name, classifier, t)] = value
        outputs[f"points_{name}.csv"] = points_csv(score_points(grid, approach, mode=mode))
        outputs[f"chart_{name}.svg"] = chart_svg(grid, name)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_manifest(out_dir, [("command", "report"), ("package_version", __version__), ("source", str(grid_dir))])
    for file_name, text in outputs.items():
        (out_dir / file_name).write_text(text, encoding="utf-8")
    return 0


def _seed(text: str) -> int:
    try:
        return check_seed(int(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dropsplit",
        description="Temporal splitting and walk-forward evaluation for academic records",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a synthetic cohort")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("ingest", help="validate and summarize input CSVs")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("split", help="materialize one train/test split")
    p.add_argument("--config", required=True)
    p.add_argument("--approach", required=True)
    p.add_argument("--t", required=True, help="reference term, YYYY.K")
    p.add_argument("--seed", type=_seed, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_split)

    p = sub.add_parser("evaluate", help="run the full evaluation grid")
    p.add_argument("--config", required=True)
    p.add_argument("--approaches", default=None)
    p.add_argument("--t-start", dest="t_start", default=None)
    p.add_argument("--t-end", dest="t_end", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("predict", help="predict outcomes for enrolled students")
    p.add_argument("--config", required=True)
    p.add_argument("--approach", default="B4T")
    p.add_argument("--classifier", required=True)
    p.add_argument("--oracle", default=None, help="sealed truth CSV (test mode only)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("report", help="recompute points and charts from accuracy CSVs")
    p.add_argument("--grid-dir", dest="grid_dir", required=True)
    p.add_argument("--terms-per-year", dest="terms_per_year", default="2")
    p.add_argument("--points-mode", dest="points_mode", default="pairs")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, IngestError, SplitError, EvaluationError, TermParseError) as exc:
        module = type(exc).__module__.rsplit(".", 1)[-1]
        print(f"error [{module}]: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
