"""Command-line front end.

Subcommands: generate, ingest, split, evaluate, predict, report. Each run
writes into a fresh hidden sibling of --out and renames it into place only
when the command succeeds, so an output directory holds one whole run or does
not exist. --out must be absent or an empty directory: a rerun never merges
into an earlier run's files. Manifests carry no timestamps and all randomness
comes from explicit seeds, so rerunning a manifest reproduces the directory
byte for byte. `report` re-scores an evaluate directory in the calendar and
point mode of the config.txt snapshot there; --points-mode overrides the mode.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import shutil
import sys
import tempfile
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

from . import __version__
from .config import RUN_KEYS, ConfigError, RunConfig, generator_config_from, load_kv, parse_flag, write_attr_codes
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


@contextmanager
def _staged(out: Path):
    """Yield a fresh directory beside out, then rename it onto out; on any
    exception remove it instead. out must be absent or an empty directory."""
    if out.is_symlink() or out.exists() and (not out.is_dir() or any(out.iterdir())):
        raise ConfigError(f"--out: {out} exists and is not an empty directory")
    out.parent.mkdir(parents=True, exist_ok=True)
    stage = Path(tempfile.mkdtemp(prefix=f".{out.name}.", dir=out.parent))
    try:
        yield stage
        umask = os.umask(0)
        os.umask(umask)
        stage.chmod(0o777 & ~umask)  # mkdtemp's 0o700 becomes the mode mkdir would give
        try:
            os.rename(stage, out)
        except OSError as exc:  # another run filled out meanwhile
            raise ConfigError(f"--out: {exc}") from None
    except BaseException:
        shutil.rmtree(stage, ignore_errors=True)
        raise


def _write_manifest(out_dir: Path, args, entries: list[tuple[str, str]]) -> None:
    """Write the config snapshot and manifest.txt: command, package_version
    and config_sha256 (report has no config), then the command's entries."""
    head = [("command", args.command), ("package_version", __version__)]
    if args.command != "report":
        config = Path(args.config)
        (out_dir / "config.txt").write_text(config.read_text(encoding="utf-8"), encoding="utf-8")
        head.append(("config_sha256", hashlib.sha256(config.read_bytes()).hexdigest()))
    text = "".join(f"{key}={value}\n" for key, value in head + entries)
    (out_dir / "manifest.txt").write_text(text, encoding="utf-8")


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


def _cmd_generate(args, out_dir: Path) -> list[tuple[str, str]]:
    gcfg = generator_config_from(load_kv(args.config))
    synth = generate(gcfg)
    write_students_csv(synth.cohort, out_dir / "students.csv")
    write_courses_csv(synth.cohort, out_dir / "courses.csv")
    write_truth_csv(synth, out_dir / "truth_sealed.csv")
    (out_dir / "genstats.txt").write_text(format_stats(validate(synth.cohort)), encoding="utf-8")
    return [
        ("seed", str(gcfg.seed)),
        ("students", str(len(synth.cohort.students))),
        ("enrolled_with_sealed_truth", str(len(synth.truth))),
    ]


def _cmd_ingest(args, out_dir: Path) -> list[tuple[str, str]]:
    cfg = RunConfig.load(args.config)
    if cfg.ingest is None:
        raise ConfigError("ingest needs students/courses paths in the config")
    result = ingest(cfg.students_path, cfg.courses_path, cfg.ingest)
    write_attr_codes(result.attr_codes, out_dir / "attr_codes.csv")
    with (out_dir / "rejects.csv").open("w", encoding="utf-8", newline="") as fh:
        fh.write("row,student_id,reason\n")
        for row, sid, reason in result.rejected_courses:
            fh.write(f"{row},{sid},{reason}\n")
    (out_dir / "summary.txt").write_text(format_stats(validate(result.cohort)), encoding="utf-8")
    return [
        ("students", str(len(result.cohort.students))),
        ("rejected_courses", str(len(result.rejected_courses))),
        ("dropped_students", str(result.dropped_students)),
        ("duplicate_rows", str(result.duplicate_rows)),
    ]


def _cmd_split(args, out_dir: Path) -> list[tuple[str, str]]:
    cfg = RunConfig.load(args.config)
    approach = parse_flag("--approach", "final_approach", args.approach)
    t = parse_flag("--t", "t_start", args.t, cfg.terms_per_year)
    cfg.check_in_range("--t", t)
    seed = cfg.split_seed if args.seed is None else parse_flag("--seed", "split_seed", args.seed)
    cohort, extras = _load_cohort(cfg)
    spec = FeatureSetSpec.for_cohort(cohort, cfg.time_features)
    train, test = build_split(cohort, SplitRequest(approach, t, seed), spec=spec)
    _write_dataset_csv(train, out_dir / "train.csv")
    _write_dataset_csv(test, out_dir / "test.csv")
    _write_provenance_csv(train, test, out_dir / "provenance.csv")
    reasons = Counter(e.reason for ds in (train, test) for e in ds.meta.exclusions)
    entries = extras + [
        ("approach", approach.value),
        ("reference_term", format_term(t)),
        ("seed", str(seed)),
        ("train_rows", str(train.n)),
        ("test_rows", str(test.n)),
    ]
    return entries + [(f"exclusions.{reason}", str(count)) for reason, count in sorted(reasons.items())]


def _cmd_evaluate(args, out_dir: Path) -> list[tuple[str, str]]:
    cfg = RunConfig.load(args.config, {key: getattr(args, key) for key in ("approaches", "t_start", "t_end")})
    for key in ("t_start", "t_end"):
        if getattr(cfg, key) is None:
            raise ConfigError(f"{key} must come from the config or the matching flag")
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
    entries = extras + [
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
    if table is None:
        reason = "no point table for approach" if final in cfg.approaches else f"final_approach {final.value} is not evaluated"
        print(f"note: final-stage predictions skipped ({reason})", file=sys.stderr)
    return entries


def _cmd_predict(args, out_dir: Path) -> list[tuple[str, str]]:
    cfg = RunConfig.load(args.config)
    approach = parse_flag("--approach", "final_approach", args.approach)
    by_label = {s.label: s for s in cfg.specs}
    if args.classifier not in by_label:
        raise ConfigError(f"classifier {args.classifier!r} not configured; have {sorted(by_label)}")
    if args.oracle and os.environ.get(_ORACLE_ENV) != "1":
        raise ConfigError(
            f"--oracle reads sealed ground truth and is refused outside test mode (set {_ORACLE_ENV}=1)"
        )
    cohort, extras = _load_cohort(cfg)
    spec = FeatureSetSpec.for_cohort(cohort, cfg.time_features)
    result = predict_enrolled(cohort, by_label[args.classifier], approach, feature_spec=spec)
    _write_predictions_csv(result, out_dir / "predictions.csv")
    entries = extras + [
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
    return entries


def _cmd_report(args, out_dir: Path) -> list[tuple[str, str]]:
    grid_dir = Path(args.grid_dir)
    config = grid_dir / "config.txt"  # the run config evaluate ran
    kv = load_kv(config) if config.is_file() else {}
    tpy, mode = (
        parse_flag(f"{config}: key {key!r}", key, kv.get(key, RUN_KEYS[key].default))
        for key in ("terms_per_year", "points_mode")
    )
    if args.points_mode is not None:
        mode = parse_flag("--points-mode", "points_mode", args.points_mode)
    accuracy_files = sorted(grid_dir.glob("accuracy_*.csv"))
    if not accuracy_files:
        raise ConfigError(f"no accuracy_*.csv files under {grid_dir}")
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
        (out_dir / f"points_{name}.csv").write_text(points_csv(score_points(grid, approach, mode=mode)), encoding="utf-8")
        (out_dir / f"chart_{name}.svg").write_text(chart_svg(grid, name), encoding="utf-8")
    return [("source", str(grid_dir))]


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
    p.add_argument("--seed", default=None)
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
    p.add_argument("--points-mode", dest="points_mode", default=None, help="default: the grid's points_mode")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with _staged(Path(args.out)) as out_dir:
            _write_manifest(out_dir, args, args.func(args, out_dir))
        return 0
    except (ConfigError, IngestError, SplitError, EvaluationError, TermParseError) as exc:
        module = type(exc).__module__.rsplit(".", 1)[-1]
        print(f"error [{module}]: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
