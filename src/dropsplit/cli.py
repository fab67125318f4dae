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
from .config import (
    ConfigError,
    RunConfig,
    approaches_from,
    classifier_specs_from,
    generator_config_from,
    load_kv,
    split_seed_from,
    write_attr_codes,
)
from .evaluation import (
    EnrolledPredictions,
    EvaluationError,
    EvaluationGrid,
    POINT_MODES,
    chart_svg,
    points_csv,
    predict_enrolled,
    read_accuracy_csv,
    render_report,
    run_grid,
    score_points,
)
from .features import FeatureSetSpec, VectorCache
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
from .terms import Term, TermParseError, format_term, iter_terms, parse_term

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


def _feature_spec(cfg: RunConfig, cohort: Cohort) -> FeatureSetSpec | None:
    """Optional `time_features=` config key overrides the canonical aggregates."""
    text = cfg.raw.get("time_features", "").strip()
    if not text:
        return None
    names = tuple(tok.strip() for tok in text.split(",") if tok.strip())
    try:
        return FeatureSetSpec.for_cohort(cohort, names)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


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
    approach = approaches_from(args.approach)[0]
    seed = args.seed if args.seed is not None else split_seed_from(cfg.raw)
    out_dir, entries = _start_out_dir(args.out, "split", config_path)
    cohort, extras = _load_cohort(cfg)
    t = parse_term(args.t, cfg.terms_per_year)
    train, test = build_split(cohort, SplitRequest(approach, t, seed), spec=_feature_spec(cfg, cohort))
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


def _check_points_mode(mode: str, name: str) -> str:
    if mode not in POINT_MODES:
        raise ConfigError(f"{name}: expected one of {','.join(POINT_MODES)}, got {mode!r}")
    return mode


def _resolve_grid_args(cfg: RunConfig, args):
    """Every setting evaluate reads, checked before its output directory exists."""
    kv = cfg.raw

    def setting(key: str, parse, default: str | None = None):
        """key's value from its flag when given, else from the config, parsed;
        a bad value's error names the flag or the key."""
        flag = getattr(args, key, None)
        name, text = (f"--{key.replace('_', '-')}", flag) if flag else (f"key {key!r}", kv.get(key, default))
        try:
            return parse(text)
        except (ConfigError, TermParseError) as exc:
            raise ConfigError(f"{name}: {exc}") from None

    def term(text: str) -> Term:
        return parse_term(text, cfg.terms_per_year)

    approaches = setting("approaches", approaches_from, "A,B1,B2,B2T,B3T,B4T")
    for key, flag in (("t_start", args.t_start), ("t_end", args.t_end)):
        if not flag and key not in kv:
            raise ConfigError(f"{key} must come from the config or the matching flag")
    t_start = setting("t_start", term)
    t_end = setting("t_end", term)
    specs = classifier_specs_from(kv)
    seed = split_seed_from(kv)
    mode = _check_points_mode(kv.get("points_mode", "pairs"), "key 'points_mode'")
    final = setting("final_approach", approaches_from, "B4T")
    if len(final) != 1:
        raise ConfigError(f"key 'final_approach': expected one approach, got {kv['final_approach']!r}")
    confusion_terms = setting("confusion_terms", lambda text: [term(tok) for tok in text.split(",") if tok.strip()], "")
    return approaches, t_start, t_end, specs, seed, mode, final[0], confusion_terms


def _cmd_evaluate(args) -> int:
    config_path = Path(args.config)
    cfg = RunConfig.load(config_path)
    approaches, t_start, t_end, specs, seed, mode, final_approach, confusion_terms = _resolve_grid_args(cfg, args)
    out_dir, entries = _start_out_dir(args.out, "evaluate", config_path)
    cohort, extras = _load_cohort(cfg)
    feature_spec = _feature_spec(cfg, cohort)
    t_values = list(iter_terms(t_start, t_end, cfg.terms_per_year))
    cache = VectorCache(cohort, feature_spec)
    grid = run_grid(cohort, approaches, specs, t_values, split_seed=seed, cache=cache)
    tables = {}
    for approach in approaches:
        try:
            tables[approach.value] = score_points(grid, approach, mode=mode)
        except EvaluationError:
            continue
    render_report(grid, tables, out_dir, confusion_terms=confusion_terms)
    predictions_written = False
    table = tables.get(final_approach.value)
    if table is not None and final_approach in approaches:
        winning = next(s for s in specs if s.label == table.winner)
        result = predict_enrolled(cohort, winning, final_approach, cache=cache)
        _write_predictions_csv(result, out_dir / "predictions.csv")
        entries_extra = [
            ("final_approach", final_approach.value),
            ("final_classifier", table.winner),
            ("predictions", str(len(result.predictions))),
            ("prediction_exclusions", str(len(result.exclusions))),
        ]
        predictions_written = True
    else:
        entries_extra = []
    entries += extras + [
        ("approaches", ",".join(a.value for a in approaches)),
        ("t_start", format_term(t_start)),
        ("t_end", format_term(t_end)),
        ("split_seed", str(seed)),
        ("classifiers", ",".join(s.label for s in specs)),
        ("points_mode", mode),
    ]
    entries += entries_extra
    for (a, t), count in sorted(grid.exclusion_counts.items(), key=lambda kv: (kv[0][0], kv[0][1])):
        if count:
            entries.append((f"exclusions.{a}.{format_term(t)}", str(count)))
    _write_manifest(out_dir, entries)
    if not predictions_written and final_approach in approaches:
        print("note: final-stage predictions skipped (no point table for approach)", file=sys.stderr)
    return 0


def _cmd_predict(args) -> int:
    config_path = Path(args.config)
    cfg = RunConfig.load(config_path)
    approach = approaches_from(args.approach)[0]
    specs = classifier_specs_from(cfg.raw)
    by_label = {s.label: s for s in specs}
    if args.classifier not in by_label:
        raise ConfigError(f"classifier {args.classifier!r} not configured; have {sorted(by_label)}")
    if args.oracle and os.environ.get(_ORACLE_ENV) != "1":
        raise ConfigError(
            f"--oracle reads sealed ground truth and is refused outside test mode (set {_ORACLE_ENV}=1)"
        )
    out_dir, entries = _start_out_dir(args.out, "predict", config_path)
    cohort, extras = _load_cohort(cfg)
    result = predict_enrolled(cohort, by_label[args.classifier], approach, feature_spec=_feature_spec(cfg, cohort))
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
    _check_points_mode(args.points_mode, "--points-mode")
    grid_dir = Path(args.grid_dir)
    accuracy_files = sorted(grid_dir.glob("accuracy_*.csv"))
    if not accuracy_files:
        raise ConfigError(f"no accuracy_*.csv files under {grid_dir}")
    tpy = args.terms_per_year
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    entries = [("command", "report"), ("package_version", __version__), ("source", str(grid_dir))]
    _write_manifest(out_dir, entries)
    for path in accuracy_files:
        name = path.stem.split("_", 1)[1]
        approach = SplitApproach(name)
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
        table = score_points(grid, approach, mode=args.points_mode)
        (out_dir / f"points_{name}.csv").write_text(points_csv(table), encoding="utf-8")
        (out_dir / f"chart_{name}.svg").write_text(chart_svg(grid, name), encoding="utf-8")
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
    p.add_argument("--terms-per-year", dest="terms_per_year", type=int, default=2)
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
