#!/usr/bin/env python3
"""Benchmark of the dropsplit command line: three closed-loop workloads.

    python3 perfbench/run.py --workload grid-walk --seed 42 --seconds 45 --trace 0

Run it from anywhere; it works on the checkout it sits in. Each run generates
the workload's input CSVs from --seed, SETUPS times to time set-up, and runs
the workload's dropsplit commands as child processes, one at a time, until
about --seconds of operations have passed and at least MIN_OPS operations have run.
It checks every output, prints one line per metric and, as its last line, one
JSON object with the end-to-end metrics (--trace 0) or the per-layer metrics of
a traced run (--trace 1). An untraced run scales its times to a reference host
speed measured by meter.py beside them. perfbench/README.md says why each
workload exists and what each metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import meter
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
DIGESTS = HERE / "digests.json"

DEFAULT_SEED = 42  # generator seed of the README cohort
SETUPS = 3  # set-ups per run, one after each operation until there are three; setup_s is their median
MIN_OPS = 2  # operations per untraced run, at least
TRACED_OPS = 2  # traced operations per traced run; their counts must agree exactly
DEADLINE_S = 150.0  # no operation starts that could end past this, so a run ends within 180 s
REF_S = 0.12  # time of one meter.reference_work piece on the host the end-to-end times are scaled to
APPROACHES = ("A", "B1", "B2", "B2T", "B3T", "B4T")
KINDS = ("decision_tree", "extra_trees", "knn", "gaussian_nb")

_INPUTS = """\
students=inputs/students.csv
courses=inputs/courses.csv
range_start=2009.1
range_end=2019.1
approaches=A,B1,B2,B2T,B3T,B4T
split_seed=42
final_approach=B4T
"""

# The acceptance suite's GRID_SPECS, on two reference terms.
GRID_CONFIG = _INPUTS + """\
t_start=2015.1
t_end=2015.2
classifiers=decision_tree,extra_trees,knn,gaussian_nb
decision_tree.max_depth=12
extra_trees.n_trees=30
extra_trees.max_depth=12
extra_trees.seed=7
knn.k=5
confusion_terms=2015.1,2015.2
"""

# The full README walk with the cheapest classifier.
VECTORS_CONFIG = _INPUTS + """\
t_start=2012.2
t_end=2019.1
classifiers=gaussian_nb
confusion_terms=2015.1,2019.1
"""


@dataclass(frozen=True)
class Workload:
    intake: int  # students generated per entrance term, 2009.1 to 2019.1
    config: str  # run config; paths are relative to the run directory
    commands: tuple[tuple[str, ...], ...]  # one operation; each writes --out out/<command>


WORKLOADS = {
    "grid-walk": Workload(150, GRID_CONFIG, (("evaluate",),)),
    "vectors-wide": Workload(225, VECTORS_CONFIG, (("evaluate",),)),
    "deploy": Workload(
        150,
        GRID_CONFIG,
        (
            ("split", "--approach", "B4T", "--t", "2019.1"),
            ("predict", "--approach", "B4T", "--classifier", "extra_trees"),
        ),
    ),
}


@dataclass
class Command:
    name: str
    started: float  # perf_counter at spawn and after the child was reaped
    ended: float
    rss_mb: float
    ok: bool
    bytes_written: int
    spans_file: Path | None

    @property
    def wall_s(self) -> float:
        return self.ended - self.started


@dataclass
class Run:
    """Everything one benchmark run measured and checked."""

    workload: Workload
    seed: int
    dir: Path
    started: float
    traced: bool
    setup_s: list[float] = field(default_factory=list)
    setup_spans: list[tuple[float, float]] = field(default_factory=list)
    ops: list[list[Command]] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    digests: dict[str, dict[str, str]] = field(default_factory=dict)
    enrolled: set[str] = field(default_factory=set)
    spans: tracer.Spans = field(default_factory=tracer.Spans)

    @property
    def attempted(self) -> int:
        return sum(len(op) for op in self.ops)

    @property
    def failed(self) -> int:
        return sum(1 for op in self.ops for cmd in op if not cmd.ok)


def file_digests(directory: Path) -> dict[str, str]:
    return {
        str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.rglob("*"))
        if p.is_file()
    }


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = "1"
    return env


# --- set-up -----------------------------------------------------------------


def set_up(run: Run) -> None:
    """One set-up: generate the cohort, write its CSVs and the run config.

    Every set-up of a run must write the same bytes as the first.
    """
    from dropsplit.records import EnrollmentStatus
    from dropsplit.synthgen import GeneratorConfig, generate, write_courses_csv, write_students_csv

    inputs = run.dir / "inputs"
    shutil.rmtree(inputs, ignore_errors=True)
    inputs.mkdir(parents=True)
    run.spans.op_id = -1 - len(run.setup_s)
    started = time.perf_counter()
    with run.spans.span("synthgen.generate") if run.traced else nullcontext():
        synth = generate(GeneratorConfig(seed=run.seed, intake_per_term=run.workload.intake))
    with run.spans.span("synthgen.write") if run.traced else nullcontext():
        write_students_csv(synth.cohort, inputs / "students.csv")
        write_courses_csv(synth.cohort, inputs / "courses.csv")
        (run.dir / "run.cfg").write_text(run.workload.config, encoding="utf-8")
    ended = time.perf_counter()
    run.setup_s.append(ended - started)
    run.setup_spans.append((started, ended))
    digests = file_digests(inputs)
    if "inputs" not in run.digests:
        run.digests["inputs"] = digests
        run.spans.counts["synthgen.students"] = len(synth.cohort.students)
        run.spans.counts["synthgen.course_records"] = sum(len(s.courses) for s in synth.cohort.students)
        run.enrolled = {s.student_id for s in synth.cohort.students if s.status is EnrollmentStatus.ENROLLED}
    elif digests != run.digests["inputs"]:
        run.failures.append(f"set-up {len(run.setup_s)}: input CSVs differ from set-up 1")


# --- operations ---------------------------------------------------------------


def run_command(run: Run, argv: tuple[str, ...], spans_file: Path | None, op_id: int) -> Command:
    name = argv[0]
    out = run.dir / "out" / name
    shutil.rmtree(out, ignore_errors=True)
    full = [*argv, "--config", "run.cfg", "--out", str(out.relative_to(run.dir))]
    if spans_file is None:
        cmd = [sys.executable, "-m", "dropsplit.cli", *full]
    else:
        cmd = [sys.executable, str(HERE / "tracer.py"), str(spans_file), str(op_id), *full]
    limit = max(1.0, DEADLINE_S + 25.0 - (time.perf_counter() - run.started))
    with open(run.dir / "stderr.txt", "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=run.dir, env=child_env(), stdout=subprocess.DEVNULL, stderr=err)
        watchdog = threading.Timer(limit, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        ended = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    ok = proc.returncode == 0
    label = f"op {len(run.ops) + 1} {name}"
    if not ok:
        tail = (run.dir / "stderr.txt").read_text(encoding="utf-8", errors="replace")[-2000:]
        run.failures.append(f"{label}: exit code {proc.returncode}: {tail.strip()}")
    digests = file_digests(out) if out.is_dir() else {}
    if ok:
        ok = check_output(run, argv, out, digests, label)
    return Command(
        name=name,
        started=started,
        ended=ended,
        rss_mb=usage.ru_maxrss / 1024.0,
        ok=ok,
        bytes_written=sum((out / rel).stat().st_size for rel in digests),
        spans_file=spans_file,
    )


def check_output(run: Run, argv: tuple[str, ...], out: Path, digests: dict[str, str], label: str) -> bool:
    """Byte-identical to the first repetition, and correct by the command's own check."""
    name = argv[0]
    if name in run.digests:
        if digests != run.digests[name]:
            changed = sorted(k for k in set(digests) | set(run.digests[name]) if digests.get(k) != run.digests[name].get(k))
            run.failures.append(f"{label}: output differs from the first repetition in {changed}")
            return False
        return True
    run.digests[name] = digests
    try:
        if name in ("evaluate", "predict"):
            problem = check_predictions(out / "predictions.csv", run.enrolled)
        elif name == "split":
            opts = dict(zip(argv[1::2], argv[2::2]))
            problem = check_leak_free_test(run.dir / "run.cfg", out / "test.csv", opts["--approach"], opts["--t"])
        else:
            problem = None
    except (OSError, ValueError, IndexError) as exc:
        problem = f"unreadable output: {exc!r}"
    if problem:
        run.failures.append(f"{label}: {problem}")
        del run.digests[name]
        return False
    return True


def check_predictions(path: Path, enrolled: set[str]) -> str | None:
    """Predictions plus exclusions must list every enrolled student once."""
    ids = [line.split(",", 1)[0] for line in path.read_text(encoding="utf-8").splitlines()[1:]]
    if len(ids) != len(enrolled) or set(ids) != enrolled:
        return f"{path.name}: {len(ids)} predictions and exclusions for {len(enrolled)} enrolled students"
    return None


def check_leak_free_test(config: Path, path: Path, approach: str, term: str) -> str | None:
    """test.csv must equal the test side rebuilt from records dated before the term."""
    from dropsplit.config import RunConfig
    from dropsplit.records import ingest, truncate_records
    from dropsplit.splits import SplitApproach, SplitRequest, build_split
    from dropsplit.terms import parse_term

    cfg = RunConfig.load(config)
    cohort = ingest(cfg.students_path, cfg.courses_path, cfg.ingest).cohort
    t = parse_term(term, cfg.terms_per_year)
    request = SplitRequest(SplitApproach(approach), t, int(cfg.raw["split_seed"]))
    _, test = build_split(truncate_records(cohort, t), request)
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]]).reshape(-1, len(header))
    if header != [*test.meta.feature_names, "label"]:
        return f"{path.name}: header {header} is not the rebuilt {list(test.meta.feature_names)} + label"
    if len(rows) != test.n:
        return f"{path.name}: {len(rows)} rows, rebuilt from truncated records: {test.n}"
    if not (np.array_equal(rows[:, :-1], test.X) and np.array_equal(rows[:, -1], test.y)):
        return f"{path.name}: values differ from the test side rebuilt from truncated records"
    return None


def run_op(run: Run, spans_dir: Path | None = None) -> list[Command]:
    op_id = len(run.ops)
    commands = []
    for argv in run.workload.commands:
        spans_file = spans_dir / f"op{op_id}-{argv[0]}.npz" if spans_dir else None
        commands.append(run_command(run, argv, spans_file, op_id))
    run.ops.append(commands)
    return commands


def time_left_for(run: Run, op_s: float) -> bool:
    return time.perf_counter() - run.started + op_s < DEADLINE_S


# --- metrics ------------------------------------------------------------------


def unit_of(name: str) -> str:
    if any(part.endswith("_s") for part in name.split(".")):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("_ratio", "coverage")):
        return "ratio"
    if ".bytes_written." in name:
        return "bytes"
    return "count"


def summarize(name: str, values: list[float]) -> str:
    """Median and the highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    label, tail = "max", ordered[-1]
    for p in (99, 95, 90, 75, 50):
        if n * (100 - p) >= 1000:
            label, tail = f"p{p}", ordered[math.ceil(n * p / 100) - 1]
            break
    return f"{name}: median={statistics.median(values):.4f} {label}={tail:.4f} n={n} {unit_of(name)}"


def end_to_end(run: Run, pieces: np.ndarray) -> tuple[dict[str, float], list[str]]:
    """Times scaled to REF_S by the meter's pieces during each interval, and peak RSS."""

    def scaled(start: float, end: float) -> float:
        return (end - start) * REF_S / meter.piece_s(pieces, start, end)

    setups = [scaled(*span) for span in run.setup_spans]
    ops = [sum(scaled(c.started, c.ended) for c in op) for op in run.ops]
    op_walls = [sum(c.wall_s for c in op) for op in run.ops]
    metrics = {
        "setup_s": statistics.median(setups),
        "op_s": statistics.median(ops),
        "peak_rss_mb": max(c.rss_mb for op in run.ops for c in op),
    }
    lines = [
        summarize("setup_s", setups),
        summarize("op_s", ops),
        summarize("setup_wall_s", run.setup_s),
        summarize("op_wall_s", op_walls),
        summarize("meter piece_s", list(pieces[:, 1] - pieces[:, 0])),
    ]
    for argv in run.workload.commands:
        lines.append(summarize(f"{argv[0]}_s", [c.wall_s for op in run.ops for c in op if c.name == argv[0]]))
    lines.append(f"peak_rss_mb: {metrics['peak_rss_mb']:.1f} MB over {run.attempted} child processes")
    lines.append(f"failed_frac: {run.failed}/{run.attempted} = {run.failed / run.attempted:.4f}")
    return metrics, lines


def merge_spans(files: list[Path], commands: list[Command]) -> dict:
    """Concatenate span files, re-indexing parents and name ids.

    Each command's file gains two root spans measured from this process:
    process.start, from spawn to the child's first span, and process.exit,
    from its last span until it was reaped.
    """
    ids: dict[str, int] = {}
    parts = {key: [] for key in tracer.SPAN_FIELDS}
    counts: dict[str, float] = {}
    digests: set[str] = set()
    offset = 0
    for path, cmd in [(f, None) for f in files] + [(c.spans_file, c) for c in commands]:
        data = tracer.load(path)
        name = np.array([ids.setdefault(n, len(ids)) for n in data["names"]], dtype=np.int64)[data["name"]]
        parent, start, end, op = data["parent"], data["start"], data["end"], data["op"]
        if cmd is not None and len(start):
            name = np.append(name, [ids.setdefault("process.start", len(ids)), ids.setdefault("process.exit", len(ids))])
            parent = np.append(parent, [-1, -1])
            start = np.append(start, [cmd.started, end.max()])
            end = np.append(end, [data["start"].min(), cmd.ended])
            op = np.append(op, [op[0], op[0]])
        parts["name"].append(name)
        parts["parent"].append(np.where(parent >= 0, parent + offset, -1))
        parts["start"].append(start)
        parts["end"].append(end)
        parts["op"].append(op)
        for key, value in data["counts"].items():
            counts[key] = counts.get(key, 0) + value
        digests.update(data["fit_digests"])
        offset += len(start)
    merged = {key: np.concatenate(chunks) for key, chunks in parts.items()}
    merged.update(names=list(ids), counts=counts, fit_digests=digests)
    return merged


def layer_metrics(commands: list[Command]) -> dict[str, float]:
    """Per-layer times and counts of one traced operation."""
    spans = merge_spans([], commands)
    names = spans["names"]
    dur = spans["end"] - spans["start"]
    own = tracer.self_times(spans)
    by_name = {n: (dur[spans["name"] == i].sum(), own[spans["name"] == i].sum()) for i, n in enumerate(names)}

    def total(prefix: str, which: int = 0) -> float:
        return float(sum(v[which] for n, v in by_name.items() if n == prefix or n.startswith(prefix + ".")))

    counts = spans["counts"]
    wall = sum(c.wall_s for c in commands)
    m: dict[str, float] = {f"{layer}.self_s": total(layer, 1) for layer in tracer.LAYERS}
    m["trace.coverage"] = 1.0 - m["process.self_s"] / wall
    ingests = counts.get("records.ingests", 0)
    m["records.ingest_s"] = total("records.ingest") / ingests if ingests else 0.0
    m["records.course_rows"] = counts.get("records.course_rows", 0) // ingests if ingests else 0
    m["records.duplicate_rows"] = counts.get("records.duplicate_rows", 0) // ingests if ingests else 0
    m["features.build_s"] = total("features.build")
    m["features.vector_builds"] = counts.get("features.vector_builds", 0)
    m["features.cache_lookups"] = lookups = counts.get("features.cache_lookups", 0)
    m["features.cache_hit_ratio"] = counts.get("features.cache_hits", 0) / lookups if lookups else 0.0
    m["splits.build_s"] = total("splits.build_split")
    for a in APPROACHES:
        m[f"splits.build_s.{a}"] = total(f"splits.build_split.{a}")
        m[f"splits.self_s.{a}"] = total(f"splits.build_split.{a}", 1)
        for key in ("train_rows", "test_rows", "exclusions"):
            m[f"splits.{key}.{a}"] = counts.get(f"splits.{key}.{a}", 0)
    m["classifiers.fit_s"] = total("classifiers.fit")
    m["classifiers.predict_s"] = total("classifiers.predict")
    for k in KINDS:
        m[f"classifiers.fit_s.{k}"] = total(f"classifiers.fit.{k}")
        m[f"classifiers.predict_s.{k}"] = total(f"classifiers.predict.{k}")
        m[f"classifiers.fit_rows.{k}"] = counts.get(f"classifiers.fit_rows.{k}", 0)
        m[f"classifiers.predict_rows.{k}"] = counts.get(f"classifiers.predict_rows.{k}", 0)
    for k in ("decision_tree", "extra_trees"):
        m[f"classifiers.tree_nodes.{k}"] = counts.get(f"classifiers.tree_nodes.{k}", 0)
    m["classifiers.knn_distance_evals"] = counts.get("classifiers.knn_distance_evals", 0)
    fits = counts.get("classifiers.fits", 0)
    m["evaluation.unique_fit_ratio"] = len(spans["fit_digests"]) / fits if fits else 0.0
    m["evaluation.grid_self_s"] = total("evaluation.run_grid", 1)
    m["evaluation.points_s"] = total("evaluation.score_points")
    m["evaluation.report_s"] = total("evaluation.render_report")
    m["evaluation.final_s"] = total("evaluation.predict_enrolled")
    m["evaluation.final_train_rows"] = counts.get("evaluation.final_train_rows", 0)
    m["evaluation.cells"] = counts.get("evaluation.cells", 0)
    m["evaluation.cells_skipped"] = counts.get("evaluation.cells_skipped", 0)
    for cmd in ("evaluate", "split", "predict"):
        m[f"cli.self_s.{cmd}"] = total(f"cli.main.{cmd}", 1)
        m[f"cli.bytes_written.{cmd}"] = sum(c.bytes_written for c in commands if c.name == cmd)
    return m


def per_layer(run: Run, untraced: list[Command], traced: list[list[Command]]) -> tuple[dict[str, float], list[str]]:
    per_op = [layer_metrics(op) for op in traced]
    m = {}
    for key in per_op[0]:
        values = [op[key] for op in per_op]
        if unit_of(key) == "s" or key == "trace.coverage":
            m[key] = statistics.median(values)
        else:
            m[key] = values[0]
            if any(v != values[0] for v in values):
                run.failures.append(f"count {key} differs between traced operations: {values}")
    setup = run.spans
    dur = np.array(setup.end) - np.array(setup.start)
    setup_names = np.array([setup.names[i] for i in setup.name])
    for part in ("generate", "write"):
        m[f"synthgen.{part}_s"] = float(np.median(dur[setup_names == f"synthgen.{part}"]))
    m["synthgen.students"] = setup.counts["synthgen.students"]
    m["synthgen.course_records"] = setup.counts["synthgen.course_records"]
    traced_walls = [sum(c.wall_s for c in op) for op in traced]
    m["trace.overhead_s"] = statistics.median(traced_walls) - sum(c.wall_s for c in untraced)
    lines = [f"{key}: {value:.6g} {unit_of(key)}" if unit_of(key) in ("s", "ratio") else f"{key}: {value} {unit_of(key)}" for key, value in sorted(m.items())]
    layers = sum(m[f"{layer}.self_s"] for layer in tracer.LAYERS)
    lines.append(f"layer self times sum to {layers:.4f} s, {layers / statistics.median(traced_walls):.4f} of traced op_s")
    lines.append(summarize("traced op_s", traced_walls))
    lines.append(f"untraced op_s: {sum(c.wall_s for c in untraced):.4f} s")
    return m, lines


def write_trace(run: Run, traced: list[list[Command]], path: Path) -> None:
    """All spans of the run, set-up and traced commands, in one file."""
    setup = run.dir / "trace" / "setup.npz"
    run.spans.save(setup)
    merged = merge_spans([setup], [c for op in traced for c in op])
    np.savez(
        path,
        names=json.dumps(merged["names"]),
        counts=json.dumps(merged["counts"]),
        **{key: merged[key] for key in tracer.SPAN_FIELDS},
    )


# --- drift against recorded output digests --------------------------------------


def drift(run: Run, workload: str, record: bool) -> str:
    """Compare output digests with those recorded for this workload and seed."""
    current = {f"{group}/{rel}": d for group, files in run.digests.items() for rel, d in files.items()}
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}
    if record:
        recorded.setdefault(workload, {})[str(run.seed)] = current
        DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    base = recorded.get(workload, {}).get(str(run.seed))
    if base is None:
        return f"drift: no recorded digests for {workload} seed {run.seed}"
    changed = sorted(k for k in set(base) | set(current) if base.get(k) != current.get(k))
    if not changed:
        return f"drift: none ({len(current)} output files match the recorded digests)"
    return f"drift: {len(changed)} output files differ from the recorded digests: {', '.join(changed)}"


# --- main ---------------------------------------------------------------------


@dataclass
class Meter:
    """meter.py in a child process, and the two CPUs it and the timed work take turns on."""

    proc: subprocess.Popen
    cpus: tuple[int, ...]  # empty when this process may use only one CPU

    @classmethod
    def start(cls, out: Path) -> Meter:
        allowed = sorted(os.sched_getaffinity(0))
        cpus = (allowed[0], allowed[-1]) if len(allowed) > 1 else ()
        cpu = cpus[1] if cpus else -1
        return cls(subprocess.Popen([sys.executable, str(HERE / "meter.py"), str(out), str(cpu), str(os.getpid())], env=child_env()), cpus)

    def take_turn(self, k: int) -> None:
        """Put the k-th timed interval of its kind on one CPU of the pair, and the meter on the other.

        Set-ups and operations each alternate between the two CPUs, so that a
        run's medians do not rest on one CPU being slower than the other.
        """
        if self.cpus:
            os.sched_setaffinity(0, {self.cpus[k % 2]})  # children inherit it
            try:
                os.sched_setaffinity(self.proc.pid, {self.cpus[1 - k % 2]})
            except ProcessLookupError:
                pass  # the meter exited early; main() reports it


def untraced_run(run: Run, args: argparse.Namespace, host_meter: Meter) -> None:
    """Set-ups alternate with operations, so both sample the whole run."""

    def set_up_once() -> None:
        host_meter.take_turn(len(run.setup_s))
        set_up(run)

    set_up_once()
    # Stop at the operation count whose total time is nearest --seconds.
    measured = last = 0.0
    while len(run.ops) < MIN_OPS or measured + last / 2 < args.seconds:
        if run.ops and not time_left_for(run, last):
            break
        host_meter.take_turn(len(run.ops))
        last = sum(c.wall_s for c in run_op(run))
        measured += last
        if len(run.setup_s) < SETUPS:
            set_up_once()
    while len(run.setup_s) < SETUPS:
        set_up_once()


def traced_run(run: Run, args: argparse.Namespace) -> tuple[dict[str, float], list[str]]:
    """One untraced operation, then TRACED_OPS traced ones; set-ups alternate with them."""
    set_up(run)
    for spans_dir in [None] + [run.dir / "trace"] * TRACED_OPS:
        if run.ops and not time_left_for(run, sum(c.wall_s for c in run.ops[-1])):
            break
        run_op(run, spans_dir)
        if len(run.setup_s) < SETUPS:
            set_up(run)
    while len(run.setup_s) < SETUPS:
        set_up(run)
    untraced, traced = run.ops[0], run.ops[1:]
    if not traced or run.failed:
        return {}, []
    metrics, lines = per_layer(run, untraced, traced)
    trace_file = WORK / f"trace-{args.workload}-seed{args.seed}.npz"
    write_trace(run, traced, trace_file)
    lines.append(f"spans: {trace_file.relative_to(ROOT)}")
    return metrics, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help=f"generator seed (default {DEFAULT_SEED})")
    parser.add_argument("--seconds", type=float, default=45.0, help="measure about this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true", help="store this run's output digests in digests.json")
    args = parser.parse_args(argv)
    started = time.perf_counter()
    if not (SRC / "dropsplit" / "cli.py").is_file():
        print(f"perfbench: no dropsplit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    run_dir = WORK / args.workload
    shutil.rmtree(run_dir, ignore_errors=True)
    (run_dir / "trace").mkdir(parents=True)
    run = Run(workload=WORKLOADS[args.workload], seed=args.seed, dir=run_dir, started=started, traced=bool(args.trace))
    if args.trace:
        metrics, lines = traced_run(run, args)
        wanted = spec["per_layer"]
    else:
        host_meter = Meter.start(run_dir / "meter.txt")
        try:
            untraced_run(run, args, host_meter)
        finally:
            if host_meter.proc.poll() is not None:
                run.failures.append(f"meter.py exited early with code {host_meter.proc.returncode}")
            host_meter.proc.terminate()
            host_meter.proc.wait()
        pieces = meter.load(run_dir / "meter.txt")
        if len(pieces) < meter.MIN_PIECES:
            run.failures.append(f"meter.py timed {len(pieces)} pieces of reference work")
        metrics, lines = end_to_end(run, pieces) if not run.failures else ({}, [])
        wanted = spec["end_to_end"]

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} ops={len(run.ops)} setups={SETUPS}")
    for line in lines:
        print(line)
    print(drift(run, args.workload, args.record_digests))
    for failure in run.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted} if metrics else {},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
