"""Walk-forward evaluation of splitting approaches and classifiers.

The grid runner walks the reference term across a range, materializes every
requested (approach, classifier) cell, and records accuracy, confusion counts,
and set sizes. Cells that cannot be built are skip-marked with the reason and
never abort the grid. Method selection uses a point rule: a classifier earns a
point for holding the top accuracy at two consecutive evaluated terms, with
period means breaking ties.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import classifiers
from .classifiers import ClassifierSpec, accuracy, confusion, fit, fit_each, predict
from .features import FeatureSetSpec, VectorTable, vector_table
from .records import Cohort, _number
from .splits import (
    RULES,
    Exclusion,
    LabeledDataset,
    SplitApproach,
    SplitError,
    SplitRequest,
    apply_rule,
    split_sides,
)
from .terms import Term, format_term, to_ordinal


class EvaluationError(RuntimeError):
    """The evaluation cannot proceed (e.g. every cell was skipped)."""


class AccuracyCsvError(EvaluationError):
    """An accuracy CSV read back for a report is malformed; the message names
    the file and, where one is at fault, the line."""


@dataclass(frozen=True)
class SetSizes:
    train_students: int
    train_rows: int
    test_students: int
    test_rows: int


@dataclass
class EvaluationGrid:
    approaches: tuple[SplitApproach, ...]
    classifiers: tuple[str, ...]
    t_values: tuple[Term, ...]
    terms_per_year: int
    accuracy: dict[tuple[str, str, Term], float] = field(default_factory=dict)
    skips: dict[tuple[str, str, Term], str] = field(default_factory=dict)
    confusions: dict[tuple[str, str, Term], np.ndarray] = field(default_factory=dict)
    sizes: dict[tuple[str, Term], SetSizes] = field(default_factory=dict)
    enrolled: dict[Term, int] = field(default_factory=dict)
    exclusion_counts: dict[tuple[str, Term], int] = field(default_factory=dict)

    def cell(self, approach: str, classifier: str, t: Term) -> float | None:
        return self.accuracy.get((approach, classifier, t))

    def _mean(self, cells) -> float | None:
        """The mean of the accuracies the grid holds at cells, in their order."""
        values = [v for key in cells if (v := self.accuracy.get(key)) is not None]
        return sum(values) / len(values) if values else None

    def per_t_mean(self, approach: str, t: Term) -> float | None:
        return self._mean((approach, c, t) for c in self.classifiers)

    def period_mean(self, approach: str, classifier: str) -> float | None:
        return self._mean((approach, classifier, t) for t in self.t_values)

    def block_mean(self, approach: str) -> float | None:
        return self._mean((approach, c, t) for c in self.classifiers for t in self.t_values)


def run_grid(
    cohort: Cohort,
    approaches: list[SplitApproach],
    specs: list[ClassifierSpec],
    t_values: list[Term],
    split_seed: int = 0,
    feature_spec: FeatureSetSpec | None = None,
) -> EvaluationGrid:
    """Fit and score every (reference term, approach, classifier) cell.

    Every split of the walk is cut from the cohort's one vector table under
    feature_spec (`features.vector_table`), which the final stage reuses, and
    cells are visited in a fixed order so results do not depend on
    scheduling. A reference term's splits are built first, and each
    classifier is fitted once per distinct training set, as `RULES` gives them
    (B2 and B2T train on the same rows); each model scores every test set that
    needs it. Decision tree, KNN and naive Bayes specs fit all of a term's
    sets in one `fit_each` call. Extra-trees specs hold the sets of
    consecutive terms and grow all of their forests in one `fit_each` pass:
    a batch closes before the term that would push its rows x trees past
    `classifiers._FOREST_PASS_BYTES`, so a term over it alone gets its own
    pass. Each forest is the one grown alone, so batching changes no cell.
    """
    if not specs:
        raise EvaluationError("no classifier specs given")
    labels = [s.label for s in specs]
    if len(set(labels)) != len(labels):
        raise EvaluationError(f"duplicate classifier labels: {labels}")
    for t in t_values:
        if t not in cohort.range:
            raise EvaluationError(f"reference term {t} outside cohort range")
    tab = vector_table(cohort, feature_spec)
    grid = EvaluationGrid(
        approaches=tuple(approaches),
        classifiers=tuple(labels),
        t_values=tuple(t_values),
        terms_per_year=cohort.terms_per_year,
    )
    forests = [s for s in specs if s.kind == "extra_trees"]
    others = [s for s in specs if s.kind != "extra_trees"]
    row_bytes = 4 * max((s.n_trees for s in forests), default=0)  # as `_FOREST_PASS_BYTES` counts
    batch, held_bytes = [], 0
    for t in t_values:
        term = _build_term(grid, cohort, tab, approaches, specs, t, split_seed)
        _fit_and_score(grid, others, [term])
        if forests:
            term_bytes = row_bytes * sum(train.n for train in term[1].values())
            if batch and held_bytes + term_bytes > classifiers._FOREST_PASS_BYTES:
                _fit_and_score(grid, forests, batch)
                batch, held_bytes = [], 0
            batch.append(term)
            held_bytes += term_bytes
        del term  # a term no batch holds goes before the next term's splits are built
    _fit_and_score(grid, forests, batch)
    return grid


def _build_term(grid, cohort, tab: VectorTable, approaches, specs, t, split_seed) -> tuple:
    """Build term t's splits as row indices (`split_sides`), recording their
    sizes and skips; returns (t, one training set per distinct train rule,
    the (approach, rule, test) of each built split). The sets it returns hold
    only their X and y, gathered straight from the table."""
    grid.enrolled[t] = len(tab.enrolled(to_ordinal(t, cohort.terms_per_year)))
    trains = {}  # one per distinct training set: A's own, else its train rule's
    held = []
    for approach in approaches:
        a = approach.value
        try:
            train, test = split_sides(cohort, SplitRequest(approach, t, split_seed), spec=tab.spec)
        except SplitError as exc:
            grid.sizes[(a, t)] = SetSizes(0, 0, 0, 0)
            for spec in specs:
                grid.skips[(a, spec.label, t)] = str(exc)
            continue
        grid.sizes[(a, t)] = SetSizes(train.students, len(train.rows), test.students, len(test.rows))
        grid.exclusion_counts[(a, t)] = len(train.excluded) + len(test.excluded)
        key = approach if approach is SplitApproach.A else RULES[approach].train
        if key not in trains:
            trains[key] = LabeledDataset(*train.xy(tab))
        held.append((a, key, LabeledDataset(*test.xy(tab))))
    return t, trains, held


def _fit_and_score(grid: EvaluationGrid, specs: list[ClassifierSpec], terms: list[tuple]) -> None:
    """Fit each spec on every distinct training set of `terms` in one
    `fit_each` call, and score each test set with its model."""
    keys = [(t, key) for t, trains, _ in terms for key in trains]
    sets = [train for _, trains, _ in terms for train in trains.values()]
    for spec in specs:
        fitted = dict(zip(keys, fit_each(spec, sets)))
        for t, _, held in terms:
            for a, key, test in held:
                _score(grid, (a, spec.label, t), fitted[(t, key)], test)


def _score(grid: EvaluationGrid, cell: tuple, model, test: LabeledDataset) -> None:
    y_pred = predict(model, test.X)
    grid.accuracy[cell] = accuracy(test.y, y_pred)
    grid.confusions[cell] = confusion(test.y, y_pred)


@dataclass
class PointTable:
    approach: str
    points: dict[str, int]
    period_means: dict[str, float]
    winner: str
    runner_up: str | None
    tiebreak_used: bool


# The ways `score_points` can award consecutive-top points.
POINT_MODES = ("pairs", "streaks")


def _award_points(
    grid: EvaluationGrid, approach: str, classifiers: tuple[str, ...], mode: str
) -> dict[str, int]:
    """Points per classifier under the consecutive-top rule.

    Only the terms at which every classifier has a value are walked. Two of
    them that are adjacent in the calendar form a pair, and a classifier top
    at both holds the pair; consecutive pairs it holds make a run. In "pairs"
    mode every pair of a run earns a point, so a streak of L consecutive tops
    earns L-1; in "streaks" mode only a run's first pair does, so each streak
    of length >= 2 earns one.
    """
    if mode not in POINT_MODES:
        raise ValueError(f"unknown points mode {mode!r}, expected one of {','.join(POINT_MODES)}")
    points = dict.fromkeys(classifiers, 0)
    run = dict.fromkeys(classifiers, 0)  # pairs held in each classifier's current run
    last, last_top = None, set()  # ordinal and tops of the last walked term
    for t in grid.t_values:
        values = {c: grid.cell(approach, c, t) for c in classifiers}
        if None in values.values():
            continue
        best = max(values.values())
        top = {c for c, v in values.items() if v == best}
        o = to_ordinal(t, grid.terms_per_year)
        for c in classifiers:
            run[c] = run[c] + 1 if o - 1 == last and c in top and c in last_top else 0
            if run[c] and (mode == "pairs" or run[c] == 1):
                points[c] += 1
        last, last_top = o, top
    return points


def _select(
    points: dict[str, int], means: dict[str, float]
) -> tuple[str, bool]:
    best = max(points.values())
    tied = sorted(c for c, p in points.items() if p == best)
    if len(tied) == 1:
        return tied[0], False
    return max(tied, key=lambda c: (means.get(c, float("-inf")), )), True


def score_points(grid: EvaluationGrid, approach: SplitApproach | str, mode: str = "pairs") -> PointTable:
    """Pick the best and second-best classifier for one approach block."""
    a = approach.value if isinstance(approach, SplitApproach) else approach
    classifiers = grid.classifiers
    non_skipped = [
        t for t in grid.t_values if any(grid.cell(a, c, t) is not None for c in classifiers)
    ]
    if not non_skipped:
        raise EvaluationError(f"approach {a}: every cell was skipped")
    if len(non_skipped) < 2:
        raise EvaluationError(f"approach {a}: need at least two evaluated terms")
    means = {
        c: m for c in classifiers if (m := grid.period_mean(a, c)) is not None
    }
    points = _award_points(grid, a, classifiers, mode)
    winner, tiebreak = _select(points, means)
    runner_up = None
    if len(classifiers) > 1:
        remaining = tuple(c for c in classifiers if c != winner)
        rest_points = _award_points(grid, a, remaining, mode)
        runner_up, _ = _select(rest_points, means)
    return PointTable(
        approach=a,
        points=points,
        period_means=means,
        winner=winner,
        runner_up=runner_up,
        tiebreak_used=tiebreak,
    )


# --- final stage: predicting currently enrolled students ---------------------


@dataclass
class EnrolledPredictions:
    approach: str
    classifier: str
    reference_term: Term
    predictions: list[tuple[str, int]]
    exclusions: list[tuple[str, str]]
    train_rows: tuple[tuple[str, Term], ...]
    train_exclusions: tuple[Exclusion, ...]


def predict_enrolled(
    cohort: Cohort,
    winning_spec: ClassifierSpec,
    approach: SplitApproach = SplitApproach.B4T,
    feature_spec: FeatureSetSpec | None = None,
) -> EnrolledPredictions:
    """Refit on every exited student and predict each enrolled student's outcome.

    The training rows follow the approach's train rule, so every exited student
    is either a training row or a training exclusion (those exited before the
    horizon first, then those exited at it). Enrolled students without
    a computable vector at the horizon are listed as exclusions, so predictions
    plus exclusions always account for the whole enrolled population. With no
    enrolled student nothing is fitted and both sides are empty.
    """
    tab = vector_table(cohort, feature_spec)
    horizon = cohort.range.hi
    o = to_ordinal(horizon, tab.terms_per_year)
    result = EnrolledPredictions(approach.value, winning_spec.label, horizon, [], [], (), ())
    enrolled = tab.enrolled(o)
    if not len(enrolled):
        return result
    exited = np.concatenate([tab.exited_before(o), tab.exited_from(o)])
    train = apply_rule(approach, "train", exited, horizon, tab)
    if not train.n:
        raise EvaluationError("no exited students with computable training vectors")
    result.train_rows, result.train_exclusions = train.rows, train.meta.exclusions
    model = fit(winning_spec, train)
    pick = tab.as_of(enrolled, o)
    defined = pick.count > 0
    result.exclusions = [(tab.student_ids[i], r) for i, r, ok in zip(enrolled.tolist(), pick.reason.tolist(), defined) if not ok]
    if defined.any():
        labels = predict(model, tab.take(pick.start[defined], pick.as_of)[0])
        result.predictions = [(tab.student_ids[i], int(lb)) for i, lb in zip(enrolled[defined].tolist(), labels)]
    return result


# --- report rendering ---------------------------------------------------------

_PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#17becf",
    "#7f7f7f",
)


def _accuracy_csv(grid: EvaluationGrid, approach: str) -> str:
    header = ["classifier"] + [format_term(t) for t in grid.t_values] + ["mean"]
    lines = [",".join(header)]
    for c in grid.classifiers:
        cells = []
        for t in grid.t_values:
            v = grid.cell(approach, c, t)
            cells.append(repr(v) if v is not None else "")
        mean = grid.period_mean(approach, c)
        cells.append(repr(mean) if mean is not None else "")
        lines.append(",".join([c] + cells))
    means = []
    for t in grid.t_values:
        v = grid.per_t_mean(approach, t)
        means.append(repr(v) if v is not None else "")
    block = grid.block_mean(approach)
    means.append(repr(block) if block is not None else "")
    lines.append(",".join(["mean"] + means))
    return "\n".join(lines) + "\n"


def _setsizes_csv(grid: EvaluationGrid) -> str:
    header = ["set"] + [format_term(t) for t in grid.t_values]
    lines = [",".join(header)]
    for approach in grid.approaches:
        a = approach.value
        for role, attr in (("train", "train_students"), ("test", "test_students")):
            cells = [str(getattr(grid.sizes[(a, t)], attr)) for t in grid.t_values]
            lines.append(",".join([f"{a} {role}"] + cells))
        if RULES[approach].expanded:
            cells = [str(grid.sizes[(a, t)].train_rows) for t in grid.t_values]
            lines.append(",".join([f"{a} train rows"] + cells))
    lines.append(",".join(["enrolled"] + [str(grid.enrolled[t]) for t in grid.t_values]))
    return "\n".join(lines) + "\n"


def points_csv(table: PointTable) -> str:
    lines = ["classifier,points,period_mean,selection"]
    for c in sorted(table.points):
        mean = table.period_means.get(c)
        tag = "winner" if c == table.winner else ("runner_up" if c == table.runner_up else "")
        lines.append(f"{c},{table.points[c]},{repr(mean) if mean is not None else ''},{tag}")
    lines.append(f"# tiebreak_used={str(table.tiebreak_used).lower()}")
    return "\n".join(lines) + "\n"


def _confusion_csv(matrix: np.ndarray) -> str:
    lines = [",pred_dropout,pred_graduated"]
    lines.append(f"true_dropout,{int(matrix[0, 0])},{int(matrix[0, 1])}")
    lines.append(f"true_graduated,{int(matrix[1, 0])},{int(matrix[1, 1])}")
    return "\n".join(lines) + "\n"


def chart_svg(grid: EvaluationGrid, approach: str) -> str:
    """One polyline per classifier: accuracy against the reference term."""
    width, height = 860, 480
    left, right, top, bottom = 60, 180, 30, 50
    plot_w, plot_h = width - left - right, height - top - bottom
    xs = [to_ordinal(t, grid.terms_per_year) for t in grid.t_values]
    x_lo, x_hi = min(xs), max(xs)
    span = max(1, x_hi - x_lo)

    def px(t_ord: int) -> float:
        return left + (t_ord - x_lo) / span * plot_w

    def py(acc: float) -> float:
        return top + (1.0 - acc) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{left}" y="18" font-family="sans-serif" font-size="14">accuracy by reference term ({approach})</text>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = py(frac)
        parts.append(
            f'<line x1="{left}" y1="{y:.1f}" x2="{left + plot_w}" y2="{y:.1f}" stroke="#dddddd"/>'
        )
        parts.append(
            f'<text x="{left - 8}" y="{y + 4:.1f}" text-anchor="end" font-family="sans-serif" font-size="11">{frac:.2f}</text>'
        )
    for t, x in zip(grid.t_values, xs):
        parts.append(
            f'<text x="{px(x):.1f}" y="{height - bottom + 16}" text-anchor="middle" font-family="sans-serif" font-size="10">{format_term(t)}</text>'
        )
    parts.append(
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{top + plot_h}" stroke="#333333"/>'
    )
    parts.append(
        f'<line x1="{left}" y1="{top + plot_h}" x2="{left + plot_w}" y2="{top + plot_h}" stroke="#333333"/>'
    )
    for i, c in enumerate(grid.classifiers):
        color = _PALETTE[i % len(_PALETTE)]
        pts = [
            f"{px(x):.1f},{py(v):.1f}"
            for t, x in zip(grid.t_values, xs)
            if (v := grid.cell(approach, c, t)) is not None
        ]
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{" ".join(pts)}"/>'
        )
        ly = top + 16 * i + 10
        lx = left + plot_w + 12
        parts.append(f'<line x1="{lx}" y1="{ly}" x2="{lx + 18}" y2="{ly}" stroke="{color}" stroke-width="2"/>')
        parts.append(
            f'<text x="{lx + 24}" y="{ly + 4}" font-family="sans-serif" font-size="11">{c}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_report(
    grid: EvaluationGrid,
    point_tables: dict[str, PointTable],
    out_dir: str | Path,
    confusion_terms: list[Term] | None = None,
) -> list[Path]:
    """Write the per-approach accuracy tables, set sizes, points, confusion
    matrices for each block's winner and runner-up, and one chart per approach.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    def emit(name: str, text: str) -> None:
        path = out_dir / name
        path.write_text(text, encoding="utf-8")
        written.append(path)

    for approach in grid.approaches:
        a = approach.value
        emit(f"accuracy_{a}.csv", _accuracy_csv(grid, a))
        emit(f"chart_{a}.svg", chart_svg(grid, a))
        table = point_tables.get(a)
        if table is not None:
            emit(f"points_{a}.csv", points_csv(table))
            methods = [m for m in (table.winner, table.runner_up) if m]
            for t in confusion_terms or []:
                for method in methods:
                    matrix = grid.confusions.get((a, method, t))
                    if matrix is not None:
                        emit(f"confusion_{a}_{method}_{format_term(t)}.csv", _confusion_csv(matrix))
    emit("setsizes.csv", _setsizes_csv(grid))
    return written


def read_accuracy_csv(path: str | Path, terms_per_year: int = 2):
    """Parse an emitted accuracy CSV back into (t_values, rows, mean_row).

    Used by report tooling and by tests verifying the round trip. A cell is
    empty or an accuracy: an ASCII number without `_` (as `records._number`
    reads it) that is finite and in [0, 1]. A header other than
    classifier,<terms>,mean, a row with another number of cells than the
    header, any other cell, or a second row of one classifier or of the mean
    raises AccuracyCsvError naming the file and the line (the header is line
    1), and a bad cell's column.
    """
    from .terms import parse_term

    lines = Path(path).read_text(encoding="utf-8").splitlines() or [""]
    header = lines[0].split(",")
    if header[0] != "classifier" or header[-1] != "mean":
        raise AccuracyCsvError(f"{path}: line 1: expected the header classifier,<terms>,mean, got {lines[0]!r}")
    try:
        t_values = [parse_term(tok, terms_per_year) for tok in header[1:-1]]
    except ValueError as exc:
        raise AccuracyCsvError(f"{path}: line 1: {exc}") from None
    rows: dict[str, list[float | None]] = {}
    mean_row: list[float | None] = []
    first_line: dict[str, int] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(header):
            raise AccuracyCsvError(f"{path}: line {lineno}: {len(cells)} cells, the header has {len(header)}")
        if cells[0] in first_line:
            raise AccuracyCsvError(f"{path}: line {lineno}: row {cells[0]!r} repeats line {first_line[cells[0]]}")
        first_line[cells[0]] = lineno
        values = []
        for column, v in zip(header[1:], cells[1:]):
            try:
                value = _number(v) if v else None
            except ValueError:
                raise AccuracyCsvError(f"{path}: line {lineno}: column {column!r} has non-numeric value {v!r}") from None
            if value is not None and not 0.0 <= value <= 1.0:
                raise AccuracyCsvError(f"{path}: line {lineno}: column {column!r} has {v!r}, not an accuracy in [0, 1]")
            values.append(value)
        if cells[0] == "mean":
            mean_row = values
        else:
            rows[cells[0]] = values
    return t_values, rows, mean_row
