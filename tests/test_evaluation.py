from __future__ import annotations

import random

import numpy as np
import pytest

from dropsplit import classifiers, evaluation
from dropsplit.classifiers import ClassifierSpec, accuracy, confusion, fit, fit_each, predict
from dropsplit.evaluation import (
    POINT_MODES,
    EvaluationError,
    EvaluationGrid,
    predict_enrolled,
    read_accuracy_csv,
    render_report,
    run_grid,
    score_points,
)
from dropsplit.features import CANONICAL_TIME_FEATURES, FeatureSetSpec, VectorTable, vector_table
from dropsplit.records import truncate_records
from dropsplit.splits import SplitApproach, SplitError, SplitRequest, apply_rule, build_split
from dropsplit.synthgen import GeneratorConfig, generate
from dropsplit.terms import Term, TermRange, iter_terms

from conftest import (
    build_cohort,
    naive_values,
    rows,
    subset_enrolled,
    subset_exited_before,
    subset_exited_from,
)

FAST_SPECS = [
    ClassifierSpec(kind="decision_tree", max_depth=6, label="decision_tree"),
    ClassifierSpec(kind="gaussian_nb", label="gaussian_nb"),
]

APPROACHES = [SplitApproach.A, SplitApproach.B1, SplitApproach.B2, SplitApproach.B2T]


@pytest.fixture(scope="module")
def small_grid(medium_synth):
    t_values = list(iter_terms(Term(2011, 1), Term(2013, 2)))
    return run_grid(medium_synth, APPROACHES, FAST_SPECS, t_values, split_seed=5)


class TestRunGrid:
    def test_cells_match_independent_recomputation(self, medium_synth, small_grid):
        for t in [Term(2011, 2), Term(2013, 1)]:
            for approach in APPROACHES:
                train, test = build_split(medium_synth, SplitRequest(approach, t, seed=5))
                for spec in FAST_SPECS:
                    model = fit(spec, train)
                    expected = accuracy(test.y, predict(model, test.X))
                    assert small_grid.cell(approach.value, spec.label, t) == expected

    def test_a_and_b1_share_sizes(self, small_grid):
        for t in small_grid.t_values:
            a = small_grid.sizes[("A", t)]
            b1 = small_grid.sizes[("B1", t)]
            assert (a.train_students, a.test_students) == (b1.train_students, b1.test_students)

    def test_truncated_test_counts_bounded_by_b2(self, small_grid):
        for t in small_grid.t_values:
            assert small_grid.sizes[("B2T", t)].test_students <= small_grid.sizes[("B2", t)].test_students

    def test_enrolled_counts_recorded(self, medium_synth, small_grid):
        for t in small_grid.t_values:
            assert small_grid.enrolled[t] == len(subset_enrolled(medium_synth, t))

    def test_unbuildable_cells_are_skip_marked(self, medium_synth):
        t0 = medium_synth.range.lo  # nobody has exited yet
        grid = run_grid(medium_synth, [SplitApproach.B1], FAST_SPECS, [t0, Term(2011, 1)])
        for spec in FAST_SPECS:
            assert grid.cell("B1", spec.label, t0) is None
            assert "exited" in grid.skips[("B1", spec.label, t0)]
            assert grid.cell("B1", spec.label, Term(2011, 1)) is not None

    def test_grid_is_deterministic(self, medium_synth, small_grid):
        again = run_grid(
            medium_synth, APPROACHES, FAST_SPECS, list(small_grid.t_values), split_seed=5
        )
        assert again.accuracy == small_grid.accuracy
        assert again.skips == small_grid.skips
        assert again.sizes == small_grid.sizes

    def test_means_ignore_skipped_cells(self, small_grid):
        for approach in APPROACHES:
            a = approach.value
            for t in small_grid.t_values:
                cells = [
                    v for c in small_grid.classifiers if (v := small_grid.cell(a, c, t)) is not None
                ]
                expected = sum(cells) / len(cells) if cells else None
                assert small_grid.per_t_mean(a, t) == expected

    def test_fits_once_per_distinct_training_set(self, medium_synth, monkeypatch):
        # B2 and B2T train on the same rows, so each spec is fitted once per term.
        fits = []

        def counting_fit_each(spec, trains):
            fits.extend((spec.label, train.X.tobytes(), train.y.tobytes()) for train in trains)
            return fit_each(spec, trains)

        monkeypatch.setattr(evaluation, "fit_each", counting_fit_each)
        terms = [Term(2011, 2), Term(2012, 1)]
        grid = run_grid(medium_synth, [SplitApproach.B2, SplitApproach.B2T], FAST_SPECS, terms)
        assert len(fits) == len(set(fits)) == len(FAST_SPECS) * len(terms)
        assert len(grid.accuracy) == 2 * len(FAST_SPECS) * len(terms)

    def test_forest_cells_equal_cells_fitted_alone(self, medium_synth, monkeypatch):
        # At 2010.2 only A and B1 can be built; the others raise SplitError.
        # The decision tree is fitted on each term's distinct training sets
        # in one call; each forest spec grows both terms' sets in one pass.
        specs = [
            ClassifierSpec(kind="extra_trees", n_trees=4, max_depth=4, seed=1, label="forest_a"),
            ClassifierSpec(kind="decision_tree", max_depth=4, label="tree"),
            ClassifierSpec(kind="extra_trees", n_trees=3, feature_subsample=2, seed=9, label="forest_b"),
        ]
        approaches = [SplitApproach.A, SplitApproach.B1, SplitApproach.B2, SplitApproach.B2T, SplitApproach.B3T]
        terms = [Term(2010, 2), Term(2012, 1)]
        batches = []

        def counting_fit_each(spec, trains):
            batches.append((spec.label, len(trains)))
            return fit_each(spec, trains)

        monkeypatch.setattr(evaluation, "fit_each", counting_fit_each)
        grid = run_grid(medium_synth, approaches, specs, terms, split_seed=3)
        skipped = 0
        for t in terms:
            for approach in approaches:
                a = approach.value
                try:
                    train, test = build_split(medium_synth, SplitRequest(approach, t, seed=3))
                except SplitError as exc:
                    skipped += 1
                    for spec in specs:
                        assert grid.cell(a, spec.label, t) is None
                        assert grid.skips[(a, spec.label, t)] == str(exc)
                    continue
                for spec in specs:
                    y_pred = predict(fit(spec, train), test.X)
                    assert grid.cell(a, spec.label, t) == accuracy(test.y, y_pred)
                    assert np.array_equal(grid.confusions[(a, spec.label, t)], confusion(test.y, y_pred))
        assert skipped == 3
        # A and B1 at 2010.2; at 2012.1 B2 and B2T share their training set.
        # The walk's 6 sets stay far under the forest pass bound.
        assert batches == [("tree", 2), ("tree", 4), ("forest_a", 6), ("forest_b", 6)]

    def test_forest_batches_do_not_change_the_grid(self, medium_synth, monkeypatch):
        # A 1-byte bound grows every term's forests in a pass of their own; a
        # bound past the walk's rows grows them all in one pass. 2009.2 skips
        # every approach, and 2010.1 and 2010.2 all but A and B1.
        specs = [
            ClassifierSpec(kind="extra_trees", n_trees=3, max_depth=5, seed=4, label="forest"),
            ClassifierSpec(kind="gaussian_nb", label="nb"),
            ClassifierSpec(kind="extra_trees", n_trees=2, feature_subsample=None, seed=8, label="forest_all"),
        ]
        terms = list(iter_terms(Term(2009, 2), Term(2012, 2), 2))
        grids, passes = [], []

        def counting_fit_each(spec, trains):
            if spec.kind == "extra_trees":
                passes[-1] += 1
            return fit_each(spec, trains)

        monkeypatch.setattr(evaluation, "fit_each", counting_fit_each)
        for bound in (1, 1 << 40):
            monkeypatch.setattr(classifiers, "_FOREST_PASS_BYTES", bound)
            passes.append(0)
            grids.append(run_grid(medium_synth, list(SplitApproach), specs, terms, split_seed=5))
        alone, together = grids
        assert passes == [2 * len(terms), 2]
        assert alone.skips and len(alone.accuracy) == len(specs) * len(terms) * len(SplitApproach) - len(alone.skips)
        for name in ("accuracy", "skips", "sizes", "exclusion_counts", "enrolled"):
            assert getattr(together, name) == getattr(alone, name), name
        assert together.confusions.keys() == alone.confusions.keys()
        for cell, matrix in alone.confusions.items():
            assert np.array_equal(together.confusions[cell], matrix), cell

    def test_fills_the_cache_it_is_given(self, medium_synth):
        medium_synth.vector_tables.clear()
        assert not medium_synth.vector_tables  # the table is built on first use
        run_grid(medium_synth, [SplitApproach.B1], FAST_SPECS, [Term(2012, 1)])
        assert list(medium_synth.vector_tables) == [FeatureSetSpec.for_cohort(medium_synth)]

    def test_duplicate_labels_rejected(self, medium_synth):
        with pytest.raises(EvaluationError, match="duplicate"):
            run_grid(
                medium_synth,
                [SplitApproach.B1],
                [ClassifierSpec(kind="knn"), ClassifierSpec(kind="knn")],
                [Term(2011, 1), Term(2011, 2)],
            )


class TestCacheChecks:
    """run_grid, predict_enrolled and build_split read the table the cohort
    keeps for their feature set, so it is built once per (cohort, features)."""

    def test_a_cache_of_the_same_features_is_used(self, medium_synth):
        same = FeatureSetSpec.for_cohort(medium_synth)
        spec = ClassifierSpec(kind="gaussian_nb")
        grid = run_grid(medium_synth, [SplitApproach.B1], [spec], [Term(2012, 1)], feature_spec=same)
        assert grid.accuracy == run_grid(medium_synth, [SplitApproach.B1], [spec], [Term(2012, 1)]).accuracy
        result = predict_enrolled(medium_synth, spec, feature_spec=same)
        assert result == predict_enrolled(medium_synth, spec)

    def test_one_table_per_cohort_and_feature_set(self, monkeypatch):
        cohort = generate(GeneratorConfig(seed=11, range_start=Term(2009, 1), range_end=Term(2012, 2), intake_per_term=15)).cohort
        built = []  # (cohort, features) of each VectorTable.of call
        of = VectorTable.of

        def spy(c, features):
            built.append((c, features))
            return of(c, features)

        monkeypatch.setattr(VectorTable, "of", staticmethod(spy))
        default, spec, t = FeatureSetSpec.for_cohort(cohort), ClassifierSpec(kind="gaussian_nb"), Term(2011, 2)
        run_grid(cohort, list(SplitApproach), [spec], [Term(2011, 1), t])
        assert built == [(cohort, default)]
        predict_enrolled(cohort, spec)
        build_split(cohort, SplitRequest(SplitApproach.B4T, t), default)
        assert built == [(cohort, default)]
        courses_only = FeatureSetSpec(static_names=(), time_features=("courses_taken",))
        run_grid(cohort, [SplitApproach.B1], [spec], [t], feature_spec=courses_only)
        predict_enrolled(cohort, spec, feature_spec=courses_only)
        assert built == [(cohort, default), (cohort, courses_only)]
        cut = truncate_records(cohort, t)
        build_split(cut, SplitRequest(SplitApproach.B4T, t))
        assert vector_table(cut) is cut.vector_tables[default] is not vector_table(cohort)
        assert built == [(cohort, default), (cohort, courses_only), (cut, default)]

def make_grid(t_count, cells):
    """Build a grid directly from a {classifier: [acc or None, ...]} table."""
    t_values = list(iter_terms(Term(2012, 1), Term(2012 + (t_count - 1) // 2, 1 + (t_count - 1) % 2)))
    grid = EvaluationGrid(
        approaches=(SplitApproach.B4T,),
        classifiers=tuple(sorted(cells)),
        t_values=tuple(t_values),
        terms_per_year=2,
    )
    for name, series in cells.items():
        for t, value in zip(t_values, series):
            if value is not None:
                grid.accuracy[("B4T", name, t)] = value
    return grid


def brute_force_points(cells: dict[str, list[float | None]], names: list[str], mode: str = "pairs") -> dict[str, int]:
    """Direct enumeration of the consecutive-pair rule over a dense index. A
    classifier holds the pair (i, i + 1) when it is top at both; in "pairs"
    mode each pair held is a point, in "streaks" mode only one whose previous
    pair (i - 1, i) the classifier did not hold."""
    n = len(next(iter(cells.values())))
    held = {c: [False] * n for c in names}  # held[c][i]: c holds the pair (i, i + 1)
    for i in range(n - 1):
        if any(cells[c][i] is None or cells[c][i + 1] is None for c in names):
            continue
        top_a = {c for c in names if cells[c][i] == max(cells[x][i] for x in names)}
        top_b = {c for c in names if cells[c][i + 1] == max(cells[x][i + 1] for x in names)}
        for c in top_a & top_b:
            held[c][i] = True
    return {
        c: sum(1 for i in range(n) if held[c][i] and (mode == "pairs" or i == 0 or not held[c][i - 1]))
        for c in names
    }


def brute_force_winner(cells, names, mode="pairs"):
    points = brute_force_points(cells, names, mode)
    best = max(points.values())
    tied = [c for c in names if points[c] == best]
    if len(tied) == 1:
        return tied[0]

    def mean(c):
        vals = [v for v in cells[c] if v is not None]
        return sum(vals) / len(vals)

    return max(sorted(tied), key=mean)


class TestScorePoints:
    def test_streak_earns_pair_count(self):
        cells = {
            "a": [0.9, 0.9, 0.9, 0.9, 0.5],
            "b": [0.1, 0.1, 0.1, 0.1, 0.9],
        }
        grid = make_grid(5, cells)
        table = score_points(grid, SplitApproach.B4T)
        assert table.points == {"a": 3, "b": 0}
        assert table.winner == "a"
        assert table.runner_up == "b"
        assert not table.tiebreak_used

    def test_alternating_tops_score_zero_and_mean_breaks_tie(self):
        cells = {
            "a": [0.9, 0.1, 0.9, 0.1],
            "b": [0.2, 0.9, 0.2, 0.9],
        }
        grid = make_grid(4, cells)
        table = score_points(grid, SplitApproach.B4T)
        assert table.points == {"a": 0, "b": 0}
        assert table.winner == "b"  # b's period mean 0.55 beats a's 0.5
        assert table.tiebreak_used

    def test_inclusive_ties_both_gain(self):
        cells = {
            "a": [0.8, 0.8, 0.2],
            "b": [0.8, 0.8, 0.1],
            "c": [0.1, 0.1, 0.9],
        }
        grid = make_grid(3, cells)
        table = score_points(grid, SplitApproach.B4T)
        assert table.points["a"] == 1
        assert table.points["b"] == 1
        assert table.points["c"] == 0

    def test_skipped_cells_break_pairs(self):
        cells = {
            "a": [0.9, None, 0.9, 0.9],
            "b": [0.1, 0.5, 0.1, 0.1],
        }
        grid = make_grid(4, cells)
        table = score_points(grid, SplitApproach.B4T)
        # only the (t3, t4) pair is fully populated and adjacent
        assert table.points == {"a": 1, "b": 0}

    def test_points_bounded_by_terms_minus_one(self):
        cells = {"a": [0.9] * 6, "b": [0.1] * 6}
        grid = make_grid(6, cells)
        table = score_points(grid, SplitApproach.B4T)
        assert table.points["a"] == 5

    def test_winner_and_runner_up_distinct(self):
        cells = {"a": [0.9, 0.9], "b": [0.8, 0.8], "c": [0.7, 0.7]}
        table = score_points(make_grid(2, cells), SplitApproach.B4T)
        assert table.winner != table.runner_up

    def test_all_skipped_is_error(self):
        grid = make_grid(3, {"a": [None, None, None], "b": [None, None, None]})
        with pytest.raises(EvaluationError, match="skipped"):
            score_points(grid, SplitApproach.B4T)

    def test_streak_mode_counts_runs_once(self):
        cells = {
            "a": [0.9, 0.9, 0.9, 0.1, 0.9, 0.9],
            "b": [0.2] * 6,  # beats a at the dip, so a's top run really breaks
        }
        grid = make_grid(6, cells)
        pairs = score_points(grid, SplitApproach.B4T, mode="pairs")
        streaks = score_points(grid, SplitApproach.B4T, mode="streaks")
        assert pairs.points["a"] == 3  # runs of 3 and 2 -> 2 + 1 pairs
        assert streaks.points["a"] == 2  # two maximal runs
        assert pairs.points["b"] == 0 and streaks.points["b"] == 0

    def test_matches_brute_force_on_randomized_tables(self):
        rng = random.Random(77)
        names = ["m1", "m2", "m3"]
        for _ in range(50):
            n_terms = rng.randint(2, 7)
            cells = {
                c: [
                    rng.choice([None, 0.5, 0.6, 0.7, 0.8]) if rng.random() < 0.2 else rng.choice([0.5, 0.6, 0.7, 0.8])
                    for _ in range(n_terms)
                ]
                for c in names
            }
            if all(all(v is None for v in series) for series in cells.values()):
                continue
            grid = make_grid(n_terms, cells)
            for mode in POINT_MODES:
                try:
                    table = score_points(grid, SplitApproach.B4T, mode=mode)
                except EvaluationError:
                    continue
                assert table.points == brute_force_points(cells, names, mode)
                assert table.winner == brute_force_winner(cells, names, mode)


class TestPredictEnrolled:
    def test_accounting_identity(self, medium_synth):
        spec = ClassifierSpec(kind="gaussian_nb")
        result = predict_enrolled(medium_synth, spec, SplitApproach.B4T)
        horizon = medium_synth.range.hi
        assert len(result.predictions) + len(result.exclusions) == len(
            subset_enrolled(medium_synth, horizon)
        )
        predicted = {sid for sid, _ in result.predictions}
        excluded = {sid for sid, _ in result.exclusions}
        assert not predicted & excluded

    def test_fresh_entrants_are_excluded_with_reason(self, medium_synth):
        result = predict_enrolled(medium_synth, ClassifierSpec(kind="gaussian_nb"), SplitApproach.B4T)
        horizon = medium_synth.range.hi
        by_id = {s.student_id: s for s in medium_synth.students}
        for sid, reason in result.exclusions:
            s = by_id[sid]
            assert reason in ("starts_at_reference_term", "no_records_before_reference")
            assert not [row for row in rows(medium_synth, s) if row.term < horizon] or s.entrance == horizon

    def test_labels_are_binary(self, medium_synth):
        result = predict_enrolled(medium_synth, ClassifierSpec(kind="decision_tree", max_depth=6))
        assert {label for _, label in result.predictions} <= {0, 1}

    @pytest.mark.parametrize("approach", list(SplitApproach))
    def test_all_train_rules_work(self, medium_synth, approach):
        result = predict_enrolled(medium_synth, ClassifierSpec(kind="gaussian_nb"), approach)
        assert result.predictions
        # Training accounting: every exited student is a row or an exclusion.
        horizon = medium_synth.range.hi
        exited = subset_exited_before(medium_synth, horizon) + subset_exited_from(medium_synth, horizon)
        trained = {sid for sid, _ in result.train_rows}
        excluded = [e.student_id for e in result.train_exclusions]
        assert not trained & set(excluded)
        assert len(excluded) == len(set(excluded))
        assert trained | set(excluded) == {s.student_id for s in exited}
        # Exclusions follow the population: exited before the horizon, then at it.
        assert excluded == [s.student_id for s in exited if s.student_id not in trained]

    def test_deterministic(self, medium_synth):
        spec = ClassifierSpec(kind="extra_trees", n_trees=5, seed=3)
        a = predict_enrolled(medium_synth, spec, SplitApproach.B4T)
        b = predict_enrolled(medium_synth, spec, SplitApproach.B4T)
        assert a.predictions == b.predictions

    def test_matches_naive_vectors_at_the_horizon(self, medium_synth, monkeypatch):
        """The enrolled students' matrix is the naive reference vectors at the
        horizon, elapsed terms included, in cohort order, and the predictions
        are the model's on it; exclusions are the enrolled students without
        such a vector, in cohort order, with their reasons."""
        features = FeatureSetSpec(medium_synth.static_attr_names, CANONICAL_TIME_FEATURES + ("elapsed_terms",))
        clf = ClassifierSpec(kind="gaussian_nb")
        matrices = []
        monkeypatch.setattr(evaluation, "predict", lambda model, X: matrices.append(X) or predict(model, X))
        result = predict_enrolled(medium_synth, clf, SplitApproach.B4T, feature_spec=features)
        horizon = medium_synth.range.hi
        rows, exclusions = [], []
        for s in subset_enrolled(medium_synth, horizon):
            values = naive_values(medium_synth, s, horizon, features)
            if s.entrance >= horizon:
                exclusions.append((s.student_id, "starts_at_reference_term"))
            elif values is None:
                exclusions.append((s.student_id, "no_records_before_reference"))
            else:
                rows.append((s.student_id, values))
        assert rows and exclusions
        X = np.array([values for _, values in rows], dtype=np.float64)
        (got,) = matrices
        assert got.shape == X.shape and got.tobytes() == X.tobytes()
        tab = vector_table(medium_synth, features)
        exited = subset_exited_before(medium_synth, horizon) + subset_exited_from(medium_synth, horizon)
        si = np.array([tab.student_ids.index(s.student_id) for s in exited], dtype=np.int64)
        train = apply_rule(SplitApproach.B4T, "train", si, horizon, tab)
        labels = predict(fit(clf, train), X)
        assert result.predictions == [(sid, int(label)) for (sid, _), label in zip(rows, labels)]
        assert result.exclusions == exclusions

    def test_stage_order_and_elapsed_terms_on_a_small_cohort(self, monkeypatch):
        # "a" exits at the horizon and "b" long before it; both have one term
        # of history, so B4T cannot train on either. "f" stopped attending
        # four terms before the horizon, so its elapsed terms are the
        # horizon's, not its last row's.
        students = [
            ("a", (2014, 2), "dropout", (2014, 2), [(2014, 2, 3.0, 50.0, 0)]),
            ("b", (2012, 1), "dropout", (2012, 1), [(2012, 1, 2.0, 40.0, 0)]),
            ("c", (2012, 1), "graduated", (2013, 2), [(2012, 1, 8.0, 90.0, 1), (2013, 1, 7.0, 80.0, 1)]),
            ("d", (2012, 1), "dropout", (2013, 1), [(2012, 1, 3.0, 60.0, 0), (2012, 2, 2.0, 50.0, 0)]),
            ("e", (2013, 1), "enrolled", None, [(2013, 1, 6.0, 80.0, 1), (2014, 1, 7.0, 85.0, 1)]),
            ("f", (2012, 2), "enrolled", None, [(2012, 2, 5.0, 70.0, 1)]),
            ("g", (2014, 2), "enrolled", None, []),
            ("h", (2013, 2), "enrolled", None, []),
        ]
        cohort = build_cohort(students, TermRange(Term(2012, 1), Term(2014, 2)))
        features = FeatureSetSpec.for_cohort(cohort, CANONICAL_TIME_FEATURES + ("elapsed_terms",))
        matrices = []
        monkeypatch.setattr(evaluation, "predict", lambda model, X: matrices.append(X) or predict(model, X))
        result = predict_enrolled(cohort, ClassifierSpec(kind="gaussian_nb"), SplitApproach.B4T, features)
        assert [(e.student_id, e.reason) for e in result.train_exclusions] == [
            ("b", "single_term_history"),
            ("a", "single_term_history"),
        ]
        assert [sid for sid, _ in result.predictions] == ["e", "f"]
        assert result.exclusions == [("g", "starts_at_reference_term"), ("h", "no_records_before_reference")]
        (X,) = matrices
        expected = [naive_values(cohort, cohort.student(sid), Term(2014, 2), features) for sid in "ef"]
        assert X.tolist() == [list(values) for values in expected]
        assert X[1, -1] == 4.0


class TestRenderReport:
    def test_emits_expected_files(self, small_grid, tmp_path):
        tables = {a.value: score_points(small_grid, a) for a in APPROACHES}
        written = render_report(small_grid, tables, tmp_path, confusion_terms=[Term(2013, 1)])
        names = {p.name for p in written}
        for approach in APPROACHES:
            assert f"accuracy_{approach.value}.csv" in names
            assert f"points_{approach.value}.csv" in names
            assert f"chart_{approach.value}.svg" in names
        assert "setsizes.csv" in names
        b2t = tables["B2T"]
        assert f"confusion_B2T_{b2t.winner}_2013.1.csv" in names

    def test_accuracy_csv_roundtrip_bit_exact(self, small_grid, tmp_path):
        tables = {a.value: score_points(small_grid, a) for a in APPROACHES}
        render_report(small_grid, tables, tmp_path)
        for approach in APPROACHES:
            a = approach.value
            t_values, rows, mean_row = read_accuracy_csv(tmp_path / f"accuracy_{a}.csv")
            assert list(t_values) == list(small_grid.t_values)
            for c in small_grid.classifiers:
                for t, value in zip(t_values, rows[c][:-1]):
                    assert value == small_grid.cell(a, c, t)
                assert rows[c][-1] == small_grid.period_mean(a, c)
            for t, value in zip(t_values, mean_row[:-1]):
                assert value == small_grid.per_t_mean(a, t)
            assert mean_row[-1] == small_grid.block_mean(a)

    def test_table_shape_has_mean_row_and_column(self, small_grid, tmp_path):
        tables = {"A": score_points(small_grid, SplitApproach.A)}
        render_report(small_grid, tables, tmp_path)
        lines = (tmp_path / "accuracy_A.csv").read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header[0] == "classifier"
        assert header[-1] == "mean"
        assert lines[-1].startswith("mean,")
        assert len(lines) == 1 + len(small_grid.classifiers) + 1

    def test_svg_has_one_polyline_per_classifier(self, small_grid, tmp_path):
        render_report(small_grid, {}, tmp_path)
        for approach in APPROACHES:
            svg = (tmp_path / f"chart_{approach.value}.svg").read_text()
            assert svg.count("<polyline") == len(small_grid.classifiers)

    def test_setsizes_report_shape(self, small_grid, tmp_path):
        render_report(small_grid, {}, tmp_path)
        lines = (tmp_path / "setsizes.csv").read_text().strip().splitlines()
        assert lines[0].split(",")[0] == "set"
        assert lines[-1].startswith("enrolled,")
        labels = {line.split(",")[0] for line in lines[1:]}
        assert "A train" in labels and "B2T test" in labels

    def test_confusion_csv_contents(self, small_grid, tmp_path):
        tables = {"B1": score_points(small_grid, SplitApproach.B1)}
        t = Term(2013, 1)
        render_report(small_grid, tables, tmp_path, confusion_terms=[t])
        winner = tables["B1"].winner
        text = (tmp_path / f"confusion_B1_{winner}_2013.1.csv").read_text().strip().splitlines()
        matrix = small_grid.confusions[("B1", winner, t)]
        assert text[1] == f"true_dropout,{matrix[0, 0]},{matrix[0, 1]}"
        assert text[2] == f"true_graduated,{matrix[1, 0]},{matrix[1, 1]}"
