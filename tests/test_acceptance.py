"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. The heavyweight criteria share one session-scoped default cohort and
one evaluation grid, so the whole module stays inside its runtime budgets.
"""

from __future__ import annotations

import hashlib
import math
import random
import time
from pathlib import Path

import numpy as np
import pytest

from dropsplit.classifiers import ClassifierSpec, accuracy, fit, predict, predict_proba
from dropsplit.cli import main
from dropsplit.evaluation import (
    EvaluationGrid,
    predict_enrolled,
    run_grid,
    score_points,
)
from dropsplit.features import vector_table
from dropsplit.records import Cohort, EnrollmentStatus, truncate_records
from dropsplit.splits import SplitApproach, SplitRequest, build_split
from dropsplit.synthgen import GeneratorConfig, RegimeChange, generate
from dropsplit.terms import Term, iter_terms, term_distance, to_ordinal

from conftest import from_arrays, last, subset_enrolled, subset_exited_before, subset_exited_from

GRID_SPECS = [
    ClassifierSpec(kind="decision_tree", max_depth=12),
    ClassifierSpec(kind="extra_trees", n_trees=30, max_depth=12, seed=7),
    ClassifierSpec(kind="knn", k=5),
    ClassifierSpec(kind="gaussian_nb"),
]
WALK = list(iter_terms(Term(2012, 2), Term(2019, 1)))  # 14 reference terms


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def default_synth():
    return generate(GeneratorConfig())


@pytest.fixture(scope="module")
def default_cohort(default_synth) -> Cohort:
    return default_synth.cohort


@pytest.fixture(scope="module")
def default_grid(default_cohort):
    started = time.monotonic()
    grid = run_grid(default_cohort, list(SplitApproach), GRID_SPECS, WALK, split_seed=42)
    grid.elapsed_seconds = time.monotonic() - started
    return grid


def test_criterion_1_subset_oracle_equivalence():
    cfg = GeneratorConfig(seed=500, range_start=Term(2010, 1), range_end=Term(2015, 2), intake_per_term=42)
    cohort = generate(cfg).cohort
    assert len(cohort.students) == 504
    started = time.monotonic()
    tab = vector_table(cohort)
    positions = list(enumerate(cohort.students))
    mismatches = 0
    for t in iter_terms(cohort.range.lo, cohort.range.hi):
        o = to_ordinal(t, cohort.terms_per_year)
        before = [i for i, s in positions if s.exited and cohort.range.lo <= s.exit_term < t]
        onward = [i for i, s in positions if s.exited and t <= s.exit_term <= cohort.range.hi and s.entrance <= t]
        enrolled = [i for i, s in positions if not s.exited and s.entrance <= t]
        mismatches += tab.exited_before(o).tolist() != before
        mismatches += tab.exited_from(o).tolist() != onward
        mismatches += tab.enrolled(o).tolist() != enrolled
    elapsed = time.monotonic() - started
    report(
        1,
        mismatches == 0 and elapsed < 5.0,
        f"brute-force population equivalence of the vector table on {len(cohort.students)} students, "
        f"{mismatches} mismatches, {elapsed:.2f}s (< 5s)",
    )


def test_criterion_2_no_leakage_and_b2_leak(default_cohort):
    rng = random.Random(20120101)
    pairs_checked = 0
    for t in (Term(2013, 1), Term(2014, 2), Term(2016, 1), Term(2017, 2)):
        cut = truncate_records(default_cohort, t)
        for approach in (SplitApproach.B2T, SplitApproach.B3T, SplitApproach.B4T):
            _, test = build_split(default_cohort, SplitRequest(approach, t))
            _, cut_test = build_split(cut, SplitRequest(approach, t))
            assert test.rows == cut_test.rows
            assert np.array_equal(test.X, cut_test.X)
        # sample student rows from the shared truncated test set
        _, test = build_split(default_cohort, SplitRequest(SplitApproach.B2T, t))
        take = rng.sample(range(test.n), min(25, test.n))
        pairs_checked += len(take)
    assert pairs_checked >= 100

    # Converse: B2 test rows must change under the same truncation.
    t = Term(2014, 2)
    _, b2_test = build_split(default_cohort, SplitRequest(SplitApproach.B2, t))
    _, b2_cut_test = build_split(truncate_records(default_cohort, t), SplitRequest(SplitApproach.B2, t))
    by_id = {s.student_id: s for s in default_cohort.students}
    original = {sid: tuple(b2_test.X[i]) for i, (sid, _) in enumerate(b2_test.rows)}
    truncated = {sid: tuple(b2_cut_test.X[i]) for i, (sid, _) in enumerate(b2_cut_test.rows)}
    changed = [
        sid
        for sid in original.keys() & truncated.keys()
        if original[sid] != truncated[sid] and last(default_cohort, by_id[sid]) > t
    ]
    report(
        2,
        bool(changed),
        f"{pairs_checked} (student, T) test rows invariant under truncation for B2T/B3T/B4T; "
        f"{len(changed)} B2 rows changed (leak demonstrated)",
    )


def test_criterion_3_row_count_identities(default_cohort, default_grid):
    failures = []
    for t in WALK:
        included = [
            s for s in subset_exited_before(default_cohort, t) if last(default_cohort, s) > s.entrance
        ]
        b3t = default_grid.sizes[("B3T", t)]
        b4t = default_grid.sizes[("B4T", t)]
        if b4t.train_rows - b3t.train_rows != len(included):
            failures.append(f"B4T-B3T at {t}")
        closed_form = sum(term_distance(s.entrance, last(default_cohort, s)) for s in included)
        if b3t.train_rows != closed_form:
            failures.append(f"B3T closed form at {t}")
        a, b1 = default_grid.sizes[("A", t)], default_grid.sizes[("B1", t)]
        if (a.train_students, a.test_students) != (b1.train_students, b1.test_students):
            failures.append(f"A/B1 sizes at {t}")
    report(3, not failures, f"exact row-count identities over {len(WALK)} terms {failures or ''}")


def test_criterion_4_qualitative_table_ordering(default_grid):
    elapsed = default_grid.elapsed_seconds
    block = {a.value: default_grid.block_mean(a.value) * 100 for a in SplitApproach}
    chain_ok = (
        block["A"] >= block["B1"] + 1.0
        and block["B1"] >= block["B2"] + 1.0
        and block["B2"] >= block["B2T"] + 1.0
    )
    tail_ok = block["B4T"] >= block["B3T"] >= block["B2T"] - 0.5
    detail = (
        f"block means A={block['A']:.2f} B1={block['B1']:.2f} B2={block['B2']:.2f} "
        f"B2T={block['B2T']:.2f} B3T={block['B3T']:.2f} B4T={block['B4T']:.2f}, "
        f"grid {elapsed:.0f}s (< 300s)"
    )
    report(4, chain_ok and tail_ok and elapsed < 300, detail)


def brute_force_point_rule(cells, names):
    n = len(next(iter(cells.values())))
    points = {c: 0 for c in names}
    for i in range(n - 1):
        if any(cells[c][i] is None or cells[c][i + 1] is None for c in names):
            continue
        top_a = {c for c in names if cells[c][i] == max(cells[x][i] for x in names)}
        top_b = {c for c in names if cells[c][i + 1] == max(cells[x][i + 1] for x in names)}
        for c in top_a & top_b:
            points[c] += 1
    return points


def test_criterion_5_point_system_oracle():
    rng = random.Random(555)
    names = ["m1", "m2", "m3"]
    tables = 0
    while tables < 50:
        n_terms = rng.randint(2, 8)
        cells = {
            c: [
                None if rng.random() < 0.15 else rng.choice([0.5, 0.6, 0.6, 0.7, 0.8])
                for _ in range(n_terms)
            ]
            for c in names
        }
        populated = [
            i for i in range(n_terms) if any(cells[c][i] is not None for c in names)
        ]
        if len(populated) < 2:
            continue
        grid = EvaluationGrid(
            approaches=(SplitApproach.B4T,),
            classifiers=tuple(names),
            t_values=tuple(iter_terms(Term(2000, 1), Term(2000 + (n_terms - 1) // 2, 1 + (n_terms - 1) % 2))),
            terms_per_year=2,
        )
        for c, series in cells.items():
            for t, v in zip(grid.t_values, series):
                if v is not None:
                    grid.accuracy[("B4T", c, t)] = v
        table = score_points(grid, SplitApproach.B4T)
        assert table.points == brute_force_point_rule(cells, names)
        tables += 1
    report(5, True, f"score_points matched the brute-force enumerator on {tables} random tables")


def test_criterion_6_classifier_sanity():
    X_xor = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    y_xor = np.array([0, 1, 1, 0])
    tree = fit(ClassifierSpec(kind="decision_tree", max_depth=2), from_arrays(X_xor, y_xor))
    xor_ok = np.array_equal(predict(tree, X_xor), y_xor)

    rng = np.random.default_rng(640)
    n = 400
    X = np.vstack(
        [rng.normal((0, 0), 1.0, size=(n // 2, 2)), rng.normal((4, 4), 1.0, size=(n // 2, 2))]
    )
    y = np.array([0] * (n // 2) + [1] * (n // 2))
    blob_accs = {}
    for spec in GRID_SPECS:
        model = fit(spec, from_arrays(X, y))
        blob_accs[spec.label] = accuracy(y, predict(model, X))
    blobs_ok = all(v >= 0.95 for v in blob_accs.values())

    Xg = np.array([[1.0], [2.0], [6.0], [7.0]])
    yg = np.array([0, 0, 1, 1])
    floor = 1e-9
    model = fit(ClassifierSpec(kind="gaussian_nb", variance_floor=floor), from_arrays(Xg, yg))
    mu, sd = Xg.mean(), Xg.std()
    z = (Xg[:, 0] - mu) / sd
    stats = {0: (z[:2].mean(), max(z[:2].var(), floor)), 1: (z[2:].mean(), max(z[2:].var(), floor))}

    def manual_posterior(zq):
        logs = {}
        for cls, (m, v) in stats.items():
            logs[cls] = math.log(0.5) - 0.5 * (math.log(2 * math.pi * v) + (zq - m) ** 2 / v)
        top = max(logs.values())
        e = {cls: math.exp(val - top) for cls, val in logs.items()}
        return e[1] / (e[0] + e[1])

    queries = np.array([[1.4], [3.2], [4.9], [6.6]])
    got = predict_proba(model, queries)
    nb_err = max(abs(p - manual_posterior((q - mu) / sd)) for q, p in zip(queries[:, 0], got))
    nb_ok = nb_err < 1e-9

    report(
        6,
        xor_ok and blobs_ok and nb_ok,
        f"XOR {'4/4' if xor_ok else 'failed'}; blobs {min(blob_accs.values()):.3f} min accuracy; "
        f"NB posterior max err {nb_err:.2e}",
    )


def test_criterion_7_regime_change_dip(default_grid):
    change = Term(2016, 1)
    walk = list(iter_terms(Term(2015, 1), Term(2018, 2)))
    # The unshifted grid is default_grid's B4T cells: the same cohort, specs
    # and split seed, and a cell does not depend on the others of its walk.
    assert GeneratorConfig().seed == 42 and set(walk) <= set(WALK)
    shifted = generate(
        GeneratorConfig(seed=42, regime_change=RegimeChange(term=change, hazard_shift=1.2))
    ).cohort
    g_shift = run_grid(shifted, [SplitApproach.B4T], GRID_SPECS, walk, split_seed=42)
    drops = {
        t: (default_grid.per_t_mean("B4T", t) - g_shift.per_t_mean("B4T", t)) * 100
        for t in walk
        if t >= change
    }
    worst = max(drops.values())
    report(
        7,
        worst >= 2.0,
        f"post-change mean-over-methods dip up to {worst:.1f} points "
        f"({sum(1 for v in drops.values() if v >= 2.0)}/{len(drops)} post-change terms >= 2)",
    )


def _digest_tree(root: Path) -> dict[str, str]:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_criterion_8_pipeline_determinism(tmp_path):
    gen_cfg = tmp_path / "gen.cfg"
    gen_cfg.write_text(
        "seed=99\nrange_start=2009.1\nrange_end=2013.2\nintake_per_term=25\n",
        encoding="utf-8",
    )
    run_cfg = tmp_path / "run.cfg"
    run_cfg.write_text(
        "generator_config=gen.cfg\nterms_per_year=2\nt_start=2011.2\nt_end=2013.2\n"
        "approaches=A,B1,B2,B2T,B3T,B4T\nclassifiers=decision_tree,gaussian_nb\n"
        "decision_tree.max_depth=8\nsplit_seed=5\nconfusion_terms=2012.2\nfinal_approach=B4T\n",
        encoding="utf-8",
    )
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert main(["evaluate", "--config", str(run_cfg), "--out", str(out1)]) == 0
    assert main(["evaluate", "--config", str(run_cfg), "--out", str(out2)]) == 0
    d1, d2 = _digest_tree(out1), _digest_tree(out2)
    report(
        8,
        d1 == d2 and len(d1) > 5,
        f"two pipeline runs produced byte-identical directories ({len(d1)} files)",
    )


def test_criterion_9_enrolled_prediction(default_synth, default_cohort, default_grid):
    table = score_points(default_grid, SplitApproach.B4T)
    winner = next(s for s in GRID_SPECS if s.label == table.winner)
    result = predict_enrolled(default_cohort, winner, SplitApproach.B4T)
    horizon = default_cohort.range.hi
    n_enrolled = len(subset_enrolled(default_cohort, horizon))
    exited = subset_exited_before(default_cohort, horizon) + subset_exited_from(default_cohort, horizon)
    n_trained = len({sid for sid, _ in result.train_rows})
    accounting_ok = (
        len(result.predictions) + len(result.exclusions) == n_enrolled
        and n_trained + len(result.train_exclusions) == len(exited)
    )

    truth = default_synth.truth
    pairs = [
        (pred, 0 if truth[sid].status is EnrollmentStatus.DROPOUT else 1)
        for sid, pred in result.predictions
        if sid in truth
    ]
    acc = sum(1 for p, t in pairs if p == t) / len(pairs)
    trues = [t for _, t in pairs]
    majority = max(sum(trues), len(trues) - sum(trues)) / len(trues)
    report(
        9,
        accounting_ok and acc >= majority + 0.05,
        f"predictions {len(result.predictions)} + exclusions {len(result.exclusions)} = {n_enrolled}; "
        f"training students {n_trained} + exclusions {len(result.train_exclusions)} = {len(exited)} exited; "
        f"winner {table.winner} sealed-truth accuracy {acc:.3f} vs majority {majority:.3f}",
    )
