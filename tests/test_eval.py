"""Scoring against brute-force oracles, baselines, stability studies."""

import json
import os
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _util import blas_threads, make_dataset
from memesent import cli
from memesent.corpus import Sentiment
from memesent.errors import TrainingError
from memesent.eval import (
    compare_report,
    macro_f1,
    parallel_map,
    stability_study,
)


def brute_force_macro_f1(preds, golds):
    """Direct per-class computation, no confusion matrix."""
    f1s = []
    for c in range(3):
        tp = sum(1 for p, g in zip(preds, golds) if p == c and g == c)
        fp = sum(1 for p, g in zip(preds, golds) if p == c and g != c)
        fn = sum(1 for p, g in zip(preds, golds) if p != c and g == c)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1s.append(
            2 * precision * recall / (precision + recall)
            if precision + recall
            else 0.0
        )
    return sum(f1s) / 3.0


class TestMacroF1:
    def test_perfect_predictions(self):
        assert macro_f1([0, 1, 2, 1, 0], [0, 1, 2, 1, 0]).macro_f1 == 1.0

    def test_all_positive_on_task_distribution(self):
        golds = [2] * 4160 + [1] * 2201 + [0] * 631
        preds = [2] * len(golds)
        rep = macro_f1(preds, golds)
        assert abs(rep.macro_f1 - 0.2487) < 1e-4
        # exact rational value of the same quantity
        f1_pos = Fraction(2 * 4160, 6992) / (1 + Fraction(4160, 6992))
        assert abs(rep.macro_f1 - float(f1_pos / 3)) < 1e-12

    def test_two_routes_agree_on_random_cases(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            preds = rng.integers(0, 3, size=100)
            golds = rng.integers(0, 3, size=100)
            via_matrix = macro_f1(preds, golds).macro_f1
            direct = brute_force_macro_f1(preds.tolist(), golds.tolist())
            assert abs(via_matrix - direct) < 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            macro_f1([0, 1, 2, 0, 1], [0, 1, 2, 0])

    def test_empty_input(self):
        with pytest.raises(ValueError):
            macro_f1([], [])

    def test_metadata_carried(self):
        rep = macro_f1([0], [0], seed=9, config_hash="abc123")
        assert rep.meta["seed"] == 9
        assert rep.meta["config_hash"] == "abc123"
        again = macro_f1([0], [0], seed=9, config_hash="abc123")
        assert cli._json(rep.to_dict()) == cli._json(again.to_dict())

    def test_report_json_reparses(self):
        rep = macro_f1([0, 1, 2], [0, 2, 2])
        data = json.loads(cli._json(rep.to_dict()))
        assert data["macro_f1"] == rep.macro_f1
        assert data["confusion"] == rep.confusion.tolist()

    @given(
        st.lists(st.integers(0, 2), min_size=1, max_size=60),
        st.permutations([0, 1, 2]),
    )
    @settings(max_examples=150, deadline=None)
    def test_relabeling_invariance(self, golds, perm):
        rng = np.random.default_rng(len(golds))
        preds = rng.integers(0, 3, size=len(golds)).tolist()
        base = macro_f1(preds, golds).macro_f1
        relabeled = macro_f1([perm[p] for p in preds], [perm[g] for g in golds])
        assert abs(relabeled.macro_f1 - base) < 1e-12

    @given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                    min_size=1, max_size=60))
    @settings(max_examples=150, deadline=None)
    def test_bounds_and_diagonal_condition(self, pairs):
        preds = [p for p, _ in pairs]
        golds = [g for _, g in pairs]
        rep = macro_f1(preds, golds)
        assert 0.0 <= rep.macro_f1 <= 1.0
        # a perfect score needs a diagonal matrix with every class present:
        # an absent class contributes F1 = 0 under the 0/0 -> 0 convention
        all_correct = all(p == g for p, g in pairs)
        full = {g for _, g in pairs} == {0, 1, 2}
        assert (rep.macro_f1 == 1.0) == (all_correct and full)


class TestConfusionMatrix:
    def test_total_equals_scored_examples(self):
        counts = macro_f1([0, 1, 2, 1], [2, 1, 2, 0]).confusion
        assert counts.sum() == 4
        assert counts[2, 0] == 1  # gold positive predicted negative

    def test_rows_are_gold(self):
        counts = macro_f1([1], [0]).confusion
        assert counts[0, 1] == 1


class TestStability:
    DATASET = make_dataset(
        {Sentiment.NEGATIVE: 10, Sentiment.NEUTRAL: 10, Sentiment.POSITIVE: 10}
    )

    def test_constant_scorer_zero_variance(self):
        def train_fn(train_ds, val_ds, seed):
            return [1] * len(val_ds.records)

        report = stability_study(train_fn, self.DATASET, n_runs=6, seed0=0)
        assert report.variance == 0.0
        assert report.sample_variance == 0.0
        assert report.n_runs == 6

    def test_seeds_are_consecutive(self):
        def train_fn(train_ds, val_ds, seed):
            return [0] * len(val_ds.records)

        report = stability_study(train_fn, self.DATASET, n_runs=4, seed0=10)
        assert report.seeds == (10, 11, 12, 13)

    def test_deterministic_given_seed0(self):
        def train_fn(train_ds, val_ds, seed):
            rng = np.random.default_rng(seed)
            return rng.integers(0, 3, size=len(val_ds.records))

        a = stability_study(train_fn, self.DATASET, n_runs=5, seed0=2)
        b = stability_study(train_fn, self.DATASET, n_runs=5, seed0=2)
        assert a.scores == b.scores

    def test_statistics_match_recomputation(self):
        def train_fn(train_ds, val_ds, seed):
            rng = np.random.default_rng(seed)
            return rng.integers(0, 3, size=len(val_ds.records))

        report = stability_study(train_fn, self.DATASET, n_runs=8, seed0=0)
        arr = np.asarray(report.scores)
        assert abs(report.mean - arr.mean()) < 1e-12
        assert abs(report.variance - ((arr - arr.mean()) ** 2).mean()) < 1e-12
        assert report.max == arr.max()
        assert min(report.scores) <= report.mean <= report.max

    def test_resplit_changes_validation_sets(self):
        seen = []

        def train_fn(train_ds, val_ds, seed):
            seen.append(tuple(r.id for r in val_ds.records))
            return [0] * len(val_ds.records)

        stability_study(train_fn, self.DATASET, n_runs=3, seed0=0)
        assert len(set(seen)) > 1
        seen.clear()
        stability_study(train_fn, self.DATASET, n_runs=3, seed0=0, resplit=False)
        assert len(set(seen)) == 1

    def test_failing_run_reports_seed(self):
        def train_fn(train_ds, val_ds, seed):
            if seed == 7:
                raise RuntimeError("boom")
            return [0] * len(val_ds.records)

        with pytest.raises(TrainingError, match="seed 7"):
            stability_study(train_fn, self.DATASET, n_runs=5, seed0=5)

    def test_too_few_runs(self):
        with pytest.raises(ValueError):
            stability_study(lambda *a: [], self.DATASET, n_runs=1)


class TestParallelStability:
    DATASET = TestStability.DATASET

    @staticmethod
    def random_preds(train_ds, val_ds, seed):
        rng = np.random.default_rng(seed)
        return rng.integers(0, 3, size=len(val_ds.records))

    def test_workers_give_the_serial_report(self):
        serial = stability_study(self.random_preds, self.DATASET, n_runs=5, seed0=3)
        parallel = stability_study(self.random_preds, self.DATASET, n_runs=5,
                                   seed0=3, workers=2)
        assert parallel == serial
        assert cli._json(parallel.to_dict()) == cli._json(serial.to_dict())

    def test_forked_workers_see_one_blas_thread(self):
        if not blas_threads():
            pytest.skip("no OpenBLAS to pin")
        pinned, undo = cli._pin_blas()  # as the CLI does before a study

        def train_fn(train_ds, val_ds, seed):
            if blas_threads() != [1]:
                raise RuntimeError(f"BLAS threads in worker: {blas_threads()}")
            return self.random_preds(train_ds, val_ds, seed)

        try:
            assert pinned
            report = stability_study(train_fn, self.DATASET, n_runs=4, workers=2)
        finally:
            for setter, count in undo:  # as the CLI does when it returns
                setter(count)
        assert report == stability_study(self.random_preds, self.DATASET, n_runs=4)

    def test_closure_state_reaches_workers(self):
        offset = {"value": 1}  # read in the forked worker, never pickled

        def train_fn(train_ds, val_ds, seed):
            return [(seed + offset["value"]) % 3] * len(val_ds.records)

        report = stability_study(train_fn, self.DATASET, n_runs=3, workers=2)
        assert report == stability_study(train_fn, self.DATASET, n_runs=3)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_progress_in_seed_order(self, workers):
        calls = []
        report = stability_study(
            self.random_preds, self.DATASET, n_runs=4, seed0=6, workers=workers,
            progress=lambda seed, score, seconds: calls.append((seed, score, seconds)),
        )
        assert [c[0] for c in calls] == [6, 7, 8, 9]
        assert tuple(c[1] for c in calls) == report.scores
        assert all(c[2] >= 0.0 for c in calls)

    def test_failing_run_reports_seed_in_workers(self):
        def train_fn(train_ds, val_ds, seed):
            if seed in (7, 8):
                raise RuntimeError("boom")
            return [0] * len(val_ds.records)

        with pytest.raises(TrainingError, match="seed 7 failed: boom"):
            stability_study(train_fn, self.DATASET, n_runs=5, seed0=5, workers=2)

    def test_failure_cancels_seeds_not_started(self, tmp_path):
        def train_fn(train_ds, val_ds, seed):
            (tmp_path / f"seed{seed}").touch()
            if seed == 0:
                raise RuntimeError("boom")
            time.sleep(0.2)
            return [0] * len(val_ds.records)

        with pytest.raises(TrainingError, match="seed 0"):
            stability_study(train_fn, self.DATASET, n_runs=12, workers=2)
        # seed 0 fails at once; only the seeds already handed to the two
        # workers (one running, a few queued) run after it
        assert len(list(tmp_path.iterdir())) <= 6

    def test_dying_worker_reports_seed(self):
        def train_fn(train_ds, val_ds, seed):
            if seed == 6:
                os._exit(3)
            return [0] * len(val_ds.records)

        with pytest.raises(TrainingError, match=r"worker process died while running seed .*\b6\b"):
            stability_study(train_fn, self.DATASET, n_runs=5, seed0=5, workers=2)

    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError, match="workers"):
            stability_study(self.random_preds, self.DATASET, n_runs=2, workers=0)


class TestParallelMap:
    def test_map_inside_a_worker_runs_serially(self):
        def outer(item):  # returns its worker's pid and the pids its own map ran in
            return os.getpid(), parallel_map(lambda _: os.getpid(), range(3), workers=2)

        results = parallel_map(outer, range(2), workers=2)
        assert all(inner == [pid] * 3 for pid, inner in results)
        assert os.getpid() not in {pid for pid, _ in results}


class TestCompare:
    ENTRIES = [
        ("FFNN(W2V)", "text", 0.35),
        ("BERT", "text", 0.33),
        ("NB", "text", 0.32),
        ("MMBT", "text+image", 0.30),
        ("FFNN+CNN", "text+image", 0.29),
        ("baseline", "-", 0.22),
    ]

    def compare(self, tmp_path):
        """``memesent compare`` of one report per entry; its out directory."""
        args = []
        for i, (model, modality, score) in enumerate(self.ENTRIES):
            report = tmp_path / f"r{i}.json"
            report.write_text(json.dumps({"macro_f1": score}))
            args.append(f"{model}={modality}={report}")
        assert cli.main(["compare", *args, "--out", str(tmp_path / "cmp")]) == 0
        return tmp_path / "cmp"

    def test_sorted_by_score(self):
        rows = compare_report(self.ENTRIES)
        assert [model for _, model, _ in rows] == [
            "FFNN(W2V)", "BERT", "NB", "MMBT", "FFNN+CNN", "baseline",
        ]

    def test_single_entry(self):
        rows = compare_report([("only", "text", 0.4)])
        assert len(rows) == 1

    def test_json_round_trip(self, tmp_path):
        data = json.loads((self.compare(tmp_path) / "comparison.json").read_text())
        assert [r["model"] for r in data["rows"]] == [
            model for _, model, _ in compare_report(self.ENTRIES)
        ]
        assert data["rows"][0]["macro_f1"] == 0.35

    def test_text_is_aligned(self, tmp_path):
        text = (self.compare(tmp_path) / "comparison.txt").read_text()
        lines = text.splitlines()
        assert lines[0].startswith("modality")
        assert "0.3500" in lines[1]
        assert len(lines) == 7

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            compare_report([])
