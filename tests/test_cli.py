"""Command-line workflow: prepare -> train -> predict -> evaluate -> compare."""

import csv
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from _util import synthetic_corpus
from memesent import cli
from memesent.cli import main
from memesent.corpus import load_dataset, save_dataset
from memesent.embeddings import write_word2vec_binary
from memesent.eval import macro_f1
from memesent.textprep import PrepConfig


@pytest.fixture()
def workspace(tmp_path):
    """Canonical dataset CSV plus a binary embedding table."""
    ds, table = synthetic_corpus(n=60)
    data = tmp_path / "data.csv"
    save_dataset(ds, data)
    emb = tmp_path / "vectors.bin"
    write_word2vec_binary(table, emb)
    return {"dir": tmp_path, "data": data, "emb": emb, "ds": ds}


def run(*argv):
    return main([str(a) for a in argv])


class TestPrepare:
    def test_reports_stats(self, workspace, capsys):
        out = workspace["dir"] / "prep"
        assert run("prepare", "--dataset", workspace["data"], "--out", out) == 0
        stdout = capsys.readouterr().out
        assert "records: 60" in stdout
        assert (out / "dataset.csv").is_file()
        assert (out / "prepare_report.json").is_file()
        assert (out / "config.ini").is_file()

    def test_idempotent_on_canonical_output(self, workspace, capsys):
        out1 = workspace["dir"] / "p1"
        out2 = workspace["dir"] / "p2"
        assert run("prepare", "--dataset", workspace["data"], "--out", out1) == 0
        first = capsys.readouterr().out
        assert run("prepare", "--dataset", out1 / "dataset.csv", "--out", out2) == 0
        second = capsys.readouterr().out
        assert first == second
        assert (out1 / "dataset.csv").read_bytes() == (
            out2 / "dataset.csv"
        ).read_bytes()
        assert (out1 / "prepare_report.json").read_text() == (
            out2 / "prepare_report.json"
        ).read_text()

    def test_empty_file_exit_2(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        assert run("prepare", "--dataset", empty, "--out", tmp_path / "o") == 2
        assert "error:" in capsys.readouterr().err

    def test_schema_mapping(self, tmp_path, capsys):
        raw = tmp_path / "raw.csv"
        raw.write_text(
            "image_name,text_corrected,overall_sentiment\n"
            "a.jpg,some caption,positive\n"
            "b.jpg,other caption,very negative\n"
        )
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(
            "[data]\n"
            "schema = id=image_name,caption=text_corrected,"
            "label=overall_sentiment\n"
        )
        out = tmp_path / "prep"
        assert run("prepare", "--config", cfg, "--dataset", raw, "--out", out) == 0
        back = load_dataset(out / "dataset.csv")
        assert [r.id for r in back.records] == ["a.jpg", "b.jpg"]
        assert [int(r.label) for r in back.records] == [2, 0]


class TestTrain:
    def test_nb_train_and_rerun_byte_identical(self, workspace):
        out1 = workspace["dir"] / "t1"
        out2 = workspace["dir"] / "t2"
        for out in (out1, out2):
            assert run(
                "train", "--model", "nb", "--dataset", workspace["data"],
                "--out", out,
            ) == 0
        assert (out1 / "model.bin").read_bytes() == (out2 / "model.bin").read_bytes()
        report = json.loads((out1 / "train_report.json").read_text())
        assert report["kind"] == "nb"
        assert report["epoch_losses"] == []

    def test_w2v_train_writes_losses(self, workspace):
        out = workspace["dir"] / "w2v"
        assert run(
            "train", "--model", "ffnn_w2v", "--dataset", workspace["data"],
            "--embeddings", workspace["emb"], "--out", out,
        ) == 0
        report = json.loads((out / "train_report.json").read_text())
        assert len(report["epoch_losses"]) == 10
        assert report["embedding_coverage"]["n_all_oov"] == 0

    def test_w2v_needs_embeddings(self, workspace, capsys):
        rc = run(
            "train", "--model", "ffnn_w2v", "--dataset", workspace["data"],
            "--out", workspace["dir"] / "x",
        )
        assert rc == 2
        assert "embeddings" in capsys.readouterr().err

    def test_unknown_kind_exit_2(self, workspace):
        assert run(
            "train", "--model", "svm", "--dataset", workspace["data"],
            "--out", workspace["dir"] / "x",
        ) == 2

    def test_seed_changes_model(self, workspace):
        outs = []
        for seed in (0, 1):
            out = workspace["dir"] / f"seed{seed}"
            assert run(
                "train", "--model", "ffnn_bow", "--dataset", workspace["data"],
                "--seed", seed, "--out", out,
            ) == 0
            outs.append((out / "model.bin").read_bytes())
        assert outs[0] != outs[1]


class TestPredictEvaluate:
    def train_nb(self, workspace):
        out = workspace["dir"] / "model"
        assert run(
            "train", "--model", "nb", "--dataset", workspace["data"], "--out", out,
        ) == 0
        return out / "model.bin"

    def test_predictions_csv_shape(self, workspace):
        model = self.train_nb(workspace)
        out = workspace["dir"] / "pred"
        assert run(
            "predict", "--model", model, "--dataset", workspace["data"],
            "--out", out,
        ) == 0
        with open(out / "predictions.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 60
        for row in rows:
            assert row["label"] in ("negative", "neutral", "positive")
            probs = [float(row[k]) for k in ("p_neg", "p_neu", "p_pos")]
            assert abs(sum(probs) - 1.0) < 1e-6

    def test_predict_reruns_byte_identical(self, workspace):
        model = self.train_nb(workspace)
        outs = []
        for name in ("pa", "pb"):
            out = workspace["dir"] / name
            assert run(
                "predict", "--model", model, "--dataset", workspace["data"],
                "--out", out,
            ) == 0
            outs.append((out / "predictions.csv").read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("kind", ["nb", "ffnn_w2v"])
    def test_model_file_read_once(self, workspace, monkeypatch, kind):
        model = workspace["dir"] / "model"
        flags = ["--embeddings", workspace["emb"]] if kind == "ffnn_w2v" else []
        assert run("train", "--model", kind, "--dataset", workspace["data"],
                   *flags, "--out", model) == 0
        reads = []
        original = Path.read_bytes

        def counting(self):
            if self.name == "model.bin":
                reads.append(self)
            return original(self)

        monkeypatch.setattr(Path, "read_bytes", counting)
        assert run("predict", "--model", model / "model.bin", "--dataset",
                   workspace["data"], *flags, "--out", workspace["dir"] / "p") == 0
        assert len(reads) == 1

    def test_unlabeled_input_accepted(self, workspace):
        model = self.train_nb(workspace)
        unlabeled = workspace["dir"] / "unlabeled.csv"
        unlabeled.write_text("id,caption\nu1,alpha bravo\nu2,golf hotel\n")
        out = workspace["dir"] / "pred_u"
        assert run(
            "predict", "--model", model, "--dataset", unlabeled, "--out", out,
        ) == 0
        with open(out / "predictions.csv", newline="") as fh:
            assert len(list(csv.DictReader(fh))) == 2

    def test_predict_requires_model_flag(self, workspace):
        assert run(
            "predict", "--dataset", workspace["data"],
            "--out", workspace["dir"] / "x",
        ) == 2

    def test_evaluate_matches_inprocess_scoring(self, workspace, capsys):
        model = self.train_nb(workspace)
        pred_out = workspace["dir"] / "pred"
        assert run(
            "predict", "--model", model, "--dataset", workspace["data"],
            "--out", pred_out,
        ) == 0
        eval_out = workspace["dir"] / "eval"
        assert run(
            "evaluate", pred_out / "predictions.csv",
            "--dataset", workspace["data"], "--out", eval_out,
        ) == 0
        report = json.loads((eval_out / "eval_report.json").read_text())

        label_to_int = {"negative": 0, "neutral": 1, "positive": 2}
        with open(pred_out / "predictions.csv", newline="") as fh:
            preds_by_id = {
                row["id"]: label_to_int[row["label"]]
                for row in csv.DictReader(fh)
            }
        ds = workspace["ds"]
        preds = [preds_by_id[r.id] for r in ds.records]
        golds = [int(r.label) for r in ds.records]
        expected = macro_f1(preds, golds).macro_f1
        assert abs(report["macro_f1"] - expected) < 1e-12

    def test_evaluate_id_mismatch_exit_2(self, workspace, capsys):
        preds = workspace["dir"] / "preds.csv"
        preds.write_text("id,label\nnot_a_real_id,positive\n")
        assert run(
            "evaluate", preds, "--dataset", workspace["data"],
            "--out", workspace["dir"] / "x",
        ) == 2
        assert "ids do not match" in capsys.readouterr().err


def _truncated_dims(path):
    from memesent.persist import save_container

    save_container(path, {"kind": "naive-bayes"}, {"x": np.zeros((2, 3))})
    blob = path.read_bytes()[:-32]
    blob = blob[: blob.index(b"x") + 1 + 2 + 8 + 4]  # mid second dim
    path.write_bytes(blob + hashlib.sha256(blob).digest())


def _container(header, arrays):
    from memesent.persist import save_container

    return lambda path: save_container(path, header, arrays)


_PREP = PrepConfig().to_dict()
MALFORMED_MODELS = {
    "header_is_a_list": _container(["naive-bayes"], {}),
    "truncated_dims": _truncated_dims,
    "missing_spec": _container({"kind": "ffnn-bow", "prep": _PREP, "vocab": []}, {}),
    "missing_class_log_prior": _container(
        {"kind": "naive-bayes", "alpha": 1.0, "vocabulary": []},
        {"token_log_likelihood": np.zeros((3, 0))},
    ),
    "missing_text": _container(
        {"kind": "fusion-bimodal", "image": {"kind": "cnn-hsv"}}, {}
    ),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_MODELS))
def test_malformed_model_file_exit_2(workspace, capsys, name):
    path = workspace["dir"] / f"{name}.bin"
    MALFORMED_MODELS[name](path)
    rc = run("predict", "--model", path, "--dataset", workspace["data"],
             "--out", workspace["dir"] / "p")
    err = capsys.readouterr().err
    assert rc == 2, err
    assert err.startswith("error: ") and f"{name}.bin" in err


class TestStability:
    def test_nb_study_outputs(self, workspace, capsys):
        out = workspace["dir"] / "stab"
        assert run(
            "stability", "--model", "nb", "--dataset", workspace["data"],
            "--runs", 3, "--out", out,
        ) == 0
        report = json.loads((out / "stability.json").read_text())
        assert report["n_runs"] == 3
        with open(out / "stability_runs.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [int(r["seed"]) for r in rows] == [0, 1, 2]
        assert [float(r["macro_f1"]) for r in rows] == report["scores"]

    def test_rerun_byte_identical(self, workspace):
        blobs = []
        for name in ("sa", "sb"):
            out = workspace["dir"] / name
            assert run(
                "stability", "--model", "nb", "--dataset", workspace["data"],
                "--runs", 3, "--out", out,
            ) == 0
            blobs.append(
                (out / "stability.json").read_bytes()
                + (out / "stability_runs.csv").read_bytes()
            )
        assert blobs[0] == blobs[1]

    def test_progress_line_per_seed(self, workspace, capsys):
        assert run(
            "stability", "--model", "nb", "--dataset", workspace["data"],
            "--runs", 3, "--seed", 4, "--out", workspace["dir"] / "sp",
        ) == 0
        pattern = re.compile(r"seed (\d+): macro-F1 (\d\.\d{4}) \(\d+\.\d s\)")
        lines = [pattern.fullmatch(ln) for ln in capsys.readouterr().err.splitlines()
                 if ln.startswith("seed ")]
        report = json.loads((workspace["dir"] / "sp" / "stability.json").read_text())
        assert all(lines)
        assert [int(m[1]) for m in lines] == report["seeds"] == [4, 5, 6]
        assert [m[2] for m in lines] == [f"{s:.4f}" for s in report["scores"]]

    def test_w2v_bytes_equal_at_one_and_two_workers(self, workspace, monkeypatch):
        config = workspace["dir"] / "short.ini"
        config.write_text("[train]\nepochs = 2\n", encoding="utf-8")
        blobs = []
        for workers in (1, 2):
            monkeypatch.setattr(cli, "_workers_here", lambda runs, w=workers: w)
            out = workspace["dir"] / f"w{workers}"
            assert run(
                "stability", "--config", config, "--model", "ffnn_w2v",
                "--dataset", workspace["data"], "--embeddings", workspace["emb"],
                "--runs", 3, "--out", out,
            ) == 0
            blobs.append([(out / name).read_bytes()
                          for name in ("stability.json", "stability_runs.csv")])
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize("cpus, env, can_fork, runs, expected", [
        (2, {}, True, 50, 1),  # BLAS defaults to one thread per CPU
        (2, {"OPENBLAS_NUM_THREADS": "1"}, True, 50, 2),
        (2, {"OMP_NUM_THREADS": "1"}, True, 50, 2),
        (2, {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, True, 50, 1),
        (8, {"OPENBLAS_NUM_THREADS": "2"}, True, 50, 4),
        (8, {"OPENBLAS_NUM_THREADS": "1"}, True, 3, 3),  # never more than runs
        (4, {"OPENBLAS_NUM_THREADS": "8"}, True, 50, 1),
        (4, {"OPENBLAS_NUM_THREADS": "x", "OMP_NUM_THREADS": "1"}, True, 50, 4),
        (4, {"OPENBLAS_NUM_THREADS": "0"}, True, 50, 1),  # 0 means BLAS's default
        (1, {"OPENBLAS_NUM_THREADS": "1"}, True, 50, 1),
        (2, {"OPENBLAS_NUM_THREADS": "1"}, False, 50, 1),  # no fork, serial
    ])
    def test_worker_count_rule(self, cpus, env, can_fork, runs, expected):
        assert cli._stability_workers(runs, cpus, env, can_fork) == expected

    def test_dying_worker_exit_1(self, workspace, monkeypatch, capsys):
        monkeypatch.setattr(cli, "_workers_here", lambda runs: 2)
        fit = cli._fit_model

        def dies_on_seed_1(cfg, ds, base_dir, seed, table):
            if seed == 1:
                os._exit(9)
            return fit(cfg, ds, base_dir, seed, table)

        monkeypatch.setattr(cli, "_fit_model", dies_on_seed_1)
        assert run(
            "stability", "--model", "nb", "--dataset", workspace["data"],
            "--runs", 3, "--out", workspace["dir"] / "sd",
        ) == 1
        assert "worker process died while running seed" in capsys.readouterr().err

    def test_runs_below_two_exit_2(self, workspace):
        assert run(
            "stability", "--model", "nb", "--dataset", workspace["data"],
            "--runs", 1, "--out", workspace["dir"] / "x",
        ) == 2


class TestCompare:
    def test_orders_reports(self, workspace, capsys):
        a = workspace["dir"] / "a.json"
        b = workspace["dir"] / "b.json"
        a.write_text(json.dumps({"macro_f1": 0.31}))
        b.write_text(json.dumps({"mean": 0.55}))
        out = workspace["dir"] / "cmp"
        assert run(
            "compare", f"modelA=text={a}", f"modelB=text+image={b}", "--out", out,
        ) == 0
        stdout = capsys.readouterr().out
        lines = stdout.strip().splitlines()
        assert "modelB" in lines[1] and "modelA" in lines[2]
        data = json.loads((out / "comparison.json").read_text())
        assert data["rows"][0]["macro_f1"] == 0.55

    def test_missing_report_exit_2(self, workspace):
        assert run("compare", workspace["dir"] / "absent.json") == 2

    def test_non_json_report_exit_2(self, workspace):
        bad = workspace["dir"] / "bad.json"
        bad.write_text("not json at all")
        assert run("compare", bad) == 2


class TestEntryPoint:
    def test_module_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "memesent.cli", "--help"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "prepare" in proc.stdout
        assert "stability" in proc.stdout
