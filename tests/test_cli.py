"""Command-line workflow: prepare -> train -> predict -> evaluate -> compare."""

import builtins
import csv
import hashlib
import json
import logging
import os
import re
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from _util import (
    blas_threads,
    hue_band_tensors,
    python_env,
    run_cli,
    run_python,
    synthetic_corpus,
    write_hsv_tensor,
    write_word2vec_binary,
)
from memesent import cli
from memesent import eval as eval_module
from memesent.cli import main
from memesent.config import MODEL_KINDS, RunConfig, load_config, render_config
from memesent.corpus import (
    Dataset,
    MemeRecord,
    Sentiment,
    load_dataset,
    save_dataset,
    upsample,
)
from memesent.embeddings import (
    EmbeddingTable,
    corpus_coverage,
    embed_corpus,
    load_embeddings,
)
from memesent.errors import DataFormatError
from memesent.eval import macro_f1
from memesent.models.cnn import _SHAPES as _CNN_SHAPES
from memesent.models.cnn import HsvCnnClassifier, init_cnn_params
from memesent.models.ffnn import BowFfnnClassifier
from memesent.models.fusion import BimodalFusionClassifier
from memesent.models.image import read_hsv_tensor
from memesent.models.naive_bayes import MultinomialNaiveBayes
from memesent.nn import NetSpec, init_params, param_shapes
from memesent.rng import substream
from memesent.textprep import prep_header, preprocess


@pytest.fixture()
def workspace(tmp_path):
    """Canonical dataset CSV plus a binary embedding table."""
    ds, table = synthetic_corpus(n=60)
    data = tmp_path / "data.csv"
    save_dataset(ds, data)
    emb = tmp_path / "vectors.bin"
    write_word2vec_binary(table, emb)
    return {"dir": tmp_path, "data": data, "emb": emb, "ds": ds}


@pytest.fixture()
def fusion_workspace(tmp_path):
    """30 captioned rows with HSV tensor files, and a short fusion config
    (3 folds, 2 epochs)."""
    T, y = hue_band_tensors(n=30, seed=0)
    (tmp_path / "hsv").mkdir()
    words = {0: "sad awful", 1: "meh okay", 2: "joy great"}
    records = []
    for i, cls in enumerate(y.tolist()):
        write_hsv_tensor(T[i], tmp_path / "hsv" / f"f{i}.hsv")
        records.append(MemeRecord(id=f"f{i}", caption=f"{words[cls]} caption {i}",
                                  image_path=f"hsv/f{i}.hsv", label=Sentiment(cls)))
    save_dataset(Dataset(tuple(records)), tmp_path / "data.csv")
    (tmp_path / "fusion.ini").write_text(
        "[model]\nmodel = fusion\nfolds = 3\n\n[train]\nepochs = 2\nbatch_size = 10\n",
        encoding="utf-8",
    )
    return tmp_path


def run(*argv):
    return main([str(a) for a in argv])


def skewed_copy(data, positives):
    """A copy of the dataset CSV ``data``, written beside it, that keeps
    only its first ``positives`` positive records, so that upsampling
    copies them."""
    records = load_dataset(data, None).records
    kept = [rec for rec in records if rec.label != Sentiment.POSITIVE]
    kept += [rec for rec in records if rec.label == Sentiment.POSITIVE][:positives]
    path, ds = data.with_name("skewed.csv"), Dataset(tuple(kept))
    save_dataset(ds, path)
    return path, ds


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

    @pytest.mark.parametrize("key", ["id", "caption"])
    def test_schema_that_maps_a_required_key_to_nothing_exit_2(self, workspace, capsys, key):
        cfg = workspace["dir"] / "cfg.ini"
        cfg.write_text(f"[data]\nschema = {key}=\n")
        assert run("prepare", "--config", cfg, "--dataset", workspace["data"],
                   "--out", workspace["dir"] / "x") == 2
        assert capsys.readouterr().err == f"error: schema key {key!r} must name a column\n"

    def test_image_paths_resolve_from_the_prepared_file(self, fusion_workspace):
        data = fusion_workspace / "data.csv"
        ds = load_dataset(data, None)
        absolute = str(fusion_workspace / "hsv" / "f0.hsv")
        records = (replace(ds.records[0], image_path=absolute),) + ds.records[1:]
        save_dataset(Dataset(records), data)
        out = fusion_workspace / "runs" / "prep"
        assert run("prepare", "--dataset", data, "--out", out) == 0
        prepared = load_dataset(out / "dataset.csv", None)
        assert [rec.image_path for rec in prepared.records[:2]] == [absolute,
                                                                    "../../hsv/f1.hsv"]
        assert run("train", "--model", "cnn_hsv", "--config", fusion_workspace / "fusion.ini",
                   "--dataset", out / "dataset.csv", "--out", fusion_workspace / "m") == 0


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

    def test_upsampled_w2v_reports_the_coverage_of_the_fit_rows(self, workspace):
        data, ds = skewed_copy(workspace["data"], positives=5)
        out = workspace["dir"] / "w2v_up"
        assert run(
            "train", "--model", "ffnn_w2v", "--dataset", data, "--embeddings",
            workspace["emb"], "--upsample", "--seed", 3, "--out", out,
        ) == 0
        report = json.loads((out / "train_report.json").read_text())
        fit = upsample(ds, seed=3)
        assert report["n_records"] == len(fit) == 60
        table = load_embeddings(workspace["emb"])
        coverage = corpus_coverage([preprocess(c) for c in fit.captions()], table)
        assert report["embedding_coverage"] == {
            "n_tokens": coverage.n_tokens,
            "n_covered_tokens": coverage.n_covered_tokens,
            "n_all_oov": coverage.n_all_oov,
        }
        # the copies count again: more tokens than the records hold once
        once = corpus_coverage([preprocess(c) for c in ds.captions()], table)
        assert coverage.n_tokens > once.n_tokens

    def test_w2v_train_computes_the_coverage_once(self, workspace, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return corpus_coverage(*args)

        monkeypatch.setattr(cli, "corpus_coverage", counted)
        assert run(
            "train", "--model", "ffnn_w2v", "--dataset", workspace["data"],
            "--embeddings", workspace["emb"], "--out", workspace["dir"] / "w2v",
        ) == 0
        assert len(calls) == 1

    def test_upsample_preprocesses_and_reads_each_record_once(
            self, fusion_workspace, monkeypatch):
        data, ds = skewed_copy(fusion_workspace / "data.csv", positives=3)
        captions = TestStability.count_calls(monkeypatch, preprocess)
        images = TestStability.count_calls(monkeypatch, cli.load_hsv_input)
        cfg = RunConfig(model="fusion", dataset=str(data), upsample=True, folds=3,
                        epochs=1, batch_size=10, out=str(fusion_workspace / "up"))
        assert cli.cmd_train(cfg.validate(), workers=1) == 0
        report = json.loads((fusion_workspace / "up" / "train_report.json").read_text())
        assert (len(ds), report["n_records"]) == (23, 30)
        assert sorted(c for (c,) in captions) == sorted(ds.captions())
        assert sorted(str(path) for (path,) in images) == sorted(
            str(fusion_workspace / rec.image_path) for rec in ds.records)

    def test_w2v_needs_embeddings(self, workspace, capsys):
        rc = run(
            "train", "--model", "ffnn_w2v", "--dataset", workspace["data"],
            "--out", workspace["dir"] / "x",
        )
        assert rc == 2
        assert "embeddings" in capsys.readouterr().err

    @pytest.mark.parametrize("command, code", [
        ("prepare", 0), ("evaluate", 0), ("train", 2), ("stability", 2),
    ])
    def test_only_commands_that_load_a_table_need_embeddings(self, workspace, capsys,
                                                             command, code):
        cfg = workspace["dir"] / "w2v.ini"
        cfg.write_text("[model]\nmodel = ffnn_w2v\n")
        preds = workspace["dir"] / "preds.csv"
        preds.write_text("id,label\n" + "".join(
            f"{rec.id},{rec.label.canonical_name}\n" for rec in workspace["ds"]))
        args = [preds] if command == "evaluate" else []
        assert run(command, *args, "--config", cfg, "--dataset", workspace["data"],
                   "--out", workspace["dir"] / "o") == code
        if code:
            assert "model 'ffnn-w2v' requires an embeddings path" in capsys.readouterr().err

    def test_unknown_kind_exit_2(self, workspace):
        assert run(
            "train", "--model", "svm", "--dataset", workspace["data"],
            "--out", workspace["dir"] / "x",
        ) == 2

    @pytest.mark.parametrize("command", ["train", "stability"])
    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_header_only_dataset_exit_2(self, workspace, capsys, command, kind):
        data = workspace["dir"] / "header.csv"
        data.write_text("id,caption,label,image\n")
        assert run(command, "--model", kind, "--dataset", data, "--embeddings",
                   workspace["emb"], "--out", workspace["dir"] / "o") == 2
        assert f"error: {data}: no usable records" in capsys.readouterr().err

    def test_stopword_captions_exit_2(self, tmp_path, capsys):
        data = tmp_path / "stop.csv"
        data.write_text("id,caption,label\na,the,positive\nb,a is,neutral\nc,is,negative\n")
        assert run("train", "--model", "ffnn_bow", "--dataset", data,
                   "--out", tmp_path / "o") == 2
        assert "no caption has a token left after preprocessing" in capsys.readouterr().err

    def test_w2v_model_bytes_do_not_depend_on_the_embeddings_path(self, workspace,
                                                                  monkeypatch):
        monkeypatch.chdir(workspace["dir"])
        config = workspace["dir"] / "short.ini"
        config.write_text("[train]\nepochs = 1\n", encoding="utf-8")
        blobs = []
        for emb in (workspace["emb"].name, workspace["emb"].resolve()):
            out = workspace["dir"] / f"path{len(blobs)}"
            assert run(
                "train", "--config", config, "--model", "ffnn_w2v",
                "--dataset", workspace["data"], "--embeddings", emb, "--out", out,
            ) == 0
            blobs.append((out / "model.bin").read_bytes())
        assert blobs[0] == blobs[1]

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


class TestFusion:
    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity")
                        or len(os.sched_getaffinity(0)) < 2, reason="needs 2 CPUs")
    def test_bytes_do_not_depend_on_the_cpus(self, fusion_workspace):
        one_cpu = min(os.sched_getaffinity(0))
        blobs = []
        for name, preexec_fn in (("all", None),
                                 ("one", lambda: os.sched_setaffinity(0, {one_cpu}))):
            out = fusion_workspace / name
            for argv in (("train",), ("predict", "--model", out / "model.bin")):
                proc = run_cli(*argv, "--config", fusion_workspace / "fusion.ini",
                               "--dataset", fusion_workspace / "data.csv", "--out", out,
                               preexec_fn=preexec_fn)
                assert proc.returncode == 0, proc.stderr
            blobs.append([(out / f).read_bytes() for f in ("model.bin", "predictions.csv")])
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize("round_name", ["the full-data fit", "fold 3"])
    def test_dying_round_exit_1(self, fusion_workspace, monkeypatch, capsys, round_name):
        # fold 3 is the one round whose training rows lack its first held-out row
        held = np.array_split(substream(0, "oof").permutation(30), 3)[2]
        marker = read_hsv_tensor(fusion_workspace / "hsv" / f"f{held[0]}.hsv")
        fit = HsvCnnClassifier.fit

        def dies_in_round(model, T, y):
            if (len(y) == 30 if round_name == "the full-data fit"
                    else not any(np.array_equal(t, marker) for t in T)):
                os._exit(9)
            return fit(model, T, y)

        monkeypatch.setattr(cli, "_workers", lambda *args: 2)
        monkeypatch.setattr(HsvCnnClassifier, "fit", dies_in_round)
        assert run(
            "train", "--config", fusion_workspace / "fusion.ini",
            "--dataset", fusion_workspace / "data.csv", "--out", fusion_workspace / "o",
        ) == 1
        err = capsys.readouterr().err
        assert "worker process died while running" in err and round_name in err


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

    @pytest.mark.parametrize("command", ["prepare", "train"])
    def test_dataset_file_opened_once(self, workspace, monkeypatch, command):
        opened = []
        original = builtins.open

        def counting(file, *args, **kwargs):
            if isinstance(file, (str, os.PathLike)) and Path(file) == workspace["data"]:
                opened.append(file)
            return original(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting)
        assert run(command, "--dataset", workspace["data"],
                   "--out", workspace["dir"] / "o") == 0
        assert len(opened) == 1

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

    @pytest.mark.parametrize("command", ["prepare", "train", "evaluate", "stability"])
    def test_unlabeled_dataset_exit_2_naming_it(self, workspace, capsys, command):
        unlabeled = workspace["dir"] / "unlabeled.csv"
        unlabeled.write_text("id,caption\na,alpha bravo\nb,golf hotel\n")
        predictions = workspace["dir"] / "predictions.csv"
        predictions.write_text("id,label\na,positive\nb,neutral\n")
        argv = {"prepare": [], "train": ["--model", "nb"], "stability": ["--model", "nb"],
                "evaluate": [predictions]}[command]
        out = workspace["dir"] / "o"
        assert run(command, *argv, "--dataset", unlabeled, "--out", out) == 2
        assert capsys.readouterr().err == (
            f"error: {unlabeled}: 2 records are unlabeled (first: 'a')\n")
        assert not (out / "config.ini").exists()

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

    def test_w2v_without_embeddings_names_the_model(self, workspace, capsys):
        model = workspace["dir"] / "model"
        assert run("train", "--model", "ffnn_w2v", "--dataset", workspace["data"],
                   "--embeddings", workspace["emb"], "--out", model) == 0
        capsys.readouterr()
        assert run("predict", "--model", model / "model.bin", "--dataset",
                   workspace["data"], "--out", workspace["dir"] / "p") == 2
        assert "model 'ffnn-w2v' requires an embeddings path" in capsys.readouterr().err

    def test_non_utf8_inputs_exit_2(self, workspace, capsys):
        bad_csv = workspace["dir"] / "latin1.csv"
        bad_csv.write_bytes(b"id,caption,label\nm1,caf\xe9,positive\n")
        bad_ini = workspace["dir"] / "latin1.ini"
        bad_ini.write_bytes(b"[data]\ndataset = caf\xff.csv\n")
        for argv, name in (
            (("prepare", "--dataset", bad_csv), "latin1.csv"),
            (("prepare", "--config", bad_ini), "latin1.ini"),
            (("evaluate", bad_csv, "--dataset", workspace["data"]), "latin1.csv"),
        ):
            assert run(*argv, "--out", workspace["dir"] / "x") == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and name in err

    def test_evaluate_bad_label_names_file_and_row(self, workspace, capsys):
        preds = workspace["dir"] / "preds.csv"
        preds.write_text("id,label\ns0,happy\n")
        assert run(
            "evaluate", preds, "--dataset", workspace["data"],
            "--out", workspace["dir"] / "x",
        ) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {preds}: row 2: ") and "'happy'" in err

    def test_evaluate_row_longer_than_header_exit_2(self, workspace, capsys):
        preds = workspace["dir"] / "preds.csv"
        preds.write_text("id,label,p_neg,p_neu,p_pos\ns0,negative,0.1,0.2,0.7,EXTRA\n")
        assert run(
            "evaluate", preds, "--dataset", workspace["data"],
            "--out", workspace["dir"] / "x",
        ) == 2
        assert capsys.readouterr().err == (
            f"error: {preds}: row 2 has more fields than the header\n")

    @pytest.mark.parametrize("text, error", [
        ("id,label\ns0,negative\n ,positive\n", "{preds}: row 3: empty id"),
        ("id,prediction\ns0,negative\n", "{preds}: missing mapped column(s) ['label']; "
                                           "file has ['id', 'prediction']"),
        ("id,label\n", "{preds}: no predictions"),
        ("", "empty CSV file: {preds}"),
        (None, "CSV file not found: {preds}"),
    ])
    def test_evaluate_names_the_predictions_file(self, workspace, capsys, text, error):
        preds = workspace["dir"] / "preds.csv"
        if text is not None:
            preds.write_text(text)
        assert run(
            "evaluate", preds, "--dataset", workspace["data"],
            "--out", workspace["dir"] / "x",
        ) == 2
        assert capsys.readouterr().err == f"error: {error.format(preds=preds)}\n"

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


_PREP = prep_header()
_BOW_SPEC = NetSpec(input_dim=2, hidden=(3,))


def _nb_model(vocabulary=("bad", "day"), **arrays):
    """A Naive Bayes container over ``vocabulary``, with ``arrays`` in
    place of its uniform ones."""
    header = {"kind": "naive-bayes", "alpha": 1.0, "vocabulary": list(vocabulary)}
    uniform = {"class_log_prior": np.log(np.full(3, 1 / 3)),
               "token_log_likelihood": np.log(np.full((3, len(vocabulary)), 0.5))}
    return _container(header, {**uniform, **arrays})


def _bow_arrays(**arrays):
    return {**dict(zip(param_shapes(_BOW_SPEC), init_params(_BOW_SPEC))), **arrays}


def _cnn_arrays(**arrays):
    return {**dict(zip(_CNN_SHAPES, init_cnn_params(0))), **arrays}


_BOW_HEADER = {"kind": "ffnn-bow", "spec": _BOW_SPEC.to_dict(), "prep": _PREP,
               "vocab": ["bad", "day"]}
_CNN_HEADER = {"kind": "cnn-hsv", "seed": 0}
_FUSION_HEADER = {"kind": "fusion-bimodal", "folds": 5, "in_sample": False, "lam": 1e-3,
                  "stacker_epochs": 200, "stacker_lr": 0.1, "seed": 0,
                  "text": _BOW_HEADER, "image": _CNN_HEADER}


def _fusion_model(stacker_W):
    arrays = {"stacker_W": stacker_W, "stacker_b": np.zeros(3),
              **{f"text.{k}": v for k, v in _bow_arrays().items()},
              **{f"image.{k}": v for k, v in _cnn_arrays().items()}}
    return _container(_FUSION_HEADER, arrays)


def _bow_of_five_outputs(bias):
    """A BoW net's container with a last layer of 5 rows, the two extra
    biases at ``bias``."""
    spec = NetSpec(input_dim=2, hidden=(3,), output_dim=5)
    arrays = dict(zip(param_shapes(spec), init_params(spec)))
    arrays["b1"] = np.array([0.0, 0.0, 0.0, bias, bias], dtype=np.float32)
    return _container({**_BOW_HEADER, "spec": spec.to_dict()}, arrays)


MALFORMED_MODELS = {
    "header_is_a_list": _container(["naive-bayes"], {}),
    "truncated_dims": _truncated_dims,
    "missing_spec": _container({"kind": "ffnn-bow", "prep": _PREP, "vocab": []}, {}),
    "missing_class_log_prior": _container(
        {"kind": "naive-bayes", "alpha": 1.0, "vocabulary": []},
        {"token_log_likelihood": np.zeros((3, 0))},
    ),
    "w2v_missing_prep": _container({"kind": "ffnn-w2v", "spec": {}}, {}),
    "kind_is_a_list": _container({"kind": ["x"]}, {}),
    "kind_no_class_has": _container({"kind": "svm"}, {"w": np.zeros(3)}),
    "bow_five_outputs_low": _bow_of_five_outputs(-50.0),  # five probabilities a row
    "bow_five_outputs_high": _bow_of_five_outputs(50.0),  # an argmax of 3 or 4
    "bow_other_prep": _container({**_BOW_HEADER, "prep": {**_PREP, "lemmatize": False}},
                                 _bow_arrays()),
    "missing_text": _container(
        {"kind": "fusion-bimodal", "image": {"kind": "cnn-hsv"}}, {}
    ),
    "bow_nan_W1": _container(_BOW_HEADER, _bow_arrays(W1=np.full((3, 3), np.nan))),
    "bow_W1_wrong_shape": _container(_BOW_HEADER, _bow_arrays(W1=np.zeros((3, 4)))),
    "bow_vocab_wider_than_net": _container({**_BOW_HEADER, "vocab": ["bad", "day", "sad"]},
                                           _bow_arrays()),
    "cnn_K1_wrong_shape": _container(_CNN_HEADER, _cnn_arrays(K1=np.zeros((8, 3, 5, 5)))),
    "cnn_inf_W4": _container(_CNN_HEADER, _cnn_arrays(W4=np.full((3, 64), np.inf))),
    "fusion_nan_stacker": _fusion_model(np.full((3, 6), np.nan)),
    "fusion_stacker_wrong_shape": _fusion_model(np.zeros((3, 5))),
    "nb_likelihood_wrong_shape": _nb_model(token_log_likelihood=np.zeros((3, 3))),
    "nb_inf_likelihood": _nb_model(token_log_likelihood=np.array([[0.0, -np.inf]] * 3)),
    "nb_nan_prior": _nb_model(class_log_prior=np.array([0.0, np.nan, 0.0])),
    "nb_every_prior_neg_inf": _nb_model(class_log_prior=np.full(3, -np.inf)),
    "nb_repeated_word": _nb_model(vocabulary=("bad", "bad", "day")),
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
    assert not (workspace["dir"] / "p" / "predictions.csv").exists()


@pytest.mark.parametrize("cls, write", [
    (MultinomialNaiveBayes, _nb_model()),
    (BowFfnnClassifier, _container(_BOW_HEADER, _bow_arrays())),
    (HsvCnnClassifier, _container(_CNN_HEADER, _cnn_arrays())),
    (BimodalFusionClassifier, _fusion_model(np.zeros((3, 6)))),
], ids=["nb", "ffnn_bow", "cnn_hsv", "fusion"])
def test_malformed_cases_change_a_valid_model(tmp_path, cls, write):
    write(tmp_path / "valid.bin")
    assert type(cls.load(tmp_path / "valid.bin")) is cls


_W2V_SPEC = NetSpec(input_dim=8, hidden=(3,))  # over the workspace's 8-d table
_W2V_HEADER = {"kind": "ffnn-w2v", "spec": _W2V_SPEC.to_dict(), "prep": _PREP,
               "table": {"dim": 8}}


@pytest.mark.parametrize("header, code", [
    (_W2V_HEADER, 0),
    ({**_W2V_HEADER, "prep": {**_PREP, "stopwords": []}}, 2),
    ({k: v for k, v in _W2V_HEADER.items() if k != "prep"}, 2),
], ids=["valid", "other_prep", "missing_prep"])
def test_w2v_model_prep_is_checked_at_load(workspace, capsys, header, code):
    path = workspace["dir"] / "w2v.bin"
    _container(header, dict(zip(param_shapes(_W2V_SPEC), init_params(_W2V_SPEC))))(path)
    assert run("predict", "--model", path, "--dataset", workspace["data"],
               "--embeddings", workspace["emb"], "--out", workspace["dir"] / "p") == code
    if code:
        assert capsys.readouterr().err.startswith(f"error: {path}: ")


@pytest.mark.parametrize("embeddings", [(), ("--embeddings", "absent.bin")],
                         ids=["no_embeddings", "missing_embeddings"])
def test_w2v_header_checked_before_the_table(workspace, capsys, embeddings):
    # the model file's own fault, not the missing table's
    path = workspace["dir"] / "w2v.bin"
    header = {**_W2V_HEADER, "prep": {**_PREP, "stopwords": []}}
    _container(header, dict(zip(param_shapes(_W2V_SPEC), init_params(_W2V_SPEC))))(path)
    embeddings = [workspace["dir"] / a if a.endswith(".bin") else a for a in embeddings]
    assert run("predict", "--model", path, "--dataset", workspace["data"], *embeddings,
               "--out", workspace["dir"] / "p") == 2
    assert capsys.readouterr().err.startswith(
        f"error: {path}: saved with another preprocessing")


@pytest.mark.parametrize("config, error", [
    ("/dev/null", None),
    ("absent.ini", "config file not found: {path}"),
    ("a_directory", "{path}: cannot read the config"),
], ids=["dev_null", "missing", "directory"])
def test_config_path_that_is_not_a_regular_file(workspace, capsys, config, error):
    (workspace["dir"] / "a_directory").mkdir()
    path = workspace["dir"] / config  # an absolute config stays as it is
    rc = run("prepare", "--config", path, "--dataset", workspace["data"],
             "--out", workspace["dir"] / "o")
    err = capsys.readouterr().err
    if error is None:
        assert rc == 0, err
    else:
        assert rc == 2 and err.startswith("error: " + error.format(path=path)), err


@pytest.mark.parametrize("weight, message", [
    (1e200, "array 'W0' holds non-finite values"),  # inf once cast to float32
    (1e30, "the net's logits are not finite"),      # fits float32; the logits overflow
])
def test_oversized_bow_weights_give_only_the_typed_error(tmp_path, weight, message):
    # in a subprocess: NumPy's RuntimeWarning would go to the real stderr
    path = tmp_path / "big.bin"
    _container(_BOW_HEADER, _bow_arrays(W0=np.full((3, 2), weight),
                                        W1=np.full((3, 3), weight)))(path)
    data = tmp_path / "data.csv"
    data.write_text("id,caption\na,bad day\n", encoding="utf-8")
    proc = run_cli("predict", "--model", path, "--dataset", data, "--out", tmp_path / "p")
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"error: {path}: ") and message in proc.stderr
    assert proc.stderr.count("\n") == 1, proc.stderr
    assert not (tmp_path / "p" / "predictions.csv").exists()


@pytest.mark.parametrize("write, message", [
    (_container(_CNN_HEADER, _cnn_arrays(**{name: np.full(shape, 1e200)
                                            for name, shape in _CNN_SHAPES.items()
                                            if name[0] in "KW"})),
     "the net's logits are not finite"),
    (_fusion_model(np.full((3, 6), 1e308)), "the stacker's scores are not finite"),
    (_nb_model(token_log_likelihood=np.full((3, 2), -1e308)),  # "bad day" sums to -2e308
     "the class log-scores are not finite"),
], ids=["cnn_hsv", "fusion", "nb"])
def test_finite_weights_whose_scores_overflow_give_only_the_typed_error(tmp_path, write,
                                                                       message):
    # in a subprocess: NumPy's RuntimeWarning would go to the real stderr
    path = tmp_path / "big.bin"
    write(path)
    write_hsv_tensor(np.full((32, 32, 3), 0.5), tmp_path / "a.hsv")
    data = tmp_path / "data.csv"
    data.write_text("id,caption,image\na,bad day,a.hsv\n", encoding="utf-8")
    proc = run_cli("predict", "--model", path, "--dataset", data, "--out", tmp_path / "p")
    assert proc.returncode == 2
    assert proc.stderr == f"error: {path}: {message}\n"
    assert not (tmp_path / "p" / "predictions.csv").exists()


def test_nb_priors_wider_than_float64_predict_without_a_warning(tmp_path):
    # in a subprocess: NumPy's RuntimeWarning would go to the real stderr
    path = tmp_path / "wide.bin"
    _nb_model(class_log_prior=np.array([-1.7e308, 1.7e308, 0.0]))(path)
    data = tmp_path / "data.csv"
    data.write_text("id,caption\na,bad day\n", encoding="utf-8")
    proc = run_cli("predict", "--model", path, "--dataset", data, "--out", tmp_path / "p")
    assert proc.returncode == 0 and proc.stderr == ""
    rows = (tmp_path / "p" / "predictions.csv").read_text(encoding="utf-8").splitlines()
    assert rows[1:] == ["a,neutral,0.0,1.0,0.0"]


def test_text_embeddings_overflow_gives_only_the_typed_error(workspace):
    # in a subprocess: NumPy's RuntimeWarning would go to the real stderr
    emb = workspace["dir"] / "ovf.txt"
    emb.write_text("2 2\nab 1 1e50\ncd 1 1\n", encoding="utf-8")
    config = workspace["dir"] / "text.ini"
    config.write_text("[model]\nembeddings_format = text\nfilter_embeddings = false\n",
                      encoding="utf-8")
    proc = run_cli("train", "--config", config, "--model", "ffnn_w2v",
                   "--dataset", workspace["data"], "--embeddings", emb,
                   "--out", workspace["dir"] / "t")
    assert proc.returncode == 2
    assert proc.stderr == f"error: {emb}#text: vector for 'ab' contains non-finite values\n"


def _alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


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
            monkeypatch.setattr(cli, "_workers", lambda *args, w=workers: w)
            out = workspace["dir"] / f"w{workers}"
            assert run(
                "stability", "--config", config, "--model", "ffnn_w2v",
                "--dataset", workspace["data"], "--embeddings", workspace["emb"],
                "--runs", 3, "--out", out,
            ) == 0
            blobs.append([(out / name).read_bytes()
                          for name in ("stability.json", "stability_runs.csv")])
        assert blobs[0] == blobs[1]

    def test_fusion_bytes_equal_serial_and_seeds_fork_no_grandchildren(
            self, fusion_workspace, monkeypatch):
        pools = fusion_workspace / "pools.txt"
        pool = eval_module.ProcessPoolExecutor

        def logged_pool(*args, **kwargs):  # one line per pool, naming who forks it
            with open(pools, "a", encoding="utf-8") as fh:
                fh.write(f"{os.getpid()}\n")
            return pool(*args, **kwargs)

        monkeypatch.setattr(eval_module, "ProcessPoolExecutor", logged_pool)
        blobs = []
        for workers in (1, 2):
            monkeypatch.setattr(cli, "_workers", lambda *args, w=workers: w)
            out = fusion_workspace / f"w{workers}"
            assert run(
                "stability", "--config", fusion_workspace / "fusion.ini",
                "--dataset", fusion_workspace / "data.csv", "--upsample",
                "--runs", 2, "--out", out,
            ) == 0
            blobs.append([(out / name).read_bytes()
                          for name in ("stability.json", "stability_runs.csv")])
        assert blobs[0] == blobs[1]
        # the 2-worker study forked once, from here; its seeds' fits ran serially
        assert pools.read_text(encoding="utf-8").split() == [str(os.getpid())]

    @pytest.mark.parametrize("cpus, can_fork, pinned, runs, expected", [
        (2, True, True, 50, 2),
        (8, True, True, 50, 8),
        (8, True, True, 3, 3),  # never more than runs
        (1, True, True, 50, 1),
        (2, False, True, 50, 1),  # no fork: serial
        (2, True, False, 50, 1),  # BLAS not pinned: serial
        (8, False, False, 50, 1),
    ])
    def test_worker_count_rule(self, monkeypatch, cpus, can_fork, pinned, runs, expected):
        pools = []

        def no_fork(workers, **kwargs):  # records the pool the map would fork
            pools.append(workers)
            raise InterruptedError

        monkeypatch.setattr(eval_module, "ProcessPoolExecutor", no_fork)
        try:
            eval_module.parallel_map(str, range(runs), cli._workers(cpus, can_fork, pinned))
        except InterruptedError:
            pass
        assert pools == ([expected] if expected > 1 else [])  # 1: no pool, serial

    def test_unpinned_blas_warns_once_and_runs_serially(self, workspace, monkeypatch,
                                                        capsys):
        study, workers = cli.stability_study, []

        def spy(*args, **kw):
            workers.append(kw["workers"])
            return study(*args, **kw)

        monkeypatch.setattr(cli, "_pin_blas", lambda: (False, []))
        monkeypatch.setattr(cli, "stability_study", spy)
        assert run(
            "stability", "--model", "nb", "--dataset", workspace["data"],
            "--runs", 3, "--out", workspace["dir"] / "su",
        ) == 0
        warnings = [ln for ln in capsys.readouterr().err.splitlines()
                    if ln.startswith("warning:")]
        assert workers == [1]
        assert len(warnings) == 1 and "one thread" in warnings[0]

    def test_dying_worker_exit_1(self, workspace, monkeypatch, capsys):
        monkeypatch.setattr(cli, "_workers", lambda *args: 2)
        fit = cli._fit_model

        def dies_on_seed_1(cfg, inputs, labels, seed, workers):
            if seed == 1:
                os._exit(9)
            return fit(cfg, inputs, labels, seed, workers)

        monkeypatch.setattr(cli, "_fit_model", dies_on_seed_1)
        assert run(
            "stability", "--model", "nb", "--dataset", workspace["data"],
            "--runs", 3, "--out", workspace["dir"] / "sd",
        ) == 1
        assert "worker process died while running seed" in capsys.readouterr().err

    @staticmethod
    def count_calls(monkeypatch, fn):
        """The calls of ``fn``, wrapped wherever a memesent module binds it."""
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return fn(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name == "memesent" or name.startswith("memesent."):
                for key, value in list(vars(module).items()):
                    if value is fn:
                        monkeypatch.setattr(module, key, counting)
        return calls

    def test_a_study_preprocesses_each_caption_once(self, workspace, monkeypatch):
        calls = self.count_calls(monkeypatch, preprocess)
        cfg = RunConfig(model="ffnn_w2v", dataset=str(workspace["data"]),
                        embeddings=str(workspace["emb"]), upsample=True, runs=2, epochs=1,
                        out=str(workspace["dir"] / "s"))
        assert cli.cmd_stability(cfg.validate(), workers=1) == 0
        assert len(calls) == len(workspace["ds"])

    def test_a_study_pools_each_caption_once(self, workspace, monkeypatch):
        loads = self.count_calls(monkeypatch, load_embeddings)
        pools = self.count_calls(monkeypatch, embed_corpus)
        seen = []  # every argument of each seed's train_fn and _fit_model
        study, fit = cli.stability_study, cli._fit_model

        def spy_study(train_fn, *args, **kwargs):
            def spy_train_fn(*seed_args):
                seen.extend(seed_args)
                return train_fn(*seed_args)
            return study(spy_train_fn, *args, **kwargs)

        def spy_fit(cfg, inputs, *args):
            seen.extend([cfg, *inputs, *args])
            return fit(cfg, inputs, *args)

        monkeypatch.setattr(cli, "stability_study", spy_study)
        monkeypatch.setattr(cli, "_fit_model", spy_fit)
        cfg = RunConfig(model="ffnn_w2v", dataset=str(workspace["data"]),
                        embeddings=str(workspace["emb"]), upsample=True, runs=2, epochs=1,
                        out=str(workspace["dir"] / "s"))
        assert cli.cmd_stability(cfg.validate(), workers=1) == 0
        assert len(loads) == 1
        assert [len(captions) for captions, _ in pools] == [len(workspace["ds"])]
        assert len(seen) == 2 * 3 + 2 * 5  # two seeds, each one fit
        assert not any(isinstance(arg, EmbeddingTable) for arg in seen)

    def test_a_study_reads_each_image_once(self, fusion_workspace, monkeypatch):
        calls = self.count_calls(monkeypatch, cli.load_hsv_input)
        cfg = RunConfig(model="cnn_hsv", dataset=str(fusion_workspace / "data.csv"),
                        runs=2, epochs=1, batch_size=10, out=str(fusion_workspace / "s"))
        assert cli.cmd_stability(cfg.validate(), workers=1) == 0
        paths = sorted(str(path) for (path,) in calls)
        assert paths == sorted(str(fusion_workspace / f"hsv/f{i}.hsv") for i in range(30))

    def test_split_that_leaves_no_validation_records_exit_2(self, workspace, capsys):
        # two records per class: a 0.8 split puts both in the training part
        records = [MemeRecord(id=f"r{i}", caption=f"word{i} text", label=Sentiment(i % 3))
                   for i in range(6)]
        data = workspace["dir"] / "six.csv"
        save_dataset(Dataset(tuple(records)), data)
        assert run("stability", "--model", "nb", "--dataset", data, "--runs", 2,
                   "--out", workspace["dir"] / "x") == 2
        assert capsys.readouterr().err == (
            f"error: {data}: split = 0.8 leaves no validation records\n")
        assert not (workspace["dir"] / "x").exists()

    def test_runs_below_two_exit_2(self, workspace):
        assert run(
            "stability", "--model", "nb", "--dataset", workspace["data"],
            "--runs", 1, "--out", workspace["dir"] / "x",
        ) == 2

    def test_stopword_captions_exit_2(self, tmp_path, capsys):
        # a seed's input error keeps its class, so the study exits as train does
        data = tmp_path / "stop.csv"
        rows = "".join(f"r{i},the is a,{('negative', 'neutral', 'positive')[i % 3]}\n"
                       for i in range(30))
        data.write_text("id,caption,label\n" + rows)
        assert run("stability", "--model", "ffnn_bow", "--dataset", data, "--runs", 2,
                   "--out", tmp_path / "o") == 2
        assert capsys.readouterr().err.endswith(
            "error: stability run with seed 0 failed: "
            "no caption has a token left after preprocessing\n")
        assert not (tmp_path / "o").exists()

    # each seed records its worker's pid as a file name, then sleeps
    SLOW_STUDY = (
        "import os, sys, time\n"
        "from memesent import cli\n"
        "def slow_fit(cfg, inputs, labels, seed, workers):\n"
        "    open(os.path.join(sys.argv[1], str(os.getpid())), 'w').close()\n"
        "    time.sleep(120)\n"
        "cli._fit_model = slow_fit\n"
        "cli._workers = lambda *args: 2\n"
        "sys.exit(cli.main(sys.argv[2:]))\n"
    )

    @pytest.mark.parametrize("sig", [signal.SIGINT, signal.SIGTERM])
    def test_signal_ends_a_two_worker_study(self, workspace, sig):
        out, pids = workspace["dir"] / "out", workspace["dir"] / "pids"
        pids.mkdir()
        out.mkdir()  # an earlier run's outputs
        for name in ("stability.json", "config.ini"):
            (out / name).write_text(f"earlier {name}\n")
        script = workspace["dir"] / "slow.py"
        script.write_text(self.SLOW_STUDY)
        proc = subprocess.Popen(
            [sys.executable, script, pids, "stability", "--model", "nb", "--dataset",
             workspace["data"], "--runs", "4", "--out", out],
            env=python_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        try:
            deadline = time.monotonic() + 60
            while (len(os.listdir(pids)) < 2 and proc.poll() is None
                   and time.monotonic() < deadline):
                time.sleep(0.05)
            assert len(os.listdir(pids)) == 2  # both workers are in a seed
            proc.send_signal(sig)
            _, err = proc.communicate(timeout=60)  # not the seeds' 120 s
        finally:
            proc.kill()
            proc.wait()
            left = [pid for pid in map(int, os.listdir(pids)) if _alive(pid)]
            for pid in left:
                os.kill(pid, signal.SIGKILL)
        assert proc.returncode == 128 + sig
        assert err == "error: interrupted\n"
        assert left == []  # the workers were terminated and reaped
        assert {path.name: path.read_text() for path in out.iterdir()} == {
            name: f"earlier {name}\n" for name in ("stability.json", "config.ini")}


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

    def test_report_that_is_not_utf8_is_named(self, workspace, capsys):
        bad = workspace["dir"] / "bad.json"
        bad.write_bytes(b'\xff\xfe{"mean": 0.5}')
        with pytest.raises(DataFormatError):
            cli._score_from_report(str(bad))
        assert run("compare", bad) == 2
        assert capsys.readouterr().err.startswith(f"error: {bad}: not valid JSON: ")

    @pytest.mark.parametrize("key", ["macro_f1", "mean"])
    @pytest.mark.parametrize("value", [
        "[0.5]", "null", '{"x": 1}', '"abc"', '"0.5"', "true", "NaN", "Infinity",
        "1e400", "1" + "0" * 400,
    ], ids=["list", "null", "object", "string", "numeric_string", "true", "nan", "inf",
            "float_beyond_range", "int_beyond_range"])
    def test_score_that_is_not_a_finite_number_exit_2(self, workspace, capsys, key, value):
        bad = workspace["dir"] / "bad.json"
        bad.write_text(f'{{"{key}": {value}}}')
        assert run("compare", bad, "--out", workspace["dir"] / "cmp") == 2
        assert capsys.readouterr().err.startswith(f"error: {bad}: {key} is ")

    def test_deeply_nested_report_exit_2(self, workspace, capsys):
        deep = workspace["dir"] / "deep.json"
        deep.write_text("[" * 100_000)
        assert run("compare", deep) == 2
        assert capsys.readouterr().err.startswith(f"error: {deep}: not valid JSON: ")

    def test_writes_the_resolved_config(self, workspace):
        report = workspace["dir"] / "r.json"
        report.write_text(json.dumps({"macro_f1": 0.5}))
        out = workspace["dir"] / "cmp"
        assert run("compare", report, "--out", out) == 0
        assert sorted(path.name for path in out.iterdir()) == [
            "comparison.json", "comparison.txt", "config.ini"]
        assert (out / "config.ini").read_text() == render_config(RunConfig(out=str(out)))

    def test_integer_score_ranks(self, workspace, capsys):
        report = workspace["dir"] / "one.json"
        report.write_text('{"mean": 1}')
        assert run("compare", report, "--out", workspace["dir"] / "cmp") == 0
        assert "1.0000" in capsys.readouterr().out


@pytest.mark.parametrize("section, field", [
    ("model", "alpha"), ("model", "init_sigma"), ("train", "lr"),
])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_config_exit_2(workspace, capsys, section, field, value):
    config = workspace["dir"] / "bad.ini"
    config.write_text(f"[{section}]\n{field} = {value}\n", encoding="utf-8")
    assert run(
        "train", "--config", config, "--model", "nb", "--dataset", workspace["data"],
        "--out", workspace["dir"] / "x",
    ) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field} must be finite"), err


def _caption_csv(path, n=200, vocab=3000, seed=3):
    """``n`` labelled captions over ``vocab`` made-up words with Zipf
    frequencies: enough distinct words that the BoW net's first GEMM is
    large enough for OpenBLAS to split across threads."""
    rng = np.random.default_rng(seed)
    syllables = [c + v for c in "bdfgklmnprtvz" for v in "aiou"]
    words = ["".join(rng.choice(syllables, 4)) for _ in range(vocab)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "caption", "label"])
        for i in range(n):
            ranks = rng.zipf(1.3, rng.integers(4, 16)) % vocab
            caption = " ".join(words[r] for r in ranks)
            writer.writerow([f"r{i}", caption, ("negative", "neutral", "positive")[i % 3]])


class TestBlasThreads:
    def test_bytes_do_not_depend_on_the_environment(self, tmp_path):
        if not blas_threads():
            pytest.skip("needs OpenBLAS")
        data, config = tmp_path / "data.csv", tmp_path / "one_epoch.ini"
        _caption_csv(data)
        config.write_text("[train]\nepochs = 1\n", encoding="utf-8")
        base = {k: v for k, v in os.environ.items()
                if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        blobs = []
        for threads in (None, "1", "2"):
            env = base if threads is None else dict(base, OPENBLAS_NUM_THREADS=threads)
            out = tmp_path / f"t{threads}"
            for argv in (("train", "--config", config, "--model", "ffnn_bow"),
                         ("predict", "--model", out / "model.bin")):
                proc = run_cli(*argv, "--dataset", data, "--out", out, env=env)
                assert proc.returncode == 0, proc.stderr
                assert "warning" not in proc.stderr
            blobs.append([(out / name).read_bytes()
                          for name in ("model.bin", "predictions.csv")])
        assert blobs[0] == blobs[1] == blobs[2]

    def test_import_leaves_threads_and_pin_sets_one(self):
        if not blas_threads() or len(os.sched_getaffinity(0)) < 2:
            pytest.skip("needs OpenBLAS and two CPUs")
        code = (
            f"import sys; sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
            "from memesent import cli\n"
            "from _util import blas_threads\n"
            "print(blas_threads(), cli._pin_blas()[0], blas_threads())\n"
        )
        proc = run_python("-c", code, env=dict(os.environ, OPENBLAS_NUM_THREADS="2"))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["[2]", "True", "[1]"]

    def test_main_restores_the_thread_count(self):
        if not blas_threads() or len(os.sched_getaffinity(0)) < 2:
            pytest.skip("needs OpenBLAS and two CPUs")
        code = (
            f"import sys; sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
            "from memesent import cli\n"
            "from _util import blas_threads\n"
            "print(cli.main(['compare', 'x=nonexistent.json']), blas_threads())\n"
        )
        proc = run_python("-c", code, env=dict(os.environ, OPENBLAS_NUM_THREADS="2"))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["2", "[2]"]


class TestEntryPoint:
    def test_module_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "memesent.cli", "--help"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "prepare" in proc.stdout
        assert "stability" in proc.stdout


class TestLogging:
    def train_w2v(self, workspace, *flags):
        out = workspace["dir"] / "t"
        assert run(*flags, "train", "--model", "ffnn_w2v", "--dataset", workspace["data"],
                   "--embeddings", workspace["emb"], "--out", out) == 0
        return out / "model.bin"

    def test_verbose_shows_the_coverage_line(self, workspace, capsys):
        self.train_w2v(workspace)
        assert "token coverage" not in capsys.readouterr().err
        self.train_w2v(workspace, "-v")
        assert ("INFO memesent.cli: embedded 60 captions: 100.0% token coverage"
                in capsys.readouterr().err)
        self.train_w2v(workspace, "--log-level", "ERROR")
        assert capsys.readouterr().err == ""

    def test_warning_goes_through_the_configured_handler(self, workspace, capsys):
        model = self.train_w2v(workspace)
        data = workspace["dir"] / "oov.csv"
        data.write_text("id,caption\nu1,zzz qqq\n", encoding="utf-8")
        assert run("predict", "--model", model, "--dataset", data,
                   "--embeddings", workspace["emb"], "--out", workspace["dir"] / "p") == 0
        err = capsys.readouterr().err
        assert err.startswith("WARNING memesent.cli: embedded 1 captions: ")
        assert "1 have no in-vocabulary tokens" in err
        assert logging.getLogger("memesent").handlers == []  # main removed its own

    def test_a_study_logs_one_coverage_line(self, workspace, caplog):
        cfg = RunConfig(model="ffnn_w2v", dataset=str(workspace["data"]),
                        embeddings=str(workspace["emb"]), runs=2, epochs=1,
                        out=str(workspace["dir"] / "s"))
        with caplog.at_level("INFO", logger="memesent"):
            assert cli.cmd_stability(cfg.validate(), workers=1) == 0
        lines = [r for r in caplog.records if "token coverage" in r.getMessage()]
        assert [r.name for r in lines] == ["memesent.cli"]


def _files(out):
    return {path.name: path.read_bytes() for path in out.iterdir()}


class TestWriter:
    """Every command's files go through one writer: each is moved into
    place whole, and ``config.ini``, written last, marks a complete run."""

    @pytest.mark.parametrize("argv", [
        ("prepare", "--dataset", "absent.csv"),
        ("train", "--model", "ffnn_w2v", "--dataset", "data.csv"),
        ("predict", "--model", "absent.bin", "--dataset", "data.csv"),
        ("evaluate", "absent.csv", "--dataset", "data.csv"),
        ("stability", "--runs", 1, "--dataset", "data.csv"),
        ("compare", "absent.json"),
    ])
    def test_a_failure_before_writing_creates_no_out(self, workspace, monkeypatch, argv):
        monkeypatch.chdir(workspace["dir"])
        assert run(*argv, "--out", "o") == 2
        assert not (workspace["dir"] / "o").exists()

    @pytest.mark.parametrize("out", ["afile", "afile/sub"])
    def test_an_out_at_or_under_a_file_exit_2_before_any_work(
            self, workspace, monkeypatch, capsys, out):
        monkeypatch.chdir(workspace["dir"])
        Path("afile").write_text("kept\n", encoding="utf-8")
        read = []
        monkeypatch.setattr(cli, "load_dataset", lambda *args: read.append(args))
        assert run("train", "--model", "nb", "--dataset", workspace["data"], "--out", out) == 2
        assert capsys.readouterr().err == f"error: --out {out}: afile is not a directory\n"
        assert not read
        assert Path("afile").read_text(encoding="utf-8") == "kept\n"

    def train_nb(self, workspace):
        out = workspace["dir"] / "run"
        assert run("train", "--model", "nb", "--dataset", workspace["data"], "--out", out) == 0
        return out, _files(out)

    def test_a_failure_in_a_reused_out_leaves_the_earlier_files(self, workspace):
        out, before = self.train_nb(workspace)
        assert run("train", "--model", "ffnn_w2v", "--dataset", workspace["data"],
                   "--out", out) == 2
        assert run("predict", "--model", workspace["dir"] / "absent.bin",
                   "--dataset", workspace["data"], "--out", out) == 2
        assert _files(out) == before

    def test_a_failed_replace_leaves_no_config_and_no_temporary_file(
            self, workspace, monkeypatch, capsys):
        out, before = self.train_nb(workspace)
        replace = os.replace

        def fails_on_the_report(src, dst):
            if Path(dst).name == "train_report.json":
                raise OSError("no space left")
            replace(src, dst)

        monkeypatch.setattr(os, "replace", fails_on_the_report)
        other, _ = skewed_copy(workspace["data"], positives=5)
        assert run("train", "--model", "nb", "--dataset", other, "--out", out) == 1
        assert capsys.readouterr().err.endswith("error: no space left\n")
        after = _files(out)
        assert sorted(after) == ["model.bin", "train_report.json"]
        assert after["model.bin"] != before["model.bin"]  # moved into place, whole
        assert after["train_report.json"] == before["train_report.json"]

    def test_predict_into_its_train_directory_ends_with_its_config(self, workspace):
        out, before = self.train_nb(workspace)
        assert run("predict", "--model", out / "model.bin", "--seed", 5,
                   "--dataset", workspace["data"], "--out", out) == 0
        after = _files(out)
        assert sorted(after) == ["config.ini", "model.bin", "predictions.csv",
                                 "train_report.json"]
        assert {name: after[name] for name in ("model.bin", "train_report.json")} == {
            name: before[name] for name in ("model.bin", "train_report.json")}
        assert load_config(out / "config.ini").seed == 5
