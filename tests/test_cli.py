"""Command-line workflow: prepare -> train -> predict -> evaluate -> compare."""

import builtins
import csv
import hashlib
import json
import logging
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from _util import blas_threads, hue_band_tensors, run_cli, run_python, synthetic_corpus
from memesent import cli
from memesent import eval as eval_module
from memesent.cli import main
from memesent.config import MODEL_KINDS
from memesent.corpus import Dataset, MemeRecord, Sentiment, load_dataset, save_dataset
from memesent.embeddings import EmbeddingTable, load_embeddings, write_word2vec_binary
from memesent.eval import macro_f1
from memesent.models import HsvCnnClassifier, Word2vecFfnnClassifier, load_model
from memesent.models.cnn import _SHAPES as _CNN_SHAPES
from memesent.models.cnn import init_cnn_params
from memesent.models.image import read_hsv_tensor, write_hsv_tensor
from memesent.nn import NetSpec, init_params, param_shapes
from memesent.rng import substream
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

    def test_w2v_filter_uses_the_saved_prep(self, tmp_path):
        # unlemmatized, the model looks up 'memes' and 'cats', which a
        # filter built with the default preprocessing ('meme', 'cat') drops
        rng = np.random.default_rng(0)
        words = ("memes", "meme", "cats", "cat", "dogs")
        emb = tmp_path / "vectors.bin"
        write_word2vec_binary(
            EmbeddingTable(words, rng.standard_normal((len(words), 4))), emb)
        captions = ["memes cats", "meme dogs", "cats", "memes", "dogs cat", "meme"]
        data = tmp_path / "data.csv"
        data.write_text("id,caption,label\n" + "".join(
            f"m{i},{c},{('negative', 'neutral', 'positive')[i % 3]}\n"
            for i, c in enumerate(captions)))
        model = Word2vecFfnnClassifier(load_embeddings(emb), prep=PrepConfig(lemmatize=False),
                                       epochs=2, seed=1).fit(captions, [0, 1, 2, 0, 1, 2])
        model.save(tmp_path / "model.bin")
        assert run("predict", "--model", tmp_path / "model.bin", "--dataset", data,
                   "--embeddings", emb, "--out", tmp_path / "p") == 0
        with open(tmp_path / "p" / "predictions.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        got = [[float(row[k]) for k in ("p_neg", "p_neu", "p_pos")] for row in rows]
        assert np.array_equal(got, model.predict_proba(captions))

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


MALFORMED_MODELS = {
    "header_is_a_list": _container(["naive-bayes"], {}),
    "truncated_dims": _truncated_dims,
    "missing_spec": _container({"kind": "ffnn-bow", "prep": _PREP, "vocab": []}, {}),
    "missing_class_log_prior": _container(
        {"kind": "naive-bayes", "alpha": 1.0, "vocabulary": []},
        {"token_log_likelihood": np.zeros((3, 0))},
    ),
    "w2v_missing_prep": _container({"kind": "ffnn-w2v", "spec": {}}, {}),
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


@pytest.mark.parametrize("write", [
    _nb_model(),
    _container(_BOW_HEADER, _bow_arrays()),
    _container(_CNN_HEADER, _cnn_arrays()),
    _fusion_model(np.zeros((3, 6))),
], ids=["nb", "ffnn_bow", "cnn_hsv", "fusion"])
def test_malformed_cases_change_a_valid_model(tmp_path, write):
    write(tmp_path / "valid.bin")
    load_model(tmp_path / "valid.bin")


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

        def dies_on_seed_1(cfg, ds, base_dir, seed, table, workers):
            if seed == 1:
                os._exit(9)
            return fit(cfg, ds, base_dir, seed, table, workers)

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
        assert ("INFO memesent.models.ffnn: embedded 60 captions: 100.0% token coverage"
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
        assert err.startswith("WARNING memesent.models.ffnn: embedded 1 captions: ")
        assert "1 have no in-vocabulary tokens" in err
        assert logging.getLogger("memesent").handlers == []  # main removed its own
