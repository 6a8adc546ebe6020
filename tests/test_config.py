"""Run configuration: INI parsing, overrides, resolved copies."""

import pytest
from hypothesis import given

from memesent import cli
from memesent.cli import main
from memesent.config import RunConfig, config_hash, load_config, render_config
from memesent.errors import ConfigError

from _util import fuzz_settings, mutated


def write_ini(tmp_path, text):
    path = tmp_path / "cfg.ini"
    path.write_text(text, encoding="utf-8")
    return path


class TestLoad:
    def test_defaults_render_reload_round_trip(self, tmp_path):
        cfg = RunConfig()
        path = write_ini(tmp_path, render_config(cfg))
        assert load_config(path) == cfg

    def test_custom_values_round_trip(self, tmp_path):
        cfg = RunConfig(
            dataset="data.csv",
            schema="id=image_name,caption=text_corrected,label=overall_sentiment",
            upsample=True,
            split=0.75,
            model="ffnn_w2v",
            embeddings="vectors.bin",
            hidden=(64, 32),
            lr=0.01,
            seed=11,
            runs=5,
        )
        path = write_ini(tmp_path, render_config(cfg))
        assert load_config(path) == cfg

    def test_partial_file_keeps_defaults(self, tmp_path):
        path = write_ini(tmp_path, "[model]\nmodel = ffnn_bow\n")
        cfg = load_config(path)
        assert cfg.model == "ffnn_bow"
        assert cfg.epochs == 10
        assert cfg.split == 0.8

    def test_hidden_accepts_commas_and_spaces(self, tmp_path):
        a = load_config(write_ini(tmp_path, "[model]\nhidden = 64, 32, 16\n"))
        assert a.hidden == (64, 32, 16)
        b = load_config(write_ini(tmp_path, "[model]\nhidden = 64 32 16\n"))
        assert b.hidden == (64, 32, 16)

    def test_unknown_section(self, tmp_path):
        path = write_ini(tmp_path, "[nonsense]\nx = 1\n")
        with pytest.raises(ConfigError, match="unknown section"):
            load_config(path)

    @pytest.mark.parametrize("text", ["[DEFAULT]\nseed = 3\n",
                                      "[DEFAULT]\nseed = 3\n[run]\nruns = 4\n"],
                             ids=["alone", "beside_run"])
    def test_default_section_is_unknown(self, tmp_path, capsys, text):
        # configparser would copy its keys into every section
        path = write_ini(tmp_path, text)
        with pytest.raises(ConfigError, match=r"cfg.ini: unknown section \[DEFAULT\]"):
            load_config(path)
        assert main(["prepare", "--config", str(path)]) == 2
        assert f"{path}: unknown section [DEFAULT]" in capsys.readouterr().err

    def test_unknown_key(self, tmp_path):
        path = write_ini(tmp_path, "[train]\nlearning_rate = 0.1\n")
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(path)

    def test_bad_int(self, tmp_path):
        path = write_ini(tmp_path, "[train]\nepochs = ten\n")
        with pytest.raises(ConfigError, match="epochs"):
            load_config(path)

    def test_bad_bool(self, tmp_path):
        path = write_ini(tmp_path, "[data]\nupsample = maybe\n")
        with pytest.raises(ConfigError, match="upsample"):
            load_config(path)

    def test_bad_hidden(self, tmp_path):
        path = write_ini(tmp_path, "[model]\nhidden = 64 -3\n")
        with pytest.raises(ConfigError, match="hidden"):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "absent.ini")

    def test_byte_order_mark(self, tmp_path):
        cfg = RunConfig(model="ffnn_bow", seed=11)
        path = tmp_path / "bom.ini"
        path.write_bytes(b"\xef\xbb\xbf" + render_config(cfg).encode("utf-8"))
        assert load_config(path) == cfg

    def test_non_utf8(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_bytes(b"[data]\ndataset = \xff.csv\n")
        with pytest.raises(ConfigError, match="cfg.ini"):
            load_config(path)

    @fuzz_settings
    @given(data=mutated(b"[data]\nsplit = 0.5\nupsample = on\n[model]\nhidden = 8, 4\n"
                        b"[train]\nlr = 0.01\n[run]\nseed = 3\n"))
    def test_fuzzed_file_fails_typed(self, tmp_path, data):
        path = tmp_path / "fuzz.ini"
        path.write_bytes(data)
        try:
            load_config(path).validate()
        except ConfigError:
            pass


class TestValidate:
    def test_defaults_valid(self):
        RunConfig().validate()

    def test_unknown_model_kind(self):
        with pytest.raises(ConfigError, match="model kind"):
            RunConfig(model="svm").validate()

    def test_split_bounds(self):
        with pytest.raises(ConfigError, match="split"):
            RunConfig(split=1.0).validate()
        with pytest.raises(ConfigError, match="split"):
            RunConfig(split=0.0).validate()

    def test_bad_embedding_format(self):
        with pytest.raises(ConfigError, match="embeddings_format"):
            RunConfig(embeddings_format="pickle").validate()

    def test_positive_numerics(self):
        with pytest.raises(ConfigError, match="lr"):
            RunConfig(lr=0.0).validate()
        with pytest.raises(ConfigError, match="epochs"):
            RunConfig(epochs=0).validate()
        with pytest.raises(ConfigError, match="runs"):
            RunConfig(runs=1).validate()

    def test_activation_and_init_mode(self):
        with pytest.raises(ConfigError, match="activation"):
            RunConfig(activation="tanh").validate()
        with pytest.raises(ConfigError, match="init_mode"):
            RunConfig(init_mode="xavier").validate()


class TestResolved:
    def test_write_resolved_creates_file(self, tmp_path):
        out = cli._write(RunConfig(seed=3, out=str(tmp_path / "out")), {})
        assert load_config(out / "config.ini").seed == 3

    def test_hash_stable_and_sensitive(self):
        a = config_hash(RunConfig())
        b = config_hash(RunConfig())
        c = config_hash(RunConfig(seed=1))
        assert a == b
        assert a != c
        assert len(a) == 16

    def test_render_covers_every_field(self):
        import dataclasses

        text = render_config(RunConfig())
        for f in dataclasses.fields(RunConfig):
            assert f"{f.name} = " in text
