"""Run configuration: INI files, flag overrides, and resolved copies.

A run is described by one flat config (sections [data], [model],
[train], [run]) plus command-line overrides. Each setting is declared
once, as a :class:`RunConfig` field that holds its section, its default
and, for the few that are command-line flags, the flag's help text; the
INI sections, the rendered key order and the CLI flags are read from
those fields. Every command persists the fully resolved config next to
its outputs so any artifact can be regenerated from the directory
alone; the resolved text is also hashed into report metadata. The
``[model]`` and ``[train]`` defaults are read from the estimator
classes' fields and from ``TrainConfig``.
"""

from __future__ import annotations

import configparser
import hashlib
import io
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

from .embeddings import FORMATS
from .errors import ConfigError
from .models.cnn import HsvCnnClassifier
from .models.ffnn import BowFfnnClassifier, Word2vecFfnnClassifier
from .models.fusion import BimodalFusionClassifier
from .models.naive_bayes import MultinomialNaiveBayes
from .nn import ACTIVATIONS, INIT_MODES, TrainConfig

__all__ = [
    "MODELS",
    "MODEL_KINDS",
    "RunConfig",
    "load_config",
    "render_config",
    "config_hash",
]

# the one model registry: config model kind -> estimator class; ``predict``
# finds a model file's class by its KIND
MODELS = {
    "nb": MultinomialNaiveBayes,
    "ffnn_w2v": Word2vecFfnnClassifier,
    "ffnn_bow": BowFfnnClassifier,
    "cnn_hsv": HsvCnnClassifier,
    "fusion": BimodalFusionClassifier,
}
MODEL_KINDS = tuple(MODELS)


def _setting(section: str, default, flag: str = ""):
    """A :class:`RunConfig` field, a key of INI ``[section]``; a field with
    ``flag`` help text is also the ``--<name>`` option of the commands
    that name it."""
    return field(default=default, metadata={"section": section, "flag": flag})


@dataclass
class RunConfig:
    dataset: str = _setting("data", "", "dataset CSV path")
    schema: str = _setting("data", "auto")  # "auto" | "key=column,..." mapping
    upsample: bool = _setting("data", False, "oversample minority classes before training")
    split: float = _setting("data", 0.8, "training fraction for splits")
    model: str = _setting("model", "nb", f"model kind: {', '.join(MODEL_KINDS)}")
    embeddings: str = _setting("model", "", "embedding table path")
    embeddings_format: str = _setting("model", "binary")
    filter_embeddings: bool = _setting("model", True)  # keep only words seen in the dataset
    alpha: float = _setting("model", MultinomialNaiveBayes.alpha)
    vocab_size: int = _setting("model", BowFfnnClassifier.vocab_size)
    hidden: tuple[int, ...] = _setting("model", BowFfnnClassifier.hidden)
    activation: str = _setting("model", BowFfnnClassifier.activation)
    init_mode: str = _setting("model", BowFfnnClassifier.init_mode)
    init_sigma: float = _setting("model", BowFfnnClassifier.init_sigma)
    folds: int = _setting("model", BimodalFusionClassifier.folds)
    in_sample: bool = _setting("model", BimodalFusionClassifier.in_sample)
    batch_size: int = _setting("train", TrainConfig.batch_size)
    epochs: int = _setting("train", TrainConfig.epochs)
    lr: float = _setting("train", TrainConfig.lr)
    shuffle: bool = _setting("train", TrainConfig.shuffle)
    seed: int = _setting("run", 0, "top-level seed for all randomness")
    out: str = _setting("run", "runs", "output directory")
    runs: int = _setting("run", 50, "number of seeded runs")
    resplit: bool = _setting("run", True)

    def validate(self) -> "RunConfig":
        if self.model not in MODEL_KINDS:
            raise ConfigError(
                f"unknown model kind {self.model!r}; expected one of {MODEL_KINDS}"
            )
        if self.embeddings_format not in FORMATS:
            raise ConfigError(f"embeddings_format must be {' or '.join(map(repr, FORMATS))}, "
                              f"got {self.embeddings_format!r}")
        if not 0.0 < self.split < 1.0:
            raise ConfigError(f"split must be in (0, 1), got {self.split}")
        for name in ("alpha", "init_sigma", "lr"):
            if not 0 < getattr(self, name) < math.inf:
                raise ConfigError(
                    f"{name} must be finite and positive, got {getattr(self, name)}"
                )
        for name in ("vocab_size", "batch_size", "epochs", "folds"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.runs < 2:
            raise ConfigError(f"runs must be >= 2, got {self.runs}")
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"unknown activation {self.activation!r}")
        if self.init_mode not in INIT_MODES:
            raise ConfigError(f"unknown init_mode {self.init_mode!r}")
        return self


# section -> field names, in render order
_SECTIONS = {
    section: tuple(f.name for f in fields(RunConfig) if f.metadata["section"] == section)
    for section in dict.fromkeys(f.metadata["section"] for f in fields(RunConfig))
}
_FIELD_TYPES = {f.name: type(f.default) for f in fields(RunConfig)}


def _parse_hidden(raw: str) -> tuple[int, ...]:
    parts = [p for p in raw.replace(",", " ").split() if p]
    try:
        widths = tuple(int(p) for p in parts)
    except ValueError:
        raise ConfigError(f"hidden must be a list of integers, got {raw!r}") from None
    if not widths or any(w < 1 for w in widths):
        raise ConfigError(f"hidden widths must be positive integers, got {raw!r}")
    return widths


def _parse_value(name: str, raw: str):
    kind = _FIELD_TYPES[name]
    raw = raw.strip()
    if kind is tuple:
        return _parse_hidden(raw)
    if kind is bool:
        lowered = raw.lower()
        if lowered in ("true", "yes", "on", "1"):
            return True
        if lowered in ("false", "no", "off", "0"):
            return False
        raise ConfigError(f"{name} must be a boolean, got {raw!r}")
    try:
        return kind(raw)
    except ValueError:
        raise ConfigError(f"{name} must be a {kind.__name__}, got {raw!r}") from None


def load_config(path: str | Path) -> RunConfig:
    """Read a UTF-8 INI config from any readable path (``/dev/null`` or a
    pipe too); unknown sections or keys are errors, ``[DEFAULT]`` too."""
    path = Path(path)
    # no header can name this section, so [DEFAULT] is an ordinary, unknown one
    parser = configparser.ConfigParser(interpolation=None, default_section="\n")
    try:
        parser.read_string(path.read_text(encoding="utf-8-sig"), source=str(path))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except OSError as exc:  # a directory, say
        raise ConfigError(f"{path}: cannot read the config: {exc.strerror}") from exc
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    cfg = RunConfig()
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(
                f"{path}: unknown section [{section}]; "
                f"expected {sorted(_SECTIONS)}"
            )
        for key, raw in parser.items(section):
            if key not in _SECTIONS[section]:
                raise ConfigError(
                    f"{path}: unknown key {key!r} in [{section}]; "
                    f"expected one of {sorted(_SECTIONS[section])}"
                )
            setattr(cfg, key, _parse_value(key, raw))
    return cfg


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return " ".join(str(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def render_config(cfg: RunConfig) -> str:
    """Render every field, section by section, in a fixed order."""
    out = io.StringIO()
    for section, names in _SECTIONS.items():
        out.write(f"[{section}]\n")
        for name in names:
            out.write(f"{name} = {_format_value(getattr(cfg, name))}\n")
        out.write("\n")
    return out.getvalue()


def config_hash(cfg: RunConfig) -> str:
    """Stable short hash of the resolved config for report metadata."""
    digest = hashlib.sha256(render_config(cfg).encode("utf-8")).hexdigest()
    return digest[:16]
