"""Caption and image classifiers plus the bimodal fusion stacker."""

from __future__ import annotations

from ..embeddings import EmbeddingTable
from ..errors import DataFormatError
from ..persist import load_container
from .bow import BowVocab, bow_vectorize, build_bow_vocab
from .cnn import HsvCnnClassifier, cnn_grad_check
from .ffnn import BowFfnnClassifier, MlpClassifier, Word2vecFfnnClassifier
from .fusion import (
    BimodalFusionClassifier,
    FusionStacker,
    fusion_predict,
    fusion_train,
)
from .image import (
    IMAGE_SIZE,
    bilinear_resize,
    hsv_from_image,
    load_hsv_input,
    load_image_rgb,
    read_hsv_tensor,
    rgb_to_hsv,
    write_hsv_tensor,
)
from .naive_bayes import MultinomialNaiveBayes, nb_train

__all__ = [
    "BowVocab",
    "bow_vectorize",
    "build_bow_vocab",
    "HsvCnnClassifier",
    "cnn_grad_check",
    "BowFfnnClassifier",
    "MlpClassifier",
    "Word2vecFfnnClassifier",
    "BimodalFusionClassifier",
    "FusionStacker",
    "fusion_predict",
    "fusion_train",
    "IMAGE_SIZE",
    "bilinear_resize",
    "hsv_from_image",
    "load_hsv_input",
    "load_image_rgb",
    "read_hsv_tensor",
    "rgb_to_hsv",
    "write_hsv_tensor",
    "MultinomialNaiveBayes",
    "nb_train",
    "MODEL_CLASSES",
    "load_model",
    "model_from_container",
]

# container kind -> model class
MODEL_CLASSES = {
    cls.KIND: cls
    for cls in (
        MultinomialNaiveBayes,
        Word2vecFfnnClassifier,
        BowFfnnClassifier,
        HsvCnnClassifier,
        BimodalFusionClassifier,
    )
}


def load_model(path, table: EmbeddingTable | None = None):
    """Open any saved classifier, dispatching on the container kind.

    Embedding-based models do not serialize their table; pass the
    ``table`` they were trained with.
    """
    header, arrays = load_container(path)
    return model_from_container(header, arrays, path, table)


def model_from_container(header: dict, arrays: dict, path,
                         table: EmbeddingTable | None = None):
    """Build the classifier held by an already-read container.

    ``path`` only names the file in error messages; the errors are those
    of :func:`load_model`.
    """
    kind = header.get("kind")
    if kind not in MODEL_CLASSES:
        raise DataFormatError(
            f"{path}: unknown model kind {kind!r} "
            f"(expected one of {sorted(MODEL_CLASSES)})"
        )
    cls = MODEL_CLASSES[kind]
    if cls is not Word2vecFfnnClassifier:
        return cls.from_container(header, arrays, path)
    if table is None:
        raise ValueError(
            f"{path} holds an embedding-based model; "
            "pass the embedding table it was trained with"
        )
    return cls.from_container(header, arrays, path, table)
