"""Meme sentiment classification toolkit.

From-scratch pipeline for 3-way sentiment over meme captions and
images: CSV ingestion with stratified splitting and oversampling, text
preprocessing, Word2Vec embedding tables with mean pooling, a dense
softmax network trained by Adam, Naive Bayes and bag-of-words
baselines, a small CNN over HSV image tensors, late fusion of the text
and image branches, and a macro-F1 evaluation harness with seeded
stability studies. Everything is deterministic given one seed.

The library is imported from its submodules (``memesent.corpus``,
``memesent.models``, ...); the package root holds only ``__version__``.
"""

__version__ = "0.1.0"
