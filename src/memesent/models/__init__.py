"""Caption and image classifiers plus the bimodal fusion stacker.

Import each from its module (``memesent.models.ffnn`` and so on); the
package itself exports nothing. ``memesent.config.MODELS`` is the
registry of model kinds.
"""
