"""Caption and image classifiers plus the bimodal fusion stacker.

Import each from its module (``memesent.models.ffnn`` and so on); the
package itself exports nothing. The CLI's ``_MODELS`` is the registry
of model kinds.
"""
