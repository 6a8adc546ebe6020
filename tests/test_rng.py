import numpy as np

from memesent.rng import substream


def test_same_key_same_stream():
    a = substream(0, "split").standard_normal(16)
    b = substream(0, "split").standard_normal(16)
    np.testing.assert_array_equal(a, b)


def test_different_names_independent():
    a = substream(0, "split").standard_normal(16)
    b = substream(0, "init").standard_normal(16)
    assert not np.array_equal(a, b)


def test_different_seeds_independent():
    a = substream(0, "split").standard_normal(16)
    b = substream(1, "split").standard_normal(16)
    assert not np.array_equal(a, b)


def test_frozen_values():
    # Regression pin on the key-derivation scheme: counter-based streams
    # are platform-stable, so these values must never drift.
    assert substream(0, "split").integers(0, 1000, 6).tolist() == [
        696, 87, 661, 608, 729, 313,
    ]
    np.testing.assert_allclose(
        substream(0, "init").standard_normal(3),
        [-0.899729322256, 0.443676097613, -0.2098142473],
        atol=1e-12,
    )


def test_consumption_order_does_not_matter():
    one = substream(3, "a")
    _ = substream(3, "b").standard_normal(100)  # interleaved consumer
    two = substream(3, "a")
    np.testing.assert_array_equal(one.standard_normal(8), two.standard_normal(8))
