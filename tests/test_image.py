"""RGB->HSV conversion, bilinear resize, and HSV tensor files."""

import colorsys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from memesent.errors import DataFormatError
from memesent.models.image import (
    IMAGE_SIZE,
    bilinear_resize,
    hsv_from_image,
    load_hsv_input,
    load_image_rgb,
    read_hsv_tensor,
    rgb_to_hsv,
)

from _util import fuzz_settings, mutated, write_hsv_tensor

# a 1x1 tensor whose saturation is a float32 signalling NaN
SIGNALLING_NAN_HSV = b"1 1 3\n" + bytes.fromhex("0000003f" "8c2eba7f" "0000803e")


@pytest.fixture
def Image():
    """PIL.Image; only the tests that encode or decode a raster need it."""
    return pytest.importorskip("PIL.Image", reason="image decoding needs Pillow")


def hsv_of(r, g, b):
    return rgb_to_hsv(np.array([[[r, g, b]]], dtype=np.float64))[0, 0]


class TestRgbToHsv:
    def test_pure_colors_exact(self):
        assert hsv_of(255, 0, 0).tolist() == [0.0, 1.0, 1.0]
        assert hsv_of(0, 255, 0).tolist() == [1.0 / 3.0, 1.0, 1.0]
        assert hsv_of(0, 0, 255).tolist() == [2.0 / 3.0, 1.0, 1.0]

    def test_grays_have_zero_saturation(self):
        for v in (0, 1, 127, 128, 254, 255):
            h, s, val = hsv_of(v, v, v)
            assert (h, s) == (0.0, 0.0)
            assert val == v / 255.0

    def test_mixed_color_matches_reference(self):
        # (0, 128, 255): blue-dominant, full saturation, full value
        h, s, v = hsv_of(0, 128, 255)
        assert abs(h - 0.5830) < 5e-5
        assert s == 1.0
        assert v == 1.0

    @given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255))
    @settings(max_examples=300, deadline=None)
    def test_matches_colorsys(self, r, g, b):
        h, s, v = hsv_of(r, g, b)
        eh, es, ev = colorsys.rgb_to_hsv(r / 255.0, g / 255.0, b / 255.0)
        assert abs(h - eh) < 1e-12
        assert abs(s - es) < 1e-12
        assert abs(v - ev) < 1e-12

    def test_hue_is_half_open_unit_interval(self):
        rng = np.random.default_rng(0)
        img = rng.integers(0, 256, size=(16, 16, 3)).astype(np.float64)
        hsv = rgb_to_hsv(img)
        assert np.all(hsv[..., 0] >= 0.0)
        assert np.all(hsv[..., 0] < 1.0)


class TestBilinearResize:
    def test_identity_when_same_size(self):
        rng = np.random.default_rng(1)
        img = rng.random((8, 6, 3))
        assert np.allclose(bilinear_resize(img, 8, 6), img, atol=1e-12)

    def test_constant_image_stays_constant(self):
        img = np.full((5, 7, 3), 0.37)
        out = bilinear_resize(img, 32, 32)
        assert np.allclose(out, 0.37, atol=1e-12)

    def test_2x2_to_1x1_averages(self):
        img = np.zeros((2, 2, 1))
        img[..., 0] = [[1.0, 3.0], [5.0, 7.0]]
        out = bilinear_resize(img, 1, 1)
        assert abs(out[0, 0, 0] - 4.0) < 1e-12

    def test_upscale_preserves_horizontal_gradient(self):
        img = np.zeros((1, 3, 1))
        img[0, :, 0] = [0.0, 1.0, 2.0]
        out = bilinear_resize(img, 1, 6)
        assert np.all(np.diff(out[0, :, 0]) >= -1e-12)
        assert out[0, 0, 0] == 0.0 and out[0, -1, 0] == 2.0


class TestTensorFile:
    def test_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(2)
        tensor = rng.random((32, 32, 3)).astype(np.float32).astype(np.float64)
        path = tmp_path / "t.hsv"
        write_hsv_tensor(tensor, path)
        back = read_hsv_tensor(path)
        assert np.array_equal(back, tensor)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "t.hsv"
        write_hsv_tensor(np.zeros((4, 4, 3)), path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(DataFormatError):
            read_hsv_tensor(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "t.hsv"
        path.write_bytes(b"not a header\n" + b"\x00" * 48)
        with pytest.raises(DataFormatError):
            read_hsv_tensor(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataFormatError):
            read_hsv_tensor(tmp_path / "absent.hsv")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_values_rejected(self, tmp_path, bad):
        tensor = np.zeros((32, 32, 3))
        tensor[5, 7, 1] = bad
        path = tmp_path / "t.hsv"
        write_hsv_tensor(tensor, path)
        with pytest.raises(DataFormatError, match="NaN or infinite"):
            read_hsv_tensor(path)


    def test_signalling_nan_fails_typed_and_silent(self, tmp_path):
        # widening a signalling NaN to float64 raises the CPU's invalid flag,
        # which NumPy reports as a RuntimeWarning
        path = tmp_path / "t.hsv"
        path.write_bytes(SIGNALLING_NAN_HSV)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataFormatError, match="NaN or infinite"):
                read_hsv_tensor(path)

    @fuzz_settings
    @example(data=SIGNALLING_NAN_HSV)
    @given(data=mutated(b"2 2 3\n" + np.linspace(0, 1, 12, dtype="<f4").tobytes()))
    def test_fuzzed_file_fails_typed(self, tmp_path, data):
        path = tmp_path / "fuzz.hsv"
        path.write_bytes(data)
        try:
            read_hsv_tensor(path)
        except DataFormatError:
            pass


class TestImagePipeline:
    def save_png(self, Image, tmp_path, color, size=(48, 40)):
        img = Image.new("RGB", size, color)
        path = tmp_path / "img.png"
        img.save(path)
        return path

    def test_decode_and_convert_solid_color(self, Image, tmp_path):
        path = self.save_png(Image, tmp_path, (255, 0, 0))
        rgb = load_image_rgb(path)
        assert rgb.shape == (40, 48, 3)
        tensor = hsv_from_image(rgb)
        assert tensor.shape == (IMAGE_SIZE, IMAGE_SIZE, 3)
        assert np.allclose(tensor[..., 0], 0.0)
        assert np.allclose(tensor[..., 1], 1.0)
        assert np.allclose(tensor[..., 2], 1.0)

    def test_load_hsv_input_dispatches_on_suffix(self, Image, tmp_path):
        png = self.save_png(Image, tmp_path, (0, 0, 255))
        via_image = load_hsv_input(png)
        assert via_image.shape == (IMAGE_SIZE, IMAGE_SIZE, 3)
        tensor_path = tmp_path / "direct.hsv"
        write_hsv_tensor(via_image, tensor_path)
        via_tensor = load_hsv_input(tensor_path)
        assert np.allclose(via_tensor, via_image, atol=1e-7)  # f32 storage

    def test_wrong_tensor_shape_rejected(self, tmp_path):
        path = tmp_path / "small.hsv"
        write_hsv_tensor(np.zeros((4, 4, 3)), path)
        with pytest.raises(DataFormatError):
            load_hsv_input(path)

    def test_undecodable_image_rejected(self, Image, tmp_path):
        path = tmp_path / "img.png"
        path.write_bytes(b"this is not a png")
        with pytest.raises(DataFormatError):
            load_image_rgb(path)
