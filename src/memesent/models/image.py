"""Image ingestion: RGB decoding, bilinear resize, HSV conversion.

The image branch consumes 32x32x3 HSV tensors with hue in [0, 1) and
saturation/value in [0, 1]. Raster images (PNG/JPEG) are decoded with
Pillow when it is installed; environments without image codecs can
supply precomputed tensors in a small float32 file format instead
(header line "H W 3", then little-endian 32-bit floats in row-major
order).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..errors import DataFormatError

__all__ = [
    "IMAGE_SIZE",
    "load_image_rgb",
    "bilinear_resize",
    "rgb_to_hsv",
    "hsv_from_image",
    "read_hsv_tensor",
    "load_hsv_input",
]

IMAGE_SIZE = 32


def load_image_rgb(path: str | Path) -> np.ndarray:
    """Decode an image file to an (H, W, 3) uint8 RGB array."""
    try:
        from PIL import Image
    except ImportError as exc:  # pragma: no cover - environment dependent
        raise DataFormatError(
            "image decoding requires Pillow; install the [images] extra "
            "or supply precomputed HSV tensors"
        ) from exc
    path = Path(path)
    if not path.is_file():
        raise DataFormatError(f"image file not found: {path}")
    try:
        with Image.open(path) as img:
            rgb = np.asarray(img.convert("RGB"), dtype=np.uint8)
    except Exception as exc:
        raise DataFormatError(f"{path}: cannot decode image: {exc}") from exc
    if rgb.size == 0:
        raise DataFormatError(f"{path}: image has a zero dimension")
    return rgb


def bilinear_resize(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resample with half-pixel-center sampling."""
    img = np.asarray(img, dtype=np.float64)
    if img.ndim != 3:
        raise ValueError(f"expected (H, W, C) array, got shape {img.shape}")
    h, w, _ = img.shape
    if h < 1 or w < 1 or out_h < 1 or out_w < 1:
        raise ValueError("image and output dimensions must be positive")

    def axis_coords(n_out, n_in):
        # source coordinate of each output pixel center
        coords = (np.arange(n_out) + 0.5) * (n_in / n_out) - 0.5
        lo = np.clip(np.floor(coords).astype(np.int64), 0, n_in - 1)
        hi = np.clip(lo + 1, 0, n_in - 1)
        frac = np.clip(coords - lo, 0.0, 1.0)
        return lo, hi, frac

    y0, y1, fy = axis_coords(out_h, h)
    x0, x1, fx = axis_coords(out_w, w)
    fy = fy[:, None, None]
    fx = fx[None, :, None]
    top = img[y0][:, x0] * (1 - fx) + img[y0][:, x1] * fx
    bottom = img[y1][:, x0] * (1 - fx) + img[y1][:, x1] * fx
    return top * (1 - fy) + bottom * fy


def rgb_to_hsv(rgb: np.ndarray) -> np.ndarray:
    """Vectorized RGB -> HSV on an (..., 3) array scaled to [0, 1].

    V = max(R, G, B); S = (max - min) / max (0 where max is 0); hue is
    the standard piecewise formula divided by 360 so it lands in [0, 1).
    """
    rgb = np.asarray(rgb, dtype=np.float64)
    if rgb.shape[-1] != 3:
        raise ValueError(f"last axis must have 3 channels, got {rgb.shape}")
    scaled = rgb / 255.0
    r, g, b = scaled[..., 0], scaled[..., 1], scaled[..., 2]
    cmax = scaled.max(axis=-1)
    cmin = scaled.min(axis=-1)
    delta = cmax - cmin

    with np.errstate(divide="ignore", invalid="ignore"):
        hue = np.zeros_like(cmax)
        mask = delta > 0
        r_is_max = mask & (cmax == r)
        g_is_max = mask & ~r_is_max & (cmax == g)
        b_is_max = mask & ~r_is_max & ~g_is_max
        hue[r_is_max] = ((g - b)[r_is_max] / delta[r_is_max]) % 6.0
        hue[g_is_max] = (b - r)[g_is_max] / delta[g_is_max] + 2.0
        hue[b_is_max] = (r - g)[b_is_max] / delta[b_is_max] + 4.0
        hue /= 6.0
        hue %= 1.0
        sat = np.where(cmax > 0, delta / np.where(cmax > 0, cmax, 1.0), 0.0)

    return np.stack([hue, sat, cmax], axis=-1)


def hsv_from_image(rgb: np.ndarray) -> np.ndarray:
    """Downsample an RGB image to 32x32 and convert to an HSV tensor."""
    rgb = np.asarray(rgb)
    if rgb.ndim != 3 or rgb.shape[2] != 3:
        raise DataFormatError(f"expected an (H, W, 3) RGB array, got {rgb.shape}")
    if rgb.shape[0] < 1 or rgb.shape[1] < 1:
        raise DataFormatError("image has a zero dimension")
    small = bilinear_resize(rgb, IMAGE_SIZE, IMAGE_SIZE)
    return rgb_to_hsv(small)


def read_hsv_tensor(path: str | Path) -> np.ndarray:
    path = Path(path)
    if not path.is_file():
        raise DataFormatError(f"tensor file not found: {path}")
    with open(path, "rb") as fh:
        header = fh.readline()
        try:
            h, w, c = (int(x) for x in header.decode("ascii").split())
        except (ValueError, UnicodeDecodeError) as exc:
            raise DataFormatError(f"{path}: bad tensor header {header!r}") from exc
        if c != 3 or h < 1 or w < 1:
            raise DataFormatError(f"{path}: bad tensor dimensions {h}x{w}x{c}")
        raw = fh.read()
    expected = 4 * h * w * 3
    if len(raw) != expected:
        raise DataFormatError(
            f"{path}: expected {expected} data bytes, found {len(raw)}"
        )
    data = np.frombuffer(raw, dtype="<f4")
    # checked before the cast: widening a signalling NaN would warn
    if not np.isfinite(data).all():
        raise DataFormatError(f"{path}: tensor contains NaN or infinite values")
    return data.astype(np.float64).reshape(h, w, 3)


def load_hsv_input(path: str | Path) -> np.ndarray:
    """Read one image-branch input: a 32x32x3 HSV tensor.

    ``.hsv`` files are read directly (and must already be 32x32);
    anything else is decoded as a raster image and converted.
    """
    path = Path(path)
    if path.suffix.lower() == ".hsv":
        tensor = read_hsv_tensor(path)
        if tensor.shape != (IMAGE_SIZE, IMAGE_SIZE, 3):
            raise DataFormatError(
                f"{path}: expected {IMAGE_SIZE}x{IMAGE_SIZE}x3, got "
                f"{tensor.shape[0]}x{tensor.shape[1]}x{tensor.shape[2]}"
            )
        return tensor
    return hsv_from_image(load_image_rgb(path))
