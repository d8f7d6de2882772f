"""Binary PPM (P6) / PGM (P5) reading and writing, plus the prediction palette."""

from __future__ import annotations

import colorsys

import numpy as np


class ParseError(ValueError):
    """Malformed netpbm file; carries the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte offset {offset})")
        self.offset = offset


def _write_netpbm(path, magic: str, arr: np.ndarray) -> None:
    h, w = arr.shape[:2]
    with open(path, "wb") as fh:
        fh.write(f"{magic}\n{w} {h}\n255\n".encode("ascii"))
        fh.write(arr.astype(np.uint8).tobytes())


def write_pgm(path, labels: np.ndarray) -> None:
    """Write a 2-D integer array with values in [0, 255] as binary PGM, pixel value = label."""
    arr = np.asarray(labels)
    if arr.ndim != 2:
        raise ValueError(f"PGM needs a 2-D array, got shape {arr.shape}")
    if arr.size and (arr.min() < 0 or arr.max() > 255):
        raise ValueError("PGM stores 8-bit values; labels must be in [0, 255]")
    _write_netpbm(path, "P5", arr)


def write_ppm(path, img: np.ndarray) -> None:
    """Write an (H, W, 3) uint8 array as binary PPM."""
    arr = np.asarray(img)
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise ValueError(f"PPM needs an (H, W, 3) array, got shape {arr.shape}")
    _write_netpbm(path, "P6", arr)


def _read_netpbm(path, magic: bytes):
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:2] != magic:
        raise ParseError(f"expected magic {magic.decode()!r}, got {blob[:2]!r}", 0)
    pos = 2
    fields = []
    while len(fields) < 3:
        if pos >= len(blob):
            raise ParseError("truncated header", pos)
        ch = blob[pos : pos + 1]
        if ch.isspace():
            pos += 1
        elif ch == b"#":
            while pos < len(blob) and blob[pos : pos + 1] != b"\n":
                pos += 1
        elif ch.isdigit():
            start = pos
            while pos < len(blob) and blob[pos : pos + 1].isdigit():
                pos += 1
            if pos - start > 9:  # also keeps int() under its digit limit
                raise ParseError("header number of more than 9 digits", start)
            fields.append(int(blob[start:pos]))
        else:
            raise ParseError(f"unexpected header byte {ch!r}", pos)
    w, h, maxval = fields
    if maxval != 255:
        raise ParseError(f"only 8-bit files supported, maxval was {maxval}", pos)
    if pos >= len(blob) or not blob[pos : pos + 1].isspace():
        raise ParseError("missing whitespace after maxval", pos)
    pos += 1
    channels = 3 if magic == b"P6" else 1
    need = w * h * channels
    if len(blob) - pos < need:
        raise ParseError(f"pixel data truncated: need {need} bytes, have {len(blob) - pos}", pos)
    data = np.frombuffer(blob, dtype=np.uint8, count=need, offset=pos)
    if channels == 3:
        return data.reshape(h, w, 3).copy()
    return data.reshape(h, w).copy()


def read_pgm(path) -> np.ndarray:
    return _read_netpbm(path, b"P5")


def read_ppm(path) -> np.ndarray:
    return _read_netpbm(path, b"P6")


def quantize_image(img: np.ndarray) -> np.ndarray:
    """Map floats in [0, 1] to uint8; ``np.rint`` rounds a half to the even integer.
    uint8 codes are returned as they are."""
    if img.dtype == np.uint8:
        return img
    return np.rint(np.clip(img, 0.0, 1.0) * 255.0).astype(np.uint8)


def dequantize_image(img: np.ndarray) -> np.ndarray:
    """Map uint8 codes to float64 in [0, 1]: ``q / 255``."""
    return img.astype(np.float64) / 255.0


def label_palette(k: int) -> np.ndarray:
    """Deterministic (k, 3) uint8 palette; label 0 is black.

    Non-background labels walk the hue wheel in golden-ratio steps at fixed
    saturation/value, so palettes are stable across runs and documented.
    """
    pal = np.zeros((k, 3), np.uint8)
    for i in range(1, k):
        hue = (i * 0.61803398875) % 1.0
        pal[i] = [round(c * 255) for c in colorsys.hsv_to_rgb(hue, 0.65, 0.95)]
    return pal


def colorize_labels(labels: np.ndarray, k: int) -> np.ndarray:
    return label_palette(k)[labels]
