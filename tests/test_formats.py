"""PGM and PFM raster file round trips."""

import numpy as np
import pytest

from scenekit.render.formats import FormatError, encode_pfm, encode_pgm, read_pfm, read_pgm


def _write(path, encoded):
    """Write an encoder's (header, payload) back to back, as a bundle does."""
    header, payload = encoded
    path.write_bytes(header + bytes(payload))


def test_pgm_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(3)
    raster = rng.integers(0, 256, size=(37, 53)).astype(np.uint8)
    path = tmp_path / "r.pgm"
    _write(path, encode_pgm(raster))
    assert (read_pgm(path) == raster).all()


def test_pgm_header_layout(tmp_path):
    path = tmp_path / "r.pgm"
    _write(path, encode_pgm(np.zeros((2, 3), dtype=np.uint8)))
    data = path.read_bytes()
    assert data.startswith(b"P5\n3 2\n255\n")
    assert len(data) == len(b"P5\n3 2\n255\n") + 6


def test_pgm_reader_skips_comments(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5\n# a comment\n2 2\n255\n\x01\x02\x03\x04")
    raster = read_pgm(path)
    assert raster.tolist() == [[1, 2], [3, 4]]


def test_pgm_errors(tmp_path):
    path = tmp_path / "bad"
    path.write_bytes(b"P6\n1 1\n255\nxxx")
    with pytest.raises(FormatError, match="magic"):
        read_pgm(path)
    path.write_bytes(b"P5\n4 4\n255\nxx")
    with pytest.raises(FormatError, match="pixel bytes"):
        read_pgm(path)
    with pytest.raises(FormatError, match="2D"):
        encode_pgm(np.zeros((2, 2, 2), dtype=np.uint8))


def test_pfm_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(11)
    raster = (rng.standard_normal((19, 31)) * 40.0).astype(np.float32)
    path = tmp_path / "d.pfm"
    _write(path, encode_pfm(raster))
    back = read_pfm(path)
    assert back.dtype == np.float32
    assert (back == raster).all()
    assert back.tobytes() == raster.tobytes()


def test_pfm_rows_stored_bottom_up(tmp_path):
    raster = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)
    path = tmp_path / "d.pfm"
    _write(path, encode_pfm(raster))
    data = path.read_bytes()
    header = b"Pf\n2 2\n-1.0\n"
    assert data.startswith(header)
    body = np.frombuffer(data[len(header):], dtype="<f4")
    # bottom row first on disk
    assert body.tolist() == [3.0, 4.0, 1.0, 2.0]


def test_pfm_errors(tmp_path):
    path = tmp_path / "bad"
    path.write_bytes(b"PF\n1 1\n-1.0\n" + b"\x00" * 12)
    with pytest.raises(FormatError, match="magic"):
        read_pfm(path)
    path.write_bytes(b"Pf\n2 2\n-1.0\n" + b"\x00" * 7)
    with pytest.raises(FormatError, match="data bytes"):
        read_pfm(path)
