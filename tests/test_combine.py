"""Modality normalization and weighted control combination."""

import json

import numpy as np
import pytest

from scenekit.render import (
    PRESETS,
    DimensionMismatch,
    combine_controls,
    load_weights,
    normalize_modality,
)


def test_normalize_depth_endpoints():
    raster = np.array([[0.0, 50.0, 100.0, 250.0]], dtype=np.float32)
    out = normalize_modality(raster, "depth", far_plane=100.0)
    assert out.dtype == np.float32
    assert out[0, 0] == 1.0
    assert out[0, 1] == 0.5
    assert out[0, 2] == 0.0
    assert out[0, 3] == 0.0  # beyond far clamps, never negative


def test_normalize_depth_needs_the_far_plane():
    with pytest.raises(ValueError, match="far_plane"):
        normalize_modality(np.zeros((2, 2), dtype=np.float32), "depth")


def test_normalize_seg_ramp():
    raster = np.array([[0, 1, 2, 3, 4, 5]], dtype=np.uint8)
    out = normalize_modality(raster, "seg")
    assert out[0, 0] == 0.0
    assert out[0, 5] == 1.0
    assert np.allclose(out[0], np.arange(6) / 5.0)


def test_normalize_edge_is_identity():
    raster = np.array([[0, 1], [1, 0]], dtype=np.uint8)
    out = normalize_modality(raster, "edge")
    assert (out == raster).all()
    assert out.dtype == np.float32


def test_normalize_unknown_kind():
    with pytest.raises(ValueError, match="unknown modality"):
        normalize_modality(np.zeros((2, 2)), "thermal")


def test_preset_a_pixel_value():
    # depth weight 0.3, edge weight 0.4, both inputs 1.0 -> 0.7
    one = np.ones((4, 4), dtype=np.float32)
    out = combine_controls({"depth": one, "edge": one}, PRESETS["preset-a"])
    assert np.allclose(out, 0.7)


def test_single_modality_weight_one_is_identity():
    rng = np.random.default_rng(5)
    raster = rng.random((8, 8), dtype=np.float32)
    out = combine_controls({"depth": raster}, {"depth": 1.0})
    assert np.allclose(out, raster, atol=1e-7)


def test_zero_weights_zero_output():
    raster = np.ones((6, 6), dtype=np.float32)
    out = combine_controls({"depth": raster, "edge": raster}, {"depth": 0.0, "edge": 0.0})
    assert (out == 0.0).all()


def test_missing_weight_means_zero_contribution():
    one = np.ones((3, 3), dtype=np.float32)
    out = combine_controls({"depth": one, "edge": one}, {"edge": 0.4})
    assert np.allclose(out, 0.4)


def test_combination_matches_per_pixel_oracle():
    # Re-derive 1,000 pixels with plain Python floats for every preset.
    rng = np.random.default_rng(17)
    maps = {
        "seg": rng.random((64, 64)).astype(np.float32),
        "depth": rng.random((64, 64)).astype(np.float32),
        "edge": (rng.random((64, 64)) < 0.2).astype(np.float32),
    }
    for name, weights in PRESETS.items():
        out = combine_controls(maps, weights)
        for _ in range(1000):
            i = int(rng.integers(0, 64))
            j = int(rng.integers(0, 64))
            expected = sum(
                float(weights[m]) * float(maps[m][i, j]) for m in ("seg", "depth", "edge") if m in weights
            )
            assert abs(float(out[i, j]) - expected) <= 1e-6, name


def test_full_raster_matches_float64_oracle_for_every_preset():
    # Every pixel of a 512x512 raster, normalized and combined in float32,
    # against the same sum taken in float64 from the raw rasters.
    rng = np.random.default_rng(41)
    shape = (512, 512)
    far = 100.0
    seg = rng.integers(0, 6, size=shape).astype(np.uint8)
    depth = (rng.random(shape, dtype=np.float32) * 120.0).astype(np.float32)
    edge = rng.integers(0, 2, size=shape).astype(np.uint8)
    normalized = {
        "seg": normalize_modality(seg, "seg"),
        "depth": normalize_modality(depth, "depth", far_plane=far),
        "edge": normalize_modality(edge, "edge"),
    }
    oracle = {
        "seg": seg.astype(np.float64) / 5.0,
        "depth": 1.0 - np.minimum(depth.astype(np.float64) / far, 1.0),
        "edge": edge.astype(np.float64),
    }
    for name, weights in PRESETS.items():
        out = combine_controls(normalized, weights)
        assert out.dtype == np.float32 and out.shape == shape
        expected = sum(weights[m] * oracle[m] for m in ("seg", "depth", "edge") if m in weights)
        assert float(np.abs(out - expected).max()) <= 1e-6, name


def test_linearity_in_weights():
    rng = np.random.default_rng(23)
    maps = {"depth": rng.random((16, 16)).astype(np.float32), "edge": rng.random((16, 16)).astype(np.float32)}
    base = {"depth": 0.25, "edge": 0.5}
    doubled = {k: 2 * v for k, v in base.items()}
    assert np.allclose(combine_controls(maps, doubled), 2 * combine_controls(maps, base), atol=1e-6)


def test_superposition_over_disjoint_modalities():
    rng = np.random.default_rng(29)
    maps = {"depth": rng.random((16, 16)).astype(np.float32), "edge": rng.random((16, 16)).astype(np.float32)}
    together = combine_controls(maps, {"depth": 0.3, "edge": 0.4})
    separate = combine_controls({"depth": maps["depth"]}, {"depth": 0.3}) + combine_controls(
        {"edge": maps["edge"]}, {"edge": 0.4}
    )
    assert np.allclose(together, separate, atol=1e-6)


def test_output_range_bounds():
    rng = np.random.default_rng(31)
    maps = {
        "seg": rng.random((32, 32)).astype(np.float32),
        "depth": rng.random((32, 32)).astype(np.float32),
        "edge": rng.random((32, 32)).astype(np.float32),
    }
    out = combine_controls(maps, {"seg": 1.0, "depth": 1.0, "edge": 1.0})
    assert float(out.min()) >= 0.0 and float(out.max()) <= 3.0
    for weights in PRESETS.values():
        out = combine_controls(maps, weights)
        assert float(out.min()) >= 0.0 and float(out.max()) <= 1.0


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch, match="shape"):
        combine_controls(
            {"depth": np.zeros((4, 4)), "edge": np.zeros((4, 5))}, {"depth": 0.5, "edge": 0.5}
        )
    with pytest.raises(DimensionMismatch, match="absent"):
        combine_controls({"depth": np.zeros((4, 4))}, {"depth": 0.5, "edge": 0.5})
    with pytest.raises(DimensionMismatch, match="no modalities"):
        combine_controls({}, {})


def test_load_weights_by_preset_name():
    assert load_weights("preset-d") == {"depth": 0.5, "edge": 0.5}


def test_load_weights_from_file(tmp_path):
    path = tmp_path / "w.json"
    path.write_text(json.dumps({"depth": 0.15, "edge": 0.35}))
    assert load_weights(path) == {"depth": 0.15, "edge": 0.35}


def test_load_weights_rejects_bad_values(tmp_path):
    path = tmp_path / "w.json"
    path.write_text(json.dumps({"depth": 1.5}))
    with pytest.raises(ValueError, match="outside"):
        load_weights(path)
    path.write_text(json.dumps({"thermal": 0.5}))
    with pytest.raises(ValueError, match="unknown modality"):
        load_weights(path)
