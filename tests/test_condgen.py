"""Latent init, diffusion loop contract, mock denoiser, and bundles."""

import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from scenekit.condgen import (
    BackendError,
    BundleFrame,
    InconsistentDims,
    MockDenoiser,
    export_bundle,
    init_latent,
    run_diffusion,
    verify_bundle,
)
from scenekit.condgen.bundle import BundleError
from scenekit.condgen.diffusion import prompt_offset
from scenekit.condgen.latent import InvalidDims
from scenekit.render.combine import DimensionMismatch
from scenekit.render.formats import read_pfm, read_pgm


class SpyBackend:
    """Records every call and delegates to the mock denoiser."""

    def __init__(self):
        self.calls: list[tuple[int, float, str]] = []
        self._inner = MockDenoiser(prompt_sensitivity=False)

    def denoise(self, z, control, t, prompt, strength):
        self.calls.append((t, strength, prompt))
        return self._inner.denoise(z, control, t, prompt, strength)


# --- init_latent --------------------------------------------------------


def test_latent_deterministic_per_seed():
    a = init_latent((32, 32), seed=7)
    b = init_latent((32, 32), seed=7)
    c = init_latent((32, 32), seed=8)
    assert (a == b).all()
    assert not (a == c).all()
    assert a.dtype == np.float32


def test_latent_statistics_at_512():
    for seed in (0, 1, 2):
        z = init_latent((512, 512), seed=seed)
        assert abs(float(z.mean())) <= 0.02
        assert abs(float(z.var()) - 1.0) <= 0.02


def test_latent_invalid_dims():
    for shape in ((0, 0), (4, 0), (-1, 4), ()):
        with pytest.raises(InvalidDims):
            init_latent(shape, seed=0)


# --- run_diffusion loop contract ----------------------------------------


def test_exactly_steps_calls_descending():
    control = np.full((8, 8), 0.5, dtype=np.float32)
    spy = SpyBackend()
    run_diffusion(spy, control, "sunny day", steps=50, strength=0.8, seed=0)
    assert len(spy.calls) == 50
    assert [t for t, _, _ in spy.calls] == list(range(50, 0, -1))
    assert all(s == 0.8 and p == "sunny day" for _, s, p in spy.calls)


def test_single_step_base_case():
    control = np.full((4, 4), 0.25, dtype=np.float32)
    spy = SpyBackend()
    out = run_diffusion(spy, control, "p", steps=1, strength=1.0, seed=3)
    assert [t for t, _, _ in spy.calls] == [1]
    # one call at t=1 lands exactly on strength * C
    assert np.allclose(out, control, atol=1e-6)


def test_validation_rejects_bad_args():
    control = np.zeros((4, 4), dtype=np.float32)
    backend = MockDenoiser()
    with pytest.raises(ValueError, match="steps"):
        run_diffusion(backend, control, "p", steps=0)
    with pytest.raises(ValueError, match="strength"):
        run_diffusion(backend, control, "p", strength=1.5)
    with pytest.raises(ValueError, match="strength"):
        run_diffusion(backend, control, "p", strength=-0.1)
    with pytest.raises(ValueError, match="prompt"):
        run_diffusion(backend, control, "")


def test_backend_failure_carries_step_index():
    class Flaky:
        def denoise(self, z, control, t, prompt, strength):
            if t == 17:
                raise RuntimeError("gpu fell over")
            return z

    with pytest.raises(BackendError, match="t=17") as exc:
        run_diffusion(Flaky(), np.zeros((4, 4)), "p", steps=50)
    assert exc.value.step == 17


def test_backend_shape_drift_detected():
    class Shrinker:
        def denoise(self, z, control, t, prompt, strength):
            return z[:2, :2]

    with pytest.raises(BackendError, match="shape"):
        run_diffusion(Shrinker(), np.zeros((4, 4)), "p", steps=3)


# --- mock denoiser ------------------------------------------------------


def test_fixed_point_preserved_exactly():
    control = np.linspace(0.0, 1.0, 64, dtype=np.float32).reshape(8, 8)
    strength = 0.8
    z = (strength * control).astype(np.float32)
    backend = MockDenoiser(prompt_sensitivity=False)
    out = backend.denoise(z, control, t=13, prompt="p", strength=strength)
    assert (out == z).all()


def test_strength_zero_ignores_control():
    rng = np.random.default_rng(4)
    c1 = rng.random((16, 16)).astype(np.float32)
    c2 = rng.random((16, 16)).astype(np.float32)
    backend = MockDenoiser()
    a = run_diffusion(backend, c1, "p", steps=10, strength=0.0, seed=9)
    b = run_diffusion(backend, c2, "p", steps=10, strength=0.0, seed=9)
    assert (a == b).all()


def test_scalar_recurrence_telescopes():
    # Pure-python oracle: z <- z + (1/t)(a - z) for t = 50..1 from any start
    # lands exactly on a, and the residual after the t=2 call is r0/50.
    a = 0.37
    z = 7.3
    r0 = z - a
    for t in range(50, 0, -1):
        if t == 1:
            assert abs((z - a) - r0 / 50.0) < 1e-12
        z = z + (1.0 / t) * (a - z)
    assert z == a


def test_convergence_to_strength_times_control():
    rng = np.random.default_rng(12)
    control = rng.random((32, 32)).astype(np.float32)
    for sensitivity in (False, True):
        backend = MockDenoiser(prompt_sensitivity=sensitivity)
        out = run_diffusion(backend, control, "rainy night", steps=50, strength=0.8, seed=1)
        err = float(np.abs(out - 0.8 * control).max())
        assert err <= 0.01, (sensitivity, err)


def test_convergence_holds_from_ten_steps_up():
    control = np.full((8, 8), 0.9, dtype=np.float32)
    backend = MockDenoiser(prompt_sensitivity=False)
    for steps in (10, 20, 35):
        out = run_diffusion(backend, control, "p", steps=steps, strength=0.8, seed=2)
        assert float(np.abs(out - 0.72).max()) <= 0.01


def test_strength_monotonicity():
    rng = np.random.default_rng(21)
    control = rng.random((16, 16)).astype(np.float32)  # nonnegative
    backend = MockDenoiser()
    outputs = [
        run_diffusion(backend, control, "p", steps=25, strength=s, seed=6)
        for s in (0.0, 0.3, 0.8, 1.0)
    ]
    for lo, hi in zip(outputs, outputs[1:]):
        assert (hi - lo >= -1e-6).all()


def test_purity():
    control = np.full((8, 8), 0.4, dtype=np.float32)
    backend = MockDenoiser()
    a = run_diffusion(backend, control, "dusk", steps=30, strength=0.5, seed=11)
    b = run_diffusion(backend, control, "dusk", steps=30, strength=0.5, seed=11)
    assert a.tobytes() == b.tobytes()


def test_prompt_changes_output():
    control = np.full((8, 8), 0.4, dtype=np.float32)
    backend = MockDenoiser()
    a = run_diffusion(backend, control, "sunny day", steps=20, strength=0.8, seed=0)
    b = run_diffusion(backend, control, "foggy evening", steps=20, strength=0.8, seed=0)
    assert not (a == b).all()


def test_prompt_offset_bounds():
    for prompt in ("sunny day", "foggy evening", "rainy night", "x" * 500, "?"):
        assert abs(prompt_offset(prompt)) <= 0.001
        assert prompt_offset(prompt) == prompt_offset(prompt)


def test_prompt_hashed_once_per_diffusion_run(monkeypatch):
    sha256 = hashlib.sha256
    hashed = []
    monkeypatch.setattr(hashlib, "sha256", lambda data: hashed.append(data) or sha256(data))
    prompt_offset.cache_clear()
    control = np.full((8, 8), 0.4, dtype=np.float32)
    run_diffusion(MockDenoiser(), control, "hazy noon", steps=12, strength=0.8, seed=0)
    assert hashed == [b"hazy noon"]


def test_mock_rejects_dimension_mismatch():
    backend = MockDenoiser()
    with pytest.raises(DimensionMismatch):
        backend.denoise(np.zeros((4, 4)), np.zeros((4, 5)), 1, "p", 0.5)


@st.composite
def _denoise_inputs(draw):
    shape = draw(array_shapes(min_dims=1, max_dims=3, max_side=12))
    # latents the loop sees stay within a few units of zero; controls are [0, 1]
    z = draw(arrays(np.float32, shape, elements=st.floats(-2.0, 2.0, width=32)))
    control = draw(arrays(np.float32, shape, elements=st.floats(0.0, 1.0, width=32)))
    return z, control


@settings(max_examples=200, deadline=None)
@given(
    inputs=_denoise_inputs(),
    t=st.integers(1, 1000),
    strength=st.floats(0.0, 1.0),
    prompt=st.text(min_size=1, max_size=20),
    sensitive=st.booleans(),
)
def test_denoise_float32_step_matches_float64_reference(inputs, t, strength, prompt, sensitive):
    z, control = inputs
    z_before, control_before = z.copy(), control.copy()
    out = MockDenoiser(prompt_sensitivity=sensitive).denoise(z, control, t, prompt, strength)
    assert out.dtype == np.float32
    assert out.shape == z.shape
    assert np.array_equal(z, z_before) and np.array_equal(control, control_before)
    z64 = z.astype(np.float64)
    reference = z64 + (1.0 / t) * (strength * control.astype(np.float64) - z64)
    if sensitive:
        reference += prompt_offset(prompt)
    assert float(np.abs(out - reference).max()) <= 1e-6


# --- bundles ------------------------------------------------------------


def _frame(seed, shape=(6, 8)):
    rng = np.random.default_rng(seed)
    return BundleFrame(
        seg=rng.integers(0, 6, size=shape).astype(np.uint8),
        depth=rng.random(shape).astype(np.float32) * 100.0,
        edge=(rng.random(shape) < 0.1).astype(np.uint8),
        combined=rng.random(shape).astype(np.float32),
        latent_final=rng.standard_normal(shape).astype(np.float32),
    )


CONFIG = {
    "steps": 50,
    "strength": 0.8,
    "weights": {"depth": 0.3, "edge": 0.4},
    "camera": {"variant": "topdown", "center": [0.0, 0.0]},
    "seed": 0,
}


def test_export_layout_and_verify(tmp_path):
    frames = [_frame(i) for i in range(3)]
    manifest = export_bundle(frames, "sunny day", CONFIG, tmp_path / "b")
    root = tmp_path / "b"
    assert (root / "manifest.json").is_file()
    assert (root / "prompt.txt").read_text() == "sunny day"
    assert json.loads((root / "config.json").read_text()) == CONFIG
    for i in range(3):
        frame_dir = root / "frames" / f"{i:06d}"
        for name in ("seg.pgm", "depth.pfm", "edge.pgm", "combined.pfm", "latent_final.pfm"):
            assert (frame_dir / name).is_file(), name
    assert len(manifest["files"]) == 3 * 5 + 2  # rasters + prompt + config
    assert verify_bundle(root) == []
    # rasters round-trip bit exact through the bundle
    assert (read_pgm(root / "frames/000001/seg.pgm") == frames[1].seg).all()
    assert (read_pfm(root / "frames/000002/latent_final.pfm") == frames[2].latent_final).all()


def test_reexport_is_byte_identical(tmp_path):
    frames = [_frame(i) for i in range(2)]
    m1 = export_bundle(frames, "p", CONFIG, tmp_path / "one")
    m2 = export_bundle(frames, "p", CONFIG, tmp_path / "two")
    assert m1 == m2
    assert (tmp_path / "one" / "manifest.json").read_bytes() == (
        tmp_path / "two" / "manifest.json"
    ).read_bytes()


def test_verify_detects_tamper_missing_and_stray(tmp_path):
    export_bundle([_frame(0)], "p", CONFIG, tmp_path / "b")
    root = tmp_path / "b"
    target = root / "frames" / "000000" / "seg.pgm"
    data = bytearray(target.read_bytes())
    data[-1] ^= 0xFF
    target.write_bytes(bytes(data))
    problems = verify_bundle(root)
    assert any("hash mismatch" in p and "seg.pgm" in p for p in problems)

    (root / "frames" / "000000" / "edge.pgm").unlink()
    problems = verify_bundle(root)
    assert any("missing file" in p for p in problems)

    (root / "stray.txt").write_text("who put this here")
    problems = verify_bundle(root)
    assert any("unlisted file" in p for p in problems)


def test_shorter_reexport_leaves_stale_frames_unlisted(tmp_path):
    root = tmp_path / "b"
    export_bundle([_frame(i) for i in range(3)], "p", CONFIG, root)
    manifest = export_bundle([_frame(0)], "p", CONFIG, root)
    assert len(manifest["files"]) == 5 + 2  # one frame's rasters + prompt + config
    problems = verify_bundle(root)
    assert len(problems) == 2 * 5
    assert all(p.startswith("unlisted file: frames/00000") for p in problems)
    assert "unlisted file: frames/000002/latent_final.pfm" in problems

def test_verify_without_manifest(tmp_path):
    assert verify_bundle(tmp_path) == [f"no manifest.json in {tmp_path}"]


def test_verify_reports_files_list_as_unreadable(tmp_path):
    (tmp_path / "manifest.json").write_text('{"version": 1, "files": []}')
    assert verify_bundle(tmp_path) == [
        f"unreadable manifest in {tmp_path}: 'files' is not an object"
    ]


def test_verify_reports_non_utf8_manifest_as_unreadable(tmp_path):
    (tmp_path / "manifest.json").write_bytes(b'{"files": {"\xff": "00"}}')
    [problem] = verify_bundle(tmp_path)
    assert problem.startswith(f"unreadable manifest in {tmp_path}: ")


@pytest.mark.parametrize("rel", ["../outside.txt", "frames/../../outside.txt", "ABSOLUTE"])
def test_verify_never_opens_paths_outside_the_bundle(tmp_path, rel):
    outside = tmp_path / "outside.txt"
    outside.write_text("not part of the bundle")
    if rel == "ABSOLUTE":
        rel = str(outside)
    digest = hashlib.sha256(outside.read_bytes()).hexdigest()
    root = tmp_path / "b"
    root.mkdir()
    (root / "manifest.json").write_text(json.dumps({"version": 1, "files": {rel: digest}}))
    assert verify_bundle(root) == [f"unsafe path: {rel}"]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_any_one_byte_change_fails_verify(data):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "b"
        manifest = export_bundle([_frame(i, shape=(8, 8)) for i in range(2)], "p", CONFIG, root)
        rel = data.draw(st.sampled_from(sorted(manifest["files"])), label="file")
        blob = bytearray((root / rel).read_bytes())
        if data.draw(st.booleans(), label="truncate"):
            del blob[-1]
        else:
            at = data.draw(st.integers(0, len(blob) - 1), label="offset")
            blob[at] ^= data.draw(st.integers(1, 255), label="mask")
        (root / rel).write_bytes(bytes(blob))
        assert verify_bundle(root) == [f"hash mismatch: {rel}"]


def test_inconsistent_dims_names_the_frame(tmp_path):
    frames = [_frame(i) for i in range(3)] + [_frame(9, shape=(5, 8))]
    with pytest.raises(InconsistentDims, match="frame 3"):
        export_bundle(frames, "p", CONFIG, tmp_path / "b")


def test_mixed_rasters_within_one_frame(tmp_path):
    good = _frame(0)
    bad = BundleFrame(
        seg=good.seg,
        depth=good.depth[:4],
        edge=good.edge,
        combined=good.combined,
        latent_final=good.latent_final,
    )
    with pytest.raises(InconsistentDims, match="depth"):
        export_bundle([bad], "p", CONFIG, tmp_path / "b")


def test_empty_inputs_rejected(tmp_path):
    with pytest.raises(BundleError, match="at least one frame"):
        export_bundle([], "p", CONFIG, tmp_path / "b")
    with pytest.raises(BundleError, match="prompt"):
        export_bundle([_frame(0)], "", CONFIG, tmp_path / "b")


def test_trace_included_and_hashed(tmp_path):
    from scenekit.dsl.nodes import AgentClass
    from scenekit.sim.engine import AgentState, Trace
    from scenekit.sim.traceio import read_trace_json

    state = AgentState("ego", AgentClass.CAR, 1.0, 2.0, 0.0, 5.0, 4.5, 2.0, "cruising")
    trace = Trace(map_name="straight", dt=0.05, frames=[[state]], events=[], termination="timeout")
    manifest = export_bundle([_frame(0)], "p", CONFIG, tmp_path / "b", trace=trace)
    assert "trace.json" in manifest["files"]
    back = read_trace_json(tmp_path / "b" / "trace.json")
    assert back.map_name == "straight"
    assert back.frames[0][0].name == "ego"
    assert verify_bundle(tmp_path / "b") == []
