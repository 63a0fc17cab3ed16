import dataclasses
import json

import numpy as np
import pytest

from attncert import (
    AttentionModelSpec,
    LinearSuffix,
    MlpSuffix,
    ValidationError,
    forward,
    forward_batch,
    forward_trace,
    load_model,
    random_model,
    save_model,
)
from attncert.model import _forward, patch_pixel_indices

from oracles import forward_broadcast


def identity_embed_model(height, width, channels, patch, **kw):
    """d_model = patch_dim, identity embedding: tokens are raw patch vectors."""
    pd = channels * patch * patch
    tokens = (height // patch) * (width // patch)
    defaults = dict(
        height=height,
        width=width,
        channels=channels,
        patch=patch,
        d_model=pd,
        d_head=pd,
        heads=1,
        n_classes=2,
        residual=False,
        w_embed=np.eye(pd),
        b_embed=np.zeros(pd),
        wq=np.zeros((1, pd, pd)),
        bq=np.zeros((1, pd)),
        wk=np.zeros((1, pd, pd)),
        bk=np.zeros((1, pd)),
        wv=np.zeros((1, pd, pd)),
        bv=np.zeros((1, pd)),
        wo=np.zeros((1, pd, pd)),
        bo=np.zeros(pd),
        mask=np.zeros((1, tokens, tokens)),
        suffix=LinearSuffix(w=np.zeros((2, tokens * pd)), b=np.zeros(2)),
    )
    defaults.update(kw)
    return AttentionModelSpec(**defaults)


class TestPatchLayout:
    def test_4x4_patch2_row_major(self):
        m = identity_embed_model(4, 4, 1, 2)
        x = np.arange(16.0)
        toks = forward_trace(m, x).tokens
        assert toks.shape == (4, 4)
        assert np.array_equal(toks[0], [0.0, 1.0, 4.0, 5.0])
        assert np.array_equal(toks[1], [2.0, 3.0, 6.0, 7.0])
        assert np.array_equal(toks[2], [8.0, 9.0, 12.0, 13.0])
        assert np.array_equal(toks[3], [10.0, 11.0, 14.0, 15.0])

    def test_channel_major_within_patch(self):
        m = identity_embed_model(2, 2, 2, 2)
        x = np.arange(8.0)
        toks = forward_trace(m, x).tokens
        assert np.array_equal(toks[0], x)

    @pytest.mark.parametrize("height, width, channels, patch", [(4, 6, 3, 2), (6, 3, 2, 3), (2, 8, 1, 1)])
    def test_indices_match_layout_loop(self, height, width, channels, patch):
        m = identity_embed_model(height, width, channels, patch)
        want = [
            [ch * height * width + (gr * patch + pr) * width + gc * patch + pc
             for ch in range(channels) for pr in range(patch) for pc in range(patch)]
            for gr in range(height // patch) for gc in range(width // patch)
        ]
        assert np.array_equal(patch_pixel_indices(m), want)

    def test_constant_image_identical_tokens(self):
        m = identity_embed_model(4, 6, 1, 2)
        toks = forward_trace(m, np.full(24, 0.7)).tokens
        assert np.all(toks == toks[0])

    def test_28x28_patch7_gives_16_tokens(self):
        m = random_model(seed=0)
        spec = AttentionModelSpec(
            height=28,
            width=28,
            channels=1,
            patch=7,
            d_model=4,
            d_head=4,
            heads=1,
            n_classes=2,
            residual=True,
            w_embed=np.zeros((4, 49)),
            b_embed=np.zeros(4),
            wq=np.zeros((1, 4, 4)),
            bq=np.zeros((1, 4)),
            wk=np.zeros((1, 4, 4)),
            bk=np.zeros((1, 4)),
            wv=np.zeros((1, 4, 4)),
            bv=np.zeros((1, 4)),
            wo=np.zeros((1, 4, 4)),
            bo=np.zeros(4),
            mask=np.zeros((1, 16, 16)),
            suffix=LinearSuffix(w=np.zeros((2, 64)), b=np.zeros(2)),
        )
        assert spec.tokens == 16
        assert patch_pixel_indices(spec).shape == (16, 49)
        assert m.tokens == 4  # fixture helper sanity

    def test_indivisible_dims_rejected(self):
        with pytest.raises(ValidationError):
            identity_embed_model(5, 4, 1, 2)


class TestForward:
    def test_zero_weights_logits_are_suffix_bias(self):
        m = identity_embed_model(2, 4, 1, 2)
        bias = np.array([0.3, -1.2])
        m2 = identity_embed_model(
            2, 4, 1, 2, w_embed=np.zeros((4, 4)), suffix=LinearSuffix(w=np.zeros((2, 8)), b=bias)
        )
        out = forward(m2, np.linspace(0, 1, 8))
        assert np.array_equal(out, bias)

    def test_single_token_identity_chain(self):
        # One token: softmax over a single key is 1, so the block output is
        # V(x) = x under identity maps, and an identity suffix returns x.
        pd = 4
        m = identity_embed_model(
            2, 2, 1, 2,
            wv=np.eye(pd)[None, :, :],
            wo=np.eye(pd)[None, :, :],
            suffix=LinearSuffix(w=np.eye(pd), b=np.zeros(pd)),
            n_classes=4,
        )
        x = np.array([0.1, 0.7, 0.2, 0.9])
        assert forward(m, x) == pytest.approx(x, abs=1e-15)
        tr = forward_trace(m, x)
        assert tr.attn[0, 0, 0] == 1.0

    def test_determinism_bit_identical(self):
        m = random_model(seed=11, tokens=3, heads=2, suffix_kind="mlp1")
        x = np.random.default_rng(0).uniform(0, 1, m.image_size)
        assert np.array_equal(forward(m, x), forward(m, x))

    def test_mask_shift_leaves_attention_row_unchanged(self):
        m = random_model(seed=12, tokens=3, heads=1)
        x = np.random.default_rng(1).uniform(0, 1, m.image_size)
        mask2 = m.mask.copy()
        mask2[0, 1, :] += 7.5  # constant shift of one score row
        m2 = AttentionModelSpec(
            **{
                **{f: getattr(m, f) for f in (
                    "height", "width", "channels", "patch", "d_model", "d_head",
                    "heads", "n_classes", "residual", "w_embed", "b_embed",
                    "wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo", "suffix",
                )},
                "mask": mask2,
            }
        )
        a1 = forward_trace(m, x).attn
        a2 = forward_trace(m2, x).attn
        assert a2[0, 1] == pytest.approx(a1[0, 1], abs=1e-12)

    def test_shape_mismatch(self):
        m = random_model(seed=13)
        with pytest.raises(ValidationError):
            forward(m, np.zeros(m.image_size + 1))

    def test_batch_matches_single(self):
        for kind in ("linear", "mlp1"):
            m = random_model(seed=14, tokens=4, heads=2, d_model=6, d_head=3, suffix_kind=kind, n_classes=3)
            xs = np.random.default_rng(2).uniform(0, 1, (20, m.image_size))
            got = forward_batch(m, xs)
            want = np.stack([forward(m, x) for x in xs])
            assert got == pytest.approx(want, abs=1e-12)

    def test_batch_shape_validation(self):
        m = random_model(seed=15)
        with pytest.raises(ValidationError):
            forward_batch(m, np.zeros((4, m.image_size + 2)))


TRACE_FIELDS = ("tokens", "scores", "attn", "head_out", "hplus", "hidden_pre", "logits")


def _with_mask(m, mask):
    fields = {f: getattr(m, f) for f in m.__dataclass_fields__}
    return AttentionModelSpec(**{**fields, "mask": mask})


def _assert_close(got, want, what):
    assert got.shape == want.shape, what
    scale = max(1.0, float(np.max(np.abs(want)))) if want.size else 1.0
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-13 * scale, what


class TestFlatForward:
    """The flat-projection forward pass against the broadcast reference."""

    @pytest.mark.parametrize("suffix_kind", ["linear", "mlp1"])
    @pytest.mark.parametrize("residual", [True, False])
    @pytest.mark.parametrize("masked", [False, True])
    def test_matches_broadcast_reference(self, suffix_kind, residual, masked):
        for seed in range(3):
            m = random_model(
                seed=seed, tokens=3 + 2 * seed, heads=1 + seed, d_model=6, d_head=3,
                n_classes=4, suffix_kind=suffix_kind, hidden=5, residual=residual,
            )
            rng = np.random.default_rng(seed)
            if masked:
                # Large negative entries, including a key masked from every
                # query and one query row masked almost everywhere.
                mask = np.where(rng.uniform(size=m.mask.shape) < 0.3, -1e9, rng.normal(size=m.mask.shape))
                mask[:, :, 0] = -1e30
                mask[0, -1, 1:] = -1e12
                m = _with_mask(m, mask)
            xs = rng.uniform(0, 1, (7, m.image_size))
            want = forward_broadcast(m, xs)
            got = _forward(m, xs)
            for f in TRACE_FIELDS:
                w, g = getattr(want, f), getattr(got, f)
                if w is None:
                    assert g is None
                    continue
                _assert_close(g, w, f)
                for r in (0, 6):
                    _assert_close(getattr(forward_trace(m, xs[r]), f), w[r], f)
            _assert_close(forward_batch(m, xs), want.logits, "forward_batch")
            for r in range(xs.shape[0]):
                _assert_close(forward(m, xs[r]), want.logits[r], "forward")

    def test_nested_leading_axes(self):
        m = random_model(seed=4, tokens=4, heads=2, d_model=6, suffix_kind="mlp1", n_classes=3)
        xs = np.random.default_rng(4).uniform(0, 1, (2, 3, m.image_size))
        want = forward_broadcast(m, xs)
        got = _forward(m, xs)
        for f in TRACE_FIELDS:
            _assert_close(getattr(got, f), getattr(want, f), f)

    def test_empty_batch(self):
        m = random_model(seed=5, tokens=2, heads=1, d_model=4, suffix_kind="mlp1", n_classes=3)
        assert forward_batch(m, np.zeros((0, m.image_size))).shape == (0, 3)

    def test_stacked_weights_built_once_per_spec(self, monkeypatch):
        m = random_model(seed=6, tokens=4, heads=2, d_model=6, suffix_kind="mlp1", n_classes=3)
        idx = patch_pixel_indices(m)
        assert idx is patch_pixel_indices(m) and not idx.flags.writeable
        with pytest.raises(ValueError):
            idx[0, 0] = 1
        calls = []
        real = np.concatenate
        monkeypatch.setattr(np, "concatenate", lambda *a, **kw: calls.append(1) or real(*a, **kw))
        forward_batch(m, np.full((3, m.image_size), 0.5))
        assert calls == []

    def test_replaced_weights_rebuild_the_stacks(self):
        m = random_model(seed=7, tokens=4, heads=2, d_model=6, suffix_kind="mlp1", n_classes=3)
        m2 = dataclasses.replace(m, wq=2.0 * m.wq, wo=-m.wo)
        x = np.random.default_rng(7).uniform(0, 1, (2, m.image_size))
        want = forward_broadcast(m2, x)
        got = _forward(m2, x)
        for f in TRACE_FIELDS:
            _assert_close(getattr(got, f), getattr(want, f), f)


class TestModelValidation:
    def test_bad_shapes_rejected(self):
        with pytest.raises(ValidationError, match="wq"):
            identity_embed_model(2, 4, 1, 2, wq=np.zeros((1, 3, 4)))
        with pytest.raises(ValidationError, match="suffix.w"):
            identity_embed_model(2, 4, 1, 2, suffix=LinearSuffix(w=np.zeros((2, 7)), b=np.zeros(2)))
        with pytest.raises(ValidationError, match="mask"):
            identity_embed_model(2, 4, 1, 2, mask=np.zeros((1, 3, 3)))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValidationError):
            identity_embed_model(2, 4, 1, 2, bo=np.array([np.inf, 0.0, 0.0, 0.0]))

    def test_single_class_rejected(self):
        with pytest.raises(ValidationError):
            identity_embed_model(2, 4, 1, 2, n_classes=1, suffix=LinearSuffix(w=np.zeros((1, 8)), b=np.zeros(1)))


class TestRandomModel:
    def test_seed_determinism(self):
        a = random_model(seed=42, suffix_kind="mlp1")
        b = random_model(seed=42, suffix_kind="mlp1")
        assert np.array_equal(a.w_embed, b.w_embed)
        assert np.array_equal(a.suffix.w1, b.suffix.w1)
        c = random_model(seed=43, suffix_kind="mlp1")
        assert not np.array_equal(a.w_embed, c.w_embed)

    def test_bad_suffix_kind(self):
        with pytest.raises(ValidationError):
            random_model(seed=0, suffix_kind="mlp9")


class TestModelIO:
    @pytest.mark.parametrize("kind", ["linear", "mlp1"])
    def test_roundtrip_bit_exact(self, tmp_path, kind):
        m = random_model(seed=21, tokens=3, heads=2, d_model=4, d_head=2, suffix_kind=kind, residual=(kind == "mlp1"))
        path = tmp_path / "model.json"
        save_model(m, str(path))
        m2 = load_model(str(path))
        for name in ("w_embed", "b_embed", "wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo", "mask"):
            assert np.array_equal(getattr(m, name), getattr(m2, name)), name
        if kind == "linear":
            assert np.array_equal(m.suffix.w, m2.suffix.w)
            assert np.array_equal(m.suffix.b, m2.suffix.b)
        else:
            for name in ("w1", "b1", "w2", "b2"):
                assert np.array_equal(getattr(m.suffix, name), getattr(m2.suffix, name)), name
        assert m2.residual == m.residual
        assert m2.suffix_kind == kind

    def _doc(self, tmp_path):
        m = random_model(seed=22, tokens=2, heads=1, d_model=3, d_head=3)
        path = tmp_path / "m.json"
        save_model(m, str(path))
        with open(path) as fh:
            return json.load(fh), path

    def _write(self, doc, path):
        with open(path, "w") as fh:
            json.dump(doc, fh)
        return str(path)

    def test_unknown_top_level_field_rejected(self, tmp_path):
        doc, path = self._doc(tmp_path)
        doc["extra"] = 1
        with pytest.raises(ValidationError, match="unknown fields.*extra"):
            load_model(self._write(doc, path))

    def test_unknown_weight_field_rejected(self, tmp_path):
        doc, path = self._doc(tmp_path)
        doc["weights"]["wz"] = doc["weights"]["wq"]
        with pytest.raises(ValidationError, match="weights"):
            load_model(self._write(doc, path))

    def test_shape_error_names_field_path(self, tmp_path):
        doc, path = self._doc(tmp_path)
        doc["weights"]["wq"][0]["w"]["shape"] = [2, 3]
        with pytest.raises(ValidationError, match=r"weights\.wq\[0\]\.w"):
            load_model(self._write(doc, path))

    def test_data_length_mismatch(self, tmp_path):
        doc, path = self._doc(tmp_path)
        doc["weights"]["embed"]["b"]["data"].append(0.0)
        with pytest.raises(ValidationError, match=r"weights\.embed\.b"):
            load_model(self._write(doc, path))

    @pytest.mark.parametrize("kind, group, name", [("linear", "embed", "w"), ("mlp1", "suffix", "w1")])
    def test_non_list_shape_names_field_path(self, tmp_path, kind, group, name):
        path = tmp_path / "m.json"
        save_model(random_model(seed=23, tokens=2, suffix_kind=kind), str(path))
        doc = json.loads(path.read_text())
        doc["weights"][group][name]["shape"] = 3
        with pytest.raises(ValidationError, match=rf"weights\.{group}\.{name}\.shape"):
            load_model(self._write(doc, path))

    def test_missing_mask_defaults_to_zeros(self, tmp_path):
        doc, path = self._doc(tmp_path)
        del doc["weights"]["mask"]
        m = load_model(self._write(doc, path))
        assert np.array_equal(m.mask, np.zeros_like(m.mask))

    def test_bad_arch_rejected(self, tmp_path):
        doc, path = self._doc(tmp_path)
        doc["arch"] = "two-block"
        with pytest.raises(ValidationError, match="arch"):
            load_model(self._write(doc, path))

    def test_non_numeric_data_rejected(self, tmp_path):
        doc, path = self._doc(tmp_path)
        doc["weights"]["embed"]["w"]["data"][0] = "zero"
        with pytest.raises(ValidationError, match=r"weights\.embed\.w"):
            load_model(self._write(doc, path))

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ValidationError, match="JSON"):
            load_model(str(path))
