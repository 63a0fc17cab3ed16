import base64
import dataclasses
import json
import math
import re
import struct
from operator import attrgetter

import numpy as np
import pytest

from attncert import (
    AttentionModelSpec,
    LinearSuffix,
    MlpSuffix,
    ValidationError,
    forward,
    forward_batch,
    load_model,
    random_model,
    save_model,
)
from attncert.model import _FORWARD_BLOCK_ELEMENTS, _LEAVES, _forward, patch_pixel_indices

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
        toks = forward_broadcast(m, x).tokens
        assert toks.shape == (4, 4)
        assert np.array_equal(toks[0], [0.0, 1.0, 4.0, 5.0])
        assert np.array_equal(toks[1], [2.0, 3.0, 6.0, 7.0])
        assert np.array_equal(toks[2], [8.0, 9.0, 12.0, 13.0])
        assert np.array_equal(toks[3], [10.0, 11.0, 14.0, 15.0])

    def test_channel_major_within_patch(self):
        m = identity_embed_model(2, 2, 2, 2)
        x = np.arange(8.0)
        toks = forward_broadcast(m, x).tokens
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
        toks = forward_broadcast(m, np.full(24, 0.7)).tokens
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
        tr = forward_broadcast(m, x)
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
        a1 = forward_broadcast(m, x).attn
        a2 = forward_broadcast(m2, x).attn
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
            _assert_close(_forward(m, xs), want.logits, "_forward")
            _assert_close(forward_batch(m, xs), want.logits, "forward_batch")
            for r in range(xs.shape[0]):
                _assert_close(forward(m, xs[r]), want.logits[r], "forward")

    def test_nested_leading_axes(self):
        m = random_model(seed=4, tokens=4, heads=2, d_model=6, suffix_kind="mlp1", n_classes=3)
        xs = np.random.default_rng(4).uniform(0, 1, (2, 3, m.image_size))
        _assert_close(_forward(m, xs), forward_broadcast(m, xs).logits, "logits")

    @pytest.mark.parametrize("suffix_kind", ["linear", "mlp1"])
    def test_blocks_match_reference_and_per_block_calls(self, suffix_kind):
        # Shape M: 16 tokens and 4 heads, so a block is 16 points.
        m = random_model(seed=8, tokens=16, heads=4, d_model=16, d_head=4, n_classes=10, suffix_kind=suffix_kind)
        block = _FORWARD_BLOCK_ELEMENTS // (m.tokens**2 * m.heads)
        assert block == 16
        rng = np.random.default_rng(8)
        xs = rng.uniform(0, 1, (3 * block + 5, m.image_size))
        got = forward_batch(m, xs)
        _assert_close(got, forward_broadcast(m, xs).logits, "forward_batch")
        per_block = np.concatenate([forward_batch(m, xs[i : i + block]) for i in range(0, xs.shape[0], block)])
        assert np.array_equal(got, per_block)
        # 3 * 7 = 21 points: one full block and one of 5, across the inner axis.
        nested = rng.uniform(0, 1, (3, 7, m.image_size))
        got = _forward(m, nested)
        _assert_close(got, forward_broadcast(m, nested).logits, "_forward")
        flat = nested.reshape(-1, m.image_size)
        per_block = np.concatenate((forward_batch(m, flat[:block]), forward_batch(m, flat[block:])))
        assert np.array_equal(got, per_block.reshape(3, 7, m.n_classes))

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
        _assert_close(_forward(m2, x), forward_broadcast(m2, x).logits, "logits")


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

    @pytest.mark.parametrize(
        "bad, named",
        [(("wo",), "wo"), (("suffix.b", "w_embed"), "w_embed"), (("mask", "suffix.w"), "mask")],
        ids=["wo", "embed-before-suffix", "mask-before-suffix"],
    )
    def test_first_non_finite_field_named(self, bad, named):
        m = random_model(seed=0, tokens=2, heads=2, d_model=4)
        fields = {}
        for name in bad:
            a = attrgetter(name)(m).copy()
            a.flat[-1] = np.nan
            fields[name] = a
        sfx = {name[len("suffix."):]: fields.pop(name) for name in list(fields) if name.startswith("suffix.")}
        if sfx:
            fields["suffix"] = dataclasses.replace(m.suffix, **sfx)
        with pytest.raises(ValidationError, match="^" + re.escape(f"{named}: entries must be finite") + "$"):
            dataclasses.replace(m, **fields)

    def test_single_class_rejected(self):
        with pytest.raises(ValidationError):
            identity_embed_model(2, 4, 1, 2, n_classes=1, suffix=LinearSuffix(w=np.zeros((1, 8)), b=np.zeros(1)))

    def test_bool_size_rejected(self):
        m = random_model(seed=0, heads=1, d_model=4, d_head=4)
        with pytest.raises(ValidationError, match="^heads must be an integer"):
            dataclasses.replace(m, heads=True)

    @pytest.mark.parametrize("residual", ["no", None, 1, 0.0, True, False, np.True_])
    def test_residual_must_be_a_bool(self, residual, tmp_path):
        m = random_model(seed=0)
        if not isinstance(residual, (bool, np.bool_)):
            with pytest.raises(ValidationError, match="^residual must be a bool"):
                dataclasses.replace(m, residual=residual)
            with pytest.raises(ValidationError, match="^residual must be a bool"):
                random_model(seed=0, residual=residual)
            return
        got = dataclasses.replace(m, residual=residual)
        assert type(got.residual) is bool and got.residual == bool(residual)
        path = tmp_path / "m.json"
        save_model(got, str(path))
        arch = json.loads(path.read_text(encoding="utf-8"))["arch"]
        assert arch == ("patch-attn-residual" if residual else "patch-attn")


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

    @pytest.mark.parametrize(
        "kw",
        [{"tokens": 0}, {"heads": 0}, {"d_model": 0}, {"patch": 0}, {"hidden": 0, "suffix_kind": "mlp1"}, {"seed": -1}],
    )
    def test_bad_size_or_seed_rejected(self, kw):
        name = next(iter(kw))
        with pytest.raises(ValidationError, match=f"^{name} must be an integer"):
            random_model(**{"seed": 0, **kw})

    @pytest.mark.parametrize(
        "scale, match",
        [
            ("x", "weight_scale must be a number"),
            (True, "weight_scale must be a number"),
            (float("nan"), "weight_scale must be finite"),
            (float("-inf"), "weight_scale must be finite"),
        ],
        ids=["str", "bool", "nan", "-inf"],
    )
    def test_bad_weight_scale_rejected(self, scale, match):
        with pytest.raises(ValidationError, match=match):
            random_model(seed=0, weight_scale=scale)

    @pytest.mark.parametrize("kind", ["linear", "mlp1"])
    def test_draws_follow_the_documented_stream(self, kind):
        seed, tokens, heads, d_model, d_head, patch, channels, classes, hidden, scale = 5, 3, 2, 4, 3, 2, 2, 3, 5, 1.5
        m = random_model(
            seed=seed, tokens=tokens, heads=heads, d_model=d_model, d_head=d_head, patch=patch, channels=channels,
            n_classes=classes, suffix_kind=kind, hidden=hidden, weight_scale=scale,
        )
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
        pd, pooled = channels * patch * patch, tokens * d_model

        def draw(shape, fan_in):
            return rng.standard_normal(shape) * (scale / math.sqrt(fan_in))

        want = [
            ("w_embed", draw((d_model, pd), pd)),
            ("b_embed", draw((d_model,), pd)),
            ("wq", draw((heads, d_head, d_model), d_model)),
            ("bq", draw((heads, d_head), d_model)),
            ("wk", draw((heads, d_head, d_model), d_model)),
            ("bk", draw((heads, d_head), d_model)),
            ("wv", draw((heads, d_head, d_model), d_model)),
            ("bv", draw((heads, d_head), d_model)),
            ("wo", draw((heads, d_model, d_head), heads * d_head)),
            ("bo", draw((d_model,), heads * d_head)),
        ]
        if kind == "linear":
            want += [("suffix.w", draw((classes, pooled), pooled)), ("suffix.b", draw((classes,), pooled))]
        else:
            want += [
                ("suffix.w1", draw((hidden, pooled), pooled)),
                ("suffix.b1", draw((hidden,), pooled)),
                ("suffix.w2", draw((classes, hidden), hidden)),
                ("suffix.b2", draw((classes,), hidden)),
            ]
        for name, a in want:
            got = getattr(m.suffix, name[7:]) if name.startswith("suffix.") else getattr(m, name)
            assert np.array_equal(got, a), name
        assert np.array_equal(m.mask, np.zeros((heads, tokens, tokens)))
        assert (m.height, m.width, m.channels, m.patch) == (patch, patch * tokens, channels, patch)


def _half_steps(start, *shape):
    """Entries start/2, (start+1)/2, ... in row-major order."""
    return np.arange(start, start + math.prod(shape)).reshape(shape) / 2


def _arr(shape, *data):
    return {"shape": list(shape), "data": list(data)}


def _b64(values) -> str:
    """Standard padded base64 of the values as little-endian float64s."""
    return base64.b64encode(struct.pack(f"<{len(values)}d", *values)).decode("ascii")


def _floats(text: str) -> list[float]:
    raw = base64.b64decode(text)
    return list(struct.unpack(f"<{len(raw) // 8}d", raw))


def _map_data(node, f):
    """A weights node with f applied to every array's data."""
    if isinstance(node, list):
        return [_map_data(v, f) for v in node]
    if "data" in node:
        return {**node, "data": f(node["data"])}
    return {key: _map_data(v, f) for key, v in node.items()}


def _with_data(doc, f):
    return {**doc, "weights": _map_data(doc["weights"], f)}


def _leaf_bytes(m) -> dict[str, bytes]:
    """Every array of a spec, as its raw bytes, by leaf."""
    return {name: attrgetter(name)(m).tobytes() for name in _LEAVES[m.suffix_kind]}


# Two small specs with np.arange weights and their weight files in the
# number-list form, written out by hand: the format must not move with
# numpy's random streams.  save_model writes each list as _b64 of its values;
# older and hand-written files keep the lists, which load_model still reads.
FORMAT_CASES = {
    "linear": (
        dict(
            height=1, width=2, channels=1, patch=1, d_model=2, d_head=1, heads=2, n_classes=2, residual=False,
            w_embed=_half_steps(0, 2, 1), b_embed=_half_steps(2, 2),
            wq=_half_steps(4, 2, 1, 2), bq=_half_steps(8, 2, 1),
            wk=_half_steps(10, 2, 1, 2), bk=_half_steps(14, 2, 1),
            wv=_half_steps(16, 2, 1, 2), bv=_half_steps(20, 2, 1),
            wo=_half_steps(22, 2, 2, 1), bo=_half_steps(26, 2),
            mask=-_half_steps(28, 2, 2, 2),
            suffix=LinearSuffix(w=_half_steps(36, 2, 4), b=_half_steps(44, 2)),
        ),
        {
            "arch": "patch-attn",
            "dims": {"height": 1, "width": 2, "channels": 1, "d_model": 2, "d_head": 1, "classes": 2},
            "patch": 1,
            "heads": 2,
            "suffix_kind": "linear",
            "weights": {
                "embed": {"w": _arr([2, 1], 0.0, 0.5), "b": _arr([2], 1.0, 1.5)},
                "wq": [
                    {"w": _arr([1, 2], 2.0, 2.5), "b": _arr([1], 4.0)},
                    {"w": _arr([1, 2], 3.0, 3.5), "b": _arr([1], 4.5)},
                ],
                "wk": [
                    {"w": _arr([1, 2], 5.0, 5.5), "b": _arr([1], 7.0)},
                    {"w": _arr([1, 2], 6.0, 6.5), "b": _arr([1], 7.5)},
                ],
                "wv": [
                    {"w": _arr([1, 2], 8.0, 8.5), "b": _arr([1], 10.0)},
                    {"w": _arr([1, 2], 9.0, 9.5), "b": _arr([1], 10.5)},
                ],
                "wo": {"w": [_arr([2, 1], 11.0, 11.5), _arr([2, 1], 12.0, 12.5)], "b": _arr([2], 13.0, 13.5)},
                "mask": _arr([2, 2, 2], -14.0, -14.5, -15.0, -15.5, -16.0, -16.5, -17.0, -17.5),
                "suffix": {
                    "w": _arr([2, 4], 18.0, 18.5, 19.0, 19.5, 20.0, 20.5, 21.0, 21.5),
                    "b": _arr([2], 22.0, 22.5),
                },
            },
        },
    ),
    "mlp1": (
        dict(
            height=1, width=2, channels=1, patch=1, d_model=1, d_head=1, heads=1, n_classes=2, residual=True,
            w_embed=_half_steps(0, 1, 1), b_embed=_half_steps(1, 1),
            wq=_half_steps(2, 1, 1, 1), bq=_half_steps(3, 1, 1),
            wk=_half_steps(4, 1, 1, 1), bk=_half_steps(5, 1, 1),
            wv=_half_steps(6, 1, 1, 1), bv=_half_steps(7, 1, 1),
            wo=_half_steps(8, 1, 1, 1), bo=_half_steps(9, 1),
            mask=-_half_steps(10, 1, 2, 2),
            suffix=MlpSuffix(
                w1=_half_steps(14, 2, 2), b1=_half_steps(18, 2), w2=_half_steps(20, 2, 2), b2=_half_steps(24, 2)
            ),
        ),
        {
            "arch": "patch-attn-residual",
            "dims": {"height": 1, "width": 2, "channels": 1, "d_model": 1, "d_head": 1, "classes": 2},
            "patch": 1,
            "heads": 1,
            "suffix_kind": "mlp1",
            "weights": {
                "embed": {"w": _arr([1, 1], 0.0), "b": _arr([1], 0.5)},
                "wq": [{"w": _arr([1, 1], 1.0), "b": _arr([1], 1.5)}],
                "wk": [{"w": _arr([1, 1], 2.0), "b": _arr([1], 2.5)}],
                "wv": [{"w": _arr([1, 1], 3.0), "b": _arr([1], 3.5)}],
                "wo": {"w": [_arr([1, 1], 4.0)], "b": _arr([1], 4.5)},
                "mask": _arr([1, 2, 2], -5.0, -5.5, -6.0, -6.5),
                "suffix": {
                    "w1": _arr([2, 2], 7.0, 7.5, 8.0, 8.5),
                    "b1": _arr([2], 9.0, 9.5),
                    "w2": _arr([2, 2], 10.0, 10.5, 11.0, 11.5),
                    "b2": _arr([2], 12.0, 12.5),
                },
            },
        },
    ),
}

# Every array leaf of a weight file with two heads, by suffix kind.
_BLOCK_LEAVES = [
    "weights.embed.w", "weights.embed.b",
    *(f"weights.{g}[{h}].{p}" for g in ("wq", "wk", "wv") for h in (0, 1) for p in ("w", "b")),
    "weights.wo.w[0]", "weights.wo.w[1]", "weights.wo.b", "weights.mask",
]
LEAF_PATHS = [("linear", p) for p in _BLOCK_LEAVES + ["weights.suffix.w", "weights.suffix.b"]] + [
    ("mlp1", p) for p in _BLOCK_LEAVES + [f"weights.suffix.{n}" for n in ("w1", "b1", "w2", "b2")]
]


def _node(doc, path):
    """The node of a weight file at a field path such as weights.wq[1].b."""
    node = doc
    for key, index in re.findall(r"\.?(\w+)(?:\[(\d+)\])?", path):
        node = node[key]
        if index:
            node = node[int(index)]
    return node


class TestModelIO:
    @pytest.mark.parametrize("kind", ["linear", "mlp1"])
    def test_roundtrip_bit_exact(self, tmp_path, kind):
        m = random_model(seed=21, tokens=3, heads=2, d_model=4, d_head=2, suffix_kind=kind, residual=(kind == "mlp1"))
        # np.array_equal takes -0.0 for 0.0, so the bytes are compared, with
        # a negative zero, a subnormal and values near the float64 limit planted.
        w_embed, wq = m.w_embed.copy(), m.wq.copy()
        w_embed.flat[:3] = -0.0, 5e-324, 1.7976931348623157e308
        wq[1].flat[-2:] = -2.2250738585072014e-308, -1.5e308
        m = dataclasses.replace(m, w_embed=w_embed, wq=wq)
        path = tmp_path / "model.json"
        save_model(m, str(path))
        m2 = load_model(str(path))
        assert _leaf_bytes(m2) == _leaf_bytes(m)
        for name in _LEAVES[kind]:
            a = attrgetter(name)(m2)
            assert a.dtype == np.float64 and a.dtype.isnative and a.flags.writeable, name
        assert m2.residual == m.residual
        assert m2.suffix_kind == kind

    def _doc(self, tmp_path):
        m = random_model(seed=22, tokens=2, heads=1, d_model=3, d_head=3)
        path = tmp_path / "m.json"
        save_model(m, str(path))
        with open(path) as fh:
            return json.load(fh), path

    def _list_doc(self, tmp_path):
        """_doc with every array's data rewritten as a number list."""
        doc, path = self._doc(tmp_path)
        return _with_data(doc, _floats), path

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

    @pytest.mark.parametrize("kind, leaf", LEAF_PATHS)
    def test_shape_error_names_field_path(self, tmp_path, kind, leaf):
        path = tmp_path / "m.json"
        save_model(random_model(seed=24, tokens=2, heads=2, d_model=2, suffix_kind=kind, hidden=3), str(path))
        doc = json.loads(path.read_text())
        node = _node(doc, leaf)
        node["shape"] = node["shape"] + [1]
        with pytest.raises(ValidationError, match=re.escape(leaf) + ": expected shape"):
            load_model(self._write(doc, path))

    @pytest.mark.parametrize("kind, leaf", LEAF_PATHS)
    def test_non_finite_entry_names_field_path(self, tmp_path, kind, leaf):
        path = tmp_path / "m.json"
        save_model(random_model(seed=24, tokens=2, heads=2, d_model=2, suffix_kind=kind, hidden=3), str(path))
        doc = json.loads(path.read_text())
        node = _node(doc, leaf)
        node["data"] = _b64([math.inf] + _floats(node["data"])[1:])
        with pytest.raises(ValidationError, match="^" + re.escape(f"{leaf}: entries must be finite") + "$"):
            load_model(self._write(doc, path))

    def _heads_doc(self, tmp_path):
        """A linear model's file with three heads."""
        path = tmp_path / "m.json"
        save_model(random_model(seed=25, tokens=2, heads=3, d_model=3, d_head=2), str(path))
        return json.loads(path.read_text()), path

    @pytest.mark.parametrize(
        "bad, named",
        [
            (["weights.wq[2].w"], "weights.wq[2].w"),
            (["weights.suffix.b", "weights.embed.w"], "weights.embed.w"),
            # Within a per-head group the file runs head by head.
            (["weights.wq[2].w", "weights.wq[1].b"], "weights.wq[1].b"),
            (["weights.wk[0].w", "weights.wq[2].b"], "weights.wq[2].b"),
        ],
        ids=["one-head", "embed-before-suffix", "head-order", "group-order"],
    )
    def test_first_non_finite_leaf_in_file_order_named(self, tmp_path, bad, named):
        doc, path = self._heads_doc(tmp_path)
        for leaf in bad:
            node = _node(doc, leaf)
            values = _floats(node["data"])
            values[-1] = math.nan
            node["data"] = _b64(values)
        with pytest.raises(ValidationError, match="^" + re.escape(f"{named}: entries must be finite") + "$"):
            load_model(self._write(doc, path))

    def test_overflowing_list_entry_named(self, tmp_path):
        # JSON's 1e400 reads as inf; json.dump cannot write it, so it is
        # spliced into the text.
        doc, path = self._heads_doc(tmp_path)
        doc = _with_data(doc, _floats)
        _node(doc, "weights.wq[2].w")["data"][0] = "overflow"
        path.write_text(json.dumps(doc).replace('"overflow"', "1e400"))
        with pytest.raises(ValidationError, match=r"^weights\.wq\[2\]\.w: entries must be finite$"):
            load_model(str(path))

    @pytest.mark.parametrize("kind", ["linear", "mlp1"])
    def test_saved_format_is_pinned(self, tmp_path, kind):
        fields, lists = FORMAT_CASES[kind]
        want = _with_data(lists, _b64)
        # embed.w holds 0.0 and 0.5 for the linear case, 0.0 for mlp1.
        embed_w = {"linear": "AAAAAAAAAAAAAAAAAADgPw==", "mlp1": "AAAAAAAAAAA="}[kind]
        assert want["weights"]["embed"]["w"]["data"] == embed_w
        path = tmp_path / "m.json"
        save_model(AttentionModelSpec(**fields), str(path))
        text = path.read_bytes().decode("utf-8")
        assert json.loads(text) == want
        assert text == json.dumps(want, indent=1) + "\n"
        back = load_model(str(path))  # every array, the nonzero mask included, reads back
        assert _leaf_bytes(back) == _leaf_bytes(AttentionModelSpec(**fields))

    @pytest.mark.parametrize("kind", ["linear", "mlp1"])
    def test_number_list_form_still_read(self, tmp_path, kind):
        # Files saved before the base64 form, and hand-written ones, carry
        # number lists; they load to the same arrays, byte for byte.
        fields, lists = FORMAT_CASES[kind]
        back = load_model(self._write(lists, tmp_path / "m.json"))
        assert _leaf_bytes(back) == _leaf_bytes(AttentionModelSpec(**fields))

    @pytest.mark.parametrize("where", ["missing-directory", "directory"])
    def test_unwritable_path_rejected(self, tmp_path, where):
        # As load_model names a file it cannot read, save_model names a path
        # it cannot write.
        path = tmp_path / "missing" / "m.json" if where == "missing-directory" else tmp_path
        with pytest.raises(ValidationError, match=re.escape(f"{path}: ")):
            save_model(random_model(seed=0, tokens=4, n_classes=3), str(path))

    @pytest.mark.parametrize("group", ["wv", "wo.w"])
    def test_wrong_head_count_rejected(self, tmp_path, group):
        doc, path = self._doc(tmp_path)
        heads = _node(doc, f"weights.{group}")
        heads.append(heads[0])
        with pytest.raises(ValidationError, match=re.escape(f"weights.{group}: expected a list of 1 head")):
            load_model(self._write(doc, path))

    def test_missing_field_rejected(self, tmp_path):
        doc, path = self._doc(tmp_path)
        del doc["weights"]["embed"]["b"]
        with pytest.raises(ValidationError, match=re.escape("weights.embed: missing fields ['b']")):
            load_model(self._write(doc, path))

    @pytest.mark.parametrize("where", ["weights", "weights.embed", "weights.wq[0]", "weights.suffix", "weights.mask"])
    def test_non_object_node_rejected(self, tmp_path, where):
        doc, path = self._doc(tmp_path)
        parent, _, key = where.rpartition(".")
        if key.endswith("[0]"):
            _node(doc, parent)[key[:-3]][0] = [1.0]
        else:
            _node(doc, parent)[key] = [1.0]
        with pytest.raises(ValidationError, match=re.escape(f"{where}: expected an object")):
            load_model(self._write(doc, path))

    @pytest.mark.parametrize("value", [0, True])
    def test_bad_dim_rejected(self, tmp_path, value):
        doc, path = self._doc(tmp_path)
        doc["dims"]["height"] = value
        with pytest.raises(ValidationError, match=r"dims\.height"):
            load_model(self._write(doc, path))

    def test_zero_heads_rejected(self, tmp_path):
        doc, path = self._doc(tmp_path)
        doc["heads"] = 0
        with pytest.raises(ValidationError, match=r"^heads\b"):
            load_model(self._write(doc, path))

    def test_patch_not_dividing_width_rejected(self, tmp_path):
        doc, path = self._doc(tmp_path)
        doc["dims"]["width"] = 5
        with pytest.raises(ValidationError, match=r"^patch: 2 must divide height 2 and width 5"):
            load_model(self._write(doc, path))

    def test_unknown_suffix_kind_rejected(self, tmp_path):
        doc, path = self._doc(tmp_path)
        doc["suffix_kind"] = "mlp2"
        with pytest.raises(ValidationError, match=r"^suffix_kind"):
            load_model(self._write(doc, path))

    def test_data_length_mismatch(self, tmp_path):
        doc, path = self._list_doc(tmp_path)
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
        doc, path = self._list_doc(tmp_path)
        doc["weights"]["embed"]["w"]["data"][0] = "zero"
        with pytest.raises(ValidationError, match=r"weights\.embed\.w"):
            load_model(self._write(doc, path))

    def test_huge_width_without_mask_rejected_before_allocating(self, tmp_path):
        # The default mask would take 7.28 TiB; the suffix's data bounds the
        # token count, so it is checked first.
        path = tmp_path / "m.json"
        save_model(random_model(seed=0, tokens=2, heads=1, d_model=2, d_head=2), str(path))
        doc = json.loads(path.read_text())
        del doc["weights"]["mask"]
        doc["dims"]["width"] = 2_000_000
        with pytest.raises(ValidationError, match=r"weights\.suffix\.w: expected shape"):
            load_model(self._write(doc, path))

    def test_shape_past_int64_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        save_model(random_model(seed=0, tokens=2, heads=1, d_model=2, d_head=2), str(path))
        doc = json.loads(path.read_text())
        del doc["weights"]["mask"]
        doc["dims"]["width"] = 2 * 10**20
        doc["weights"]["suffix"]["w"]["shape"] = [2, 2 * 10**20]
        with pytest.raises(ValidationError, match=r"weights\.suffix\.w: data length"):
            load_model(self._write(doc, path))

    def test_integer_data_past_float_range_rejected(self, tmp_path):
        doc, path = self._list_doc(tmp_path)
        doc["weights"]["embed"]["b"]["data"][0] = 10**400
        with pytest.raises(ValidationError, match=r"weights\.embed\.b: non-numeric"):
            load_model(self._write(doc, path))

    @pytest.mark.parametrize(
        "edit",
        [lambda d: ["1.5"] + d[1:], lambda d: [True] + d[1:], lambda d: [[v] for v in d]],
        ids=["string", "bool", "one-element-lists"],
    )
    def test_data_entries_that_are_not_numbers_rejected(self, tmp_path, edit):
        # numpy reads each of these as float data; a weight must be a JSON number.
        doc, path = self._list_doc(tmp_path)
        b = doc["weights"]["embed"]["b"]
        b["data"] = edit(b["data"])
        with pytest.raises(ValidationError, match=r"^weights\.embed\.b: non-numeric"):
            load_model(self._write(doc, path))

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda d: d[:-1], "data length does not match shape [2]: 23 base64 characters, expected 24"),
            # The length is checked first: the extra character is not decoded.
            (lambda d: d + "-", "data length does not match shape [2]: 25 base64 characters, expected 24"),
            (lambda d: "-" + d[1:], "data is not standard padded base64"),
            (lambda d: "_" + d[1:], "data is not standard padded base64"),
            (lambda d: d[:8] + "\n" + d[9:], "data is not standard padded base64"),
            (lambda d: d[:-2] + "A=", "data is not standard padded base64"),
            (lambda d: d[:-2] + "AA", "data is not standard padded base64"),
            (lambda d: d[:-3] + "=A=", "data is not standard padded base64"),
            (lambda d: _b64([1.0, math.nan]), "entries must be finite"),
            (lambda d: _b64([math.inf, 1.0]), "entries must be finite"),
            (lambda d: _b64([1.0, -math.inf]), "entries must be finite"),
            (lambda d: 1.5, "data length does not match shape [2]"),
            (lambda d: None, "data length does not match shape [2]"),
            (lambda d: {"data": d}, "data length does not match shape [2]"),
        ],
        ids=[
            "one-short", "one-long", "dash", "underscore", "newline", "padding-short", "padding-missing",
            "padding-split", "nan", "inf", "minus-inf", "number", "null", "object",
        ],
    )
    def test_bad_base64_data_rejected(self, tmp_path, edit, message):
        doc, path = self._doc(tmp_path)
        b = doc["weights"]["suffix"]["b"]  # two float64s: 24 characters, "==" padded
        assert len(b["data"]) == 24 and b["data"].endswith("==")
        b["data"] = edit(b["data"])
        with pytest.raises(ValidationError, match="^" + re.escape(f"weights.suffix.b: {message}") + "$"):
            load_model(self._write(doc, path))

    @pytest.mark.parametrize("field", ["arch", "suffix_kind"])
    def test_unhashable_tag_rejected(self, tmp_path, field):
        doc, path = self._doc(tmp_path)
        doc[field] = []
        with pytest.raises(ValidationError, match=f"^{field}: expected"):
            load_model(self._write(doc, path))

    @pytest.mark.parametrize("content", [b"\xff\xfe{}", b"[" * 100_000 + b"]" * 100_000], ids=["not-utf8", "too-deep"])
    def test_unparseable_file_rejected(self, tmp_path, content):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        with pytest.raises(ValidationError, match="not valid JSON"):
            load_model(str(path))

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ValidationError, match="JSON"):
            load_model(str(path))
