"""Single-block attention classifier over image patches.

Architecture: non-overlapping patches -> affine embedding -> one multi-head
softmax attention block (optional residual) -> flatten tokens -> linear or
one-hidden-layer ReLU head.  Weights live in a strict JSON format with
explicit shapes so files are portable and mistakes fail loudly.

Layout conventions, pinned here and relied on everywhere else:
  * flat image index   = channel*(height*width) + row*width + col
  * patch order        = row-major over the patch grid
  * within-patch order = channel-major, then patch row, then patch col
  * pooled vector      = tokens concatenated in token order
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True, eq=False)
class LinearSuffix:
    w: np.ndarray  # (classes, tokens * d_model)
    b: np.ndarray  # (classes,)


@dataclass(frozen=True, eq=False)
class MlpSuffix:
    w1: np.ndarray  # (hidden, tokens * d_model)
    b1: np.ndarray  # (hidden,)
    w2: np.ndarray  # (classes, hidden)
    b2: np.ndarray  # (classes,)


Suffix = Union[LinearSuffix, MlpSuffix]


@dataclass(frozen=True, eq=False)
class AttentionModelSpec:
    """A validated model.  Its arrays are checked once, at construction, and
    treated as immutable from then on: the forward pass's stacked Q/K/V and
    output projections (_w_qkv, _b_qkv, _w_o) and the patch gather indices
    (_patch_index) are built from them then, as read-only attributes that
    are not dataclass fields.  To change a weight, build a new spec
    (dataclasses.replace does)."""

    height: int
    width: int
    channels: int
    patch: int
    d_model: int
    d_head: int
    heads: int
    n_classes: int
    residual: bool
    w_embed: np.ndarray  # (d_model, channels * patch * patch)
    b_embed: np.ndarray  # (d_model,)
    wq: np.ndarray  # (heads, d_head, d_model)
    bq: np.ndarray  # (heads, d_head)
    wk: np.ndarray
    bk: np.ndarray
    wv: np.ndarray
    bv: np.ndarray
    wo: np.ndarray  # (heads, d_model, d_head)
    bo: np.ndarray  # (d_model,)
    mask: np.ndarray  # (heads, tokens, tokens), added to scaled scores
    suffix: Suffix

    def __post_init__(self) -> None:
        for name in ("height", "width", "channels", "patch", "d_model", "d_head", "heads", "n_classes"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 1:
                raise ValidationError(f"{name} must be a positive integer, got {v!r}")
        if self.height % self.patch or self.width % self.patch:
            raise ValidationError(
                f"patch {self.patch} must divide height {self.height} and width {self.width}"
            )
        if self.n_classes < 2:
            raise ValidationError("model needs at least two classes")
        arrays = {
            "w_embed": (self.d_model, self.patch_dim),
            "b_embed": (self.d_model,),
            "wq": (self.heads, self.d_head, self.d_model),
            "bq": (self.heads, self.d_head),
            "wk": (self.heads, self.d_head, self.d_model),
            "bk": (self.heads, self.d_head),
            "wv": (self.heads, self.d_head, self.d_model),
            "bv": (self.heads, self.d_head),
            "wo": (self.heads, self.d_model, self.d_head),
            "bo": (self.d_model,),
            "mask": (self.heads, self.tokens, self.tokens),
        }
        for name, shape in arrays.items():
            a = np.asarray(getattr(self, name), dtype=np.float64)
            if a.shape != shape:
                raise ValidationError(f"{name}: expected shape {shape}, got {a.shape}")
            if not np.all(np.isfinite(a)):
                raise ValidationError(f"{name}: entries must be finite")
            object.__setattr__(self, name, a)
        pooled = self.tokens * self.d_model
        sfx = self.suffix
        if isinstance(sfx, LinearSuffix):
            _check_suffix_arrays(sfx, {"w": (self.n_classes, pooled), "b": (self.n_classes,)})
        elif isinstance(sfx, MlpSuffix):
            hidden = np.asarray(sfx.w1).shape[0] if np.asarray(sfx.w1).ndim == 2 else 0
            if hidden < 1:
                raise ValidationError("suffix.w1 must be a (hidden, pooled) matrix")
            _check_suffix_arrays(
                sfx,
                {
                    "w1": (hidden, pooled),
                    "b1": (hidden,),
                    "w2": (self.n_classes, hidden),
                    "b2": (self.n_classes,),
                },
            )
        else:
            raise ValidationError(f"unsupported suffix type {type(sfx).__name__}")
        h, dh, dm = self.heads, self.d_head, self.d_model
        p = self.patch
        grid = np.arange(self.image_size).reshape(self.channels, self.height // p, p, self.width // p, p)
        derived = {
            "_patch_index": grid.transpose(1, 3, 0, 2, 4).reshape(self.tokens, self.patch_dim),
            "_w_qkv": np.concatenate((self.wq, self.wk, self.wv)).reshape(3 * h * dh, dm),  # q, k, v rows
            "_b_qkv": np.concatenate((self.bq, self.bk, self.bv)).reshape(-1),
            "_w_o": self.wo.transpose(0, 2, 1).reshape(h * dh, dm),  # (heads * d_head, d_model)
        }
        for name, a in derived.items():
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @property
    def tokens(self) -> int:
        return (self.height // self.patch) * (self.width // self.patch)

    @property
    def patch_dim(self) -> int:
        return self.channels * self.patch * self.patch

    @property
    def image_size(self) -> int:
        return self.channels * self.height * self.width

    @property
    def scale(self) -> float:
        return 1.0 / math.sqrt(self.d_head)

    @property
    def suffix_kind(self) -> str:
        return "linear" if isinstance(self.suffix, LinearSuffix) else "mlp1"

    @property
    def hidden(self) -> int:
        return 0 if isinstance(self.suffix, LinearSuffix) else int(self.suffix.w1.shape[0])


def _check_suffix_arrays(sfx: Suffix, shapes: dict[str, tuple[int, ...]]) -> None:
    for name, shape in shapes.items():
        a = np.asarray(getattr(sfx, name), dtype=np.float64)
        if a.shape != shape:
            raise ValidationError(f"suffix.{name}: expected shape {shape}, got {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValidationError(f"suffix.{name}: entries must be finite")
        object.__setattr__(sfx, name, a)


def patch_pixel_indices(model: AttentionModelSpec) -> np.ndarray:
    """(tokens, patch_dim) int matrix: flat image index of every patch entry
    (read-only; built once per model)."""
    return model._patch_index


def _check_image(model: AttentionModelSpec, x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (model.image_size,):
        raise ValidationError(f"image must be a flat vector of length {model.image_size}, got {x.shape}")
    return x


@dataclass(frozen=True, eq=False)
class ForwardTrace:
    tokens: np.ndarray  # (R, d_model)
    scores: np.ndarray  # (heads, R, R)
    attn: np.ndarray  # (heads, R, R)
    head_out: np.ndarray  # (heads, R, d_head)
    hplus: np.ndarray  # (R, d_model)
    hidden_pre: np.ndarray | None  # (hidden,) for the mlp1 head
    logits: np.ndarray  # (classes,)


def _forward(model: AttentionModelSpec, xs: np.ndarray) -> ForwardTrace:
    """The forward pass over (..., image_size) inputs; every trace field
    carries the same leading axes.

    The N inputs are flattened to N*R token rows, so the embedding, the Q/K/V
    projections of every head and W_o are one 2-D matmul each.  Scores and
    attention weights are held key-axis first, (R_key, N, heads, R_query),
    so the softmax reductions run over long contiguous rows rather than
    over N*heads*R rows of length R; the trace gets transposed views."""
    lead = xs.shape[:-1]
    n = math.prod(lead)
    r, h, dh, dm = model.tokens, model.heads, model.d_head, model.d_model
    patches = xs.reshape(n, xs.shape[-1])[:, model._patch_index].reshape(n * r, model.patch_dim)
    toks = patches @ model.w_embed.T + model.b_embed  # (N*R, d_model)
    qkv = toks @ model._w_qkv.T + model._b_qkv
    q, k, v = qkv.reshape(n, r, 3, h, dh).transpose(2, 0, 3, 1, 4)  # (N, H, R, d_head)
    scores_t = np.empty((r, n, h, r))
    np.multiply((k @ q.swapaxes(-1, -2)).transpose(2, 0, 1, 3), model.scale, out=scores_t)
    scores_t += model.mask.transpose(2, 0, 1)[:, None]
    attn_t = scores_t - scores_t.max(axis=0)
    np.exp(attn_t, out=attn_t)
    attn_t /= attn_t.sum(axis=0)
    attn = attn_t.transpose(1, 2, 3, 0)  # (N, H, R_query, R_key) view
    head_out = attn @ v  # (N, H, R, d_head)
    hplus = head_out.transpose(0, 2, 1, 3).reshape(n * r, h * dh) @ model._w_o + model.bo
    if model.residual:
        hplus += toks
    pooled = hplus.reshape(n, r * dm)
    sfx = model.suffix
    if isinstance(sfx, LinearSuffix):
        hidden_pre = None
        logits = pooled @ sfx.w.T + sfx.b
    else:
        hidden_pre = pooled @ sfx.w1.T + sfx.b1
        logits = np.maximum(hidden_pre, 0.0) @ sfx.w2.T + sfx.b2
        hidden_pre = hidden_pre.reshape(*lead, model.hidden)
    return ForwardTrace(
        tokens=toks.reshape(*lead, r, dm),
        scores=scores_t.transpose(1, 2, 3, 0).reshape(*lead, h, r, r),
        attn=attn.reshape(*lead, h, r, r),
        head_out=head_out.reshape(*lead, h, r, dh),
        hplus=hplus.reshape(*lead, r, dm),
        hidden_pre=hidden_pre,
        logits=logits.reshape(*lead, model.n_classes),
    )


def forward_trace(model: AttentionModelSpec, x) -> ForwardTrace:
    """Every intermediate of the forward pass for one flat image vector."""
    return _forward(model, _check_image(model, x))


def forward(model: AttentionModelSpec, x) -> np.ndarray:
    """Clean logits for one flat image vector."""
    return forward_trace(model, x).logits


def forward_batch(model: AttentionModelSpec, xs) -> np.ndarray:
    """Logits for a (N, image_size) batch; row r agrees with forward on xs[r]
    up to summation-order roundoff."""
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 2 or xs.shape[1] != model.image_size:
        raise ValidationError(f"batch must have shape (N, {model.image_size}), got {xs.shape}")
    return _forward(model, xs).logits


# ---------------------------------------------------------------------------
# JSON weight files

_ARCHES = {"patch-attn": False, "patch-attn-residual": True}
_DIM_KEYS = ("height", "width", "channels", "d_model", "d_head", "classes")
_WEIGHT_KEYS = {"embed", "wq", "wk", "wv", "wo", "mask", "suffix"}


def _encode_array(a: np.ndarray) -> dict:
    return {"shape": list(a.shape), "data": [float(v) for v in a.reshape(-1)]}


def _decode_shape(shape, path: str) -> tuple[int, ...]:
    if not isinstance(shape, list) or not shape or not all(
        isinstance(v, int) and not isinstance(v, bool) and v >= 1 for v in shape
    ):
        raise ValidationError(f"{path}.shape: expected a non-empty list of positive integers, got {shape!r}")
    return tuple(shape)


def _decode_array(node, shape: tuple[int, ...], path: str) -> np.ndarray:
    _require_keys(node, {"shape", "data"}, set(), path)
    got = _decode_shape(node["shape"], path)
    if got != shape:
        raise ValidationError(f"{path}: expected shape {list(shape)}, got {list(got)}")
    data = node["data"]
    if not isinstance(data, list) or len(data) != int(np.prod(shape, dtype=np.int64)):
        raise ValidationError(f"{path}: data length does not match shape {list(shape)}")
    try:
        a = np.asarray(data, dtype=np.float64).reshape(shape)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{path}: non-numeric data ({exc})") from exc
    if not np.all(np.isfinite(a)):
        raise ValidationError(f"{path}: entries must be finite")
    return a


def _require_keys(node, required: set[str], optional: set[str], path: str) -> None:
    if not isinstance(node, dict):
        raise ValidationError(f"{path}: expected an object")
    extra = set(node) - required - optional
    if extra:
        raise ValidationError(f"{path}: unknown fields {sorted(extra)}")
    missing = required - set(node)
    if missing:
        raise ValidationError(f"{path}: missing fields {sorted(missing)}")


def save_model(model: AttentionModelSpec, path: str) -> None:
    heads = model.heads
    doc = {
        "arch": "patch-attn-residual" if model.residual else "patch-attn",
        "dims": {
            "height": model.height,
            "width": model.width,
            "channels": model.channels,
            "d_model": model.d_model,
            "d_head": model.d_head,
            "classes": model.n_classes,
        },
        "patch": model.patch,
        "heads": heads,
        "suffix_kind": model.suffix_kind,
        "weights": {
            "embed": {"w": _encode_array(model.w_embed), "b": _encode_array(model.b_embed)},
            "wq": [{"w": _encode_array(model.wq[h]), "b": _encode_array(model.bq[h])} for h in range(heads)],
            "wk": [{"w": _encode_array(model.wk[h]), "b": _encode_array(model.bk[h])} for h in range(heads)],
            "wv": [{"w": _encode_array(model.wv[h]), "b": _encode_array(model.bv[h])} for h in range(heads)],
            "wo": {
                "w": [_encode_array(model.wo[h]) for h in range(heads)],
                "b": _encode_array(model.bo),
            },
            "mask": _encode_array(model.mask),
            "suffix": _encode_suffix(model.suffix),
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def _encode_suffix(sfx: Suffix) -> dict:
    if isinstance(sfx, LinearSuffix):
        return {"w": _encode_array(sfx.w), "b": _encode_array(sfx.b)}
    return {
        "w1": _encode_array(sfx.w1),
        "b1": _encode_array(sfx.b1),
        "w2": _encode_array(sfx.w2),
        "b2": _encode_array(sfx.b2),
    }


def load_model(path: str) -> AttentionModelSpec:
    """Parse and validate a weight file.  Unknown fields anywhere are
    rejected; shape errors name the offending field path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"{path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"not valid JSON: {exc}") from exc
    _require_keys(doc, {"arch", "dims", "patch", "heads", "suffix_kind", "weights"}, set(), "top level")
    arch = doc["arch"]
    if arch not in _ARCHES:
        raise ValidationError(f"arch: expected one of {sorted(_ARCHES)}, got {arch!r}")
    dims = doc["dims"]
    _require_keys(dims, set(_DIM_KEYS), set(), "dims")
    vals = {}
    for key in _DIM_KEYS:
        v = dims[key]
        if not isinstance(v, int) or isinstance(v, bool) or v < 1:
            raise ValidationError(f"dims.{key}: expected a positive integer, got {v!r}")
        vals[key] = v
    patch = doc["patch"]
    heads = doc["heads"]
    for key, v in (("patch", patch), ("heads", heads)):
        if not isinstance(v, int) or isinstance(v, bool) or v < 1:
            raise ValidationError(f"{key}: expected a positive integer, got {v!r}")
    if vals["height"] % patch or vals["width"] % patch:
        raise ValidationError(f"patch: {patch} must divide height {vals['height']} and width {vals['width']}")
    suffix_kind = doc["suffix_kind"]
    if suffix_kind not in ("linear", "mlp1"):
        raise ValidationError(f"suffix_kind: expected 'linear' or 'mlp1', got {suffix_kind!r}")

    tokens = (vals["height"] // patch) * (vals["width"] // patch)
    patch_dim = vals["channels"] * patch * patch
    d_model, d_head = vals["d_model"], vals["d_head"]
    pooled = tokens * d_model

    weights = doc["weights"]
    _require_keys(weights, _WEIGHT_KEYS - {"mask"}, {"mask"}, "weights")

    embed = weights["embed"]
    _require_keys(embed, {"w", "b"}, set(), "weights.embed")
    w_embed = _decode_array(embed["w"], (d_model, patch_dim), "weights.embed.w")
    b_embed = _decode_array(embed["b"], (d_model,), "weights.embed.b")

    def head_stack(key: str) -> tuple[np.ndarray, np.ndarray]:
        node = weights[key]
        if not isinstance(node, list) or len(node) != heads:
            raise ValidationError(f"weights.{key}: expected a list of {heads} head entries")
        ws, bs = [], []
        for h, entry in enumerate(node):
            p = f"weights.{key}[{h}]"
            _require_keys(entry, {"w", "b"}, set(), p)
            ws.append(_decode_array(entry["w"], (d_head, d_model), f"{p}.w"))
            bs.append(_decode_array(entry["b"], (d_head,), f"{p}.b"))
        return np.stack(ws), np.stack(bs)

    wq, bq = head_stack("wq")
    wk, bk = head_stack("wk")
    wv, bv = head_stack("wv")

    out = weights["wo"]
    _require_keys(out, {"w", "b"}, set(), "weights.wo")
    if not isinstance(out["w"], list) or len(out["w"]) != heads:
        raise ValidationError(f"weights.wo.w: expected a list of {heads} head matrices")
    wo = np.stack(
        [_decode_array(out["w"][h], (d_model, d_head), f"weights.wo.w[{h}]") for h in range(heads)]
    )
    bo = _decode_array(out["b"], (d_model,), "weights.wo.b")

    if "mask" in weights:
        mask = _decode_array(weights["mask"], (heads, tokens, tokens), "weights.mask")
    else:
        mask = np.zeros((heads, tokens, tokens))

    sfx_node = weights["suffix"]
    if suffix_kind == "linear":
        _require_keys(sfx_node, {"w", "b"}, set(), "weights.suffix")
        suffix: Suffix = LinearSuffix(
            w=_decode_array(sfx_node["w"], (vals["classes"], pooled), "weights.suffix.w"),
            b=_decode_array(sfx_node["b"], (vals["classes"],), "weights.suffix.b"),
        )
    else:
        _require_keys(sfx_node, {"w1", "b1", "w2", "b2"}, set(), "weights.suffix")
        _require_keys(sfx_node["w1"], {"shape", "data"}, set(), "weights.suffix.w1")
        hidden = _decode_shape(sfx_node["w1"]["shape"], "weights.suffix.w1")[0]
        suffix = MlpSuffix(
            w1=_decode_array(sfx_node["w1"], (hidden, pooled), "weights.suffix.w1"),
            b1=_decode_array(sfx_node["b1"], (hidden,), "weights.suffix.b1"),
            w2=_decode_array(sfx_node["w2"], (vals["classes"], hidden), "weights.suffix.w2"),
            b2=_decode_array(sfx_node["b2"], (vals["classes"],), "weights.suffix.b2"),
        )

    return AttentionModelSpec(
        height=vals["height"],
        width=vals["width"],
        channels=vals["channels"],
        patch=patch,
        d_model=d_model,
        d_head=d_head,
        heads=heads,
        n_classes=vals["classes"],
        residual=_ARCHES[arch],
        w_embed=w_embed,
        b_embed=b_embed,
        wq=wq,
        bq=bq,
        wk=wk,
        bk=bk,
        wv=wv,
        bv=bv,
        wo=wo,
        bo=bo,
        mask=mask,
        suffix=suffix,
    )


def random_model(
    seed: int,
    tokens: int = 4,
    heads: int = 1,
    d_model: int = 4,
    d_head: int | None = None,
    patch: int = 2,
    channels: int = 1,
    n_classes: int = 2,
    suffix_kind: str = "linear",
    hidden: int = 8,
    residual: bool = True,
    weight_scale: float = 1.0,
) -> AttentionModelSpec:
    """Deterministic random model for tests and demos.

    Stream: PCG64 seeded with SeedSequence(seed); draws happen in a fixed
    order (embed w/b, then q, k, v w/b per the stacked head axes, then the
    output projection, then the suffix), each scaled by
    weight_scale / sqrt(fan_in).  The grid is one patch-row of `tokens`
    patches.  The mask is zero.
    """
    if d_head is None:
        d_head = max(1, d_model // heads)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    height = patch
    width = patch * tokens
    patch_dim = channels * patch * patch
    pooled = tokens * d_model

    def draw(*shape: int, fan_in: int) -> np.ndarray:
        return rng.standard_normal(shape) * (weight_scale / math.sqrt(fan_in))

    w_embed = draw(d_model, patch_dim, fan_in=patch_dim)
    b_embed = draw(d_model, fan_in=patch_dim)
    wq = draw(heads, d_head, d_model, fan_in=d_model)
    bq = draw(heads, d_head, fan_in=d_model)
    wk = draw(heads, d_head, d_model, fan_in=d_model)
    bk = draw(heads, d_head, fan_in=d_model)
    wv = draw(heads, d_head, d_model, fan_in=d_model)
    bv = draw(heads, d_head, fan_in=d_model)
    wo = draw(heads, d_model, d_head, fan_in=heads * d_head)
    bo = draw(d_model, fan_in=heads * d_head)
    if suffix_kind == "linear":
        suffix: Suffix = LinearSuffix(w=draw(n_classes, pooled, fan_in=pooled), b=draw(n_classes, fan_in=pooled))
    elif suffix_kind == "mlp1":
        suffix = MlpSuffix(
            w1=draw(hidden, pooled, fan_in=pooled),
            b1=draw(hidden, fan_in=pooled),
            w2=draw(n_classes, hidden, fan_in=hidden),
            b2=draw(n_classes, fan_in=hidden),
        )
    else:
        raise ValidationError(f"suffix_kind must be 'linear' or 'mlp1', got {suffix_kind!r}")
    return AttentionModelSpec(
        height=height,
        width=width,
        channels=channels,
        patch=patch,
        d_model=d_model,
        d_head=d_head,
        heads=heads,
        n_classes=n_classes,
        residual=residual,
        w_embed=w_embed,
        b_embed=b_embed,
        wq=wq,
        bq=bq,
        wk=wk,
        bk=bk,
        wv=wv,
        bv=bv,
        wo=wo,
        bo=bo,
        mask=np.zeros((heads, tokens, tokens)),
        suffix=suffix,
    )
