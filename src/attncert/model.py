"""Single-block attention classifier over image patches.

Architecture: non-overlapping patches -> affine embedding -> one multi-head
softmax attention block (optional residual) -> flatten tokens -> linear or
one-hidden-layer ReLU head.  Weights live in a strict JSON format with
explicit shapes so files are portable and mistakes fail loudly; each array's
data is the base64 of its little-endian float64 bytes (save_model), or a
JSON number list in hand-written and older files.

Layout conventions, pinned here and relied on everywhere else:
  * flat image index   = channel*(height*width) + row*width + col
  * patch order        = row-major over the patch grid
  * within-patch order = channel-major, then patch row, then patch col
  * pooled vector      = tokens concatenated in token order
"""

from __future__ import annotations

import base64
import json
import math
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from operator import attrgetter
from typing import Iterator, Union

import numpy as np

from .errors import ValidationError, check_int, check_real


@dataclass(frozen=True, eq=False)
class LinearSuffix:
    w: np.ndarray
    b: np.ndarray


@dataclass(frozen=True, eq=False)
class MlpSuffix:
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray


Suffix = Union[LinearSuffix, MlpSuffix]


@dataclass(frozen=True, eq=False)
class AttentionModelSpec:
    """A validated model.  Its arrays are checked once, at construction, and
    treated as immutable from then on: the forward pass's stacked Q/K/V and
    output projections (_w_qkv, _b_qkv, _w_o), the verifier's pixel -> Q/K/V
    maps (_w_pix_qkv, _b_pix_qkv), its pixel -> value -> W_o maps (_w_pix_o,
    _b_pix_o) and the patch gather indices (_patch_index) are built from
    them then, as read-only attributes that are not dataclass fields.
    _label_maps starts empty and keeps the linear head's value maps by
    label as verify.certify_targets builds them.  To change a weight,
    build a new spec (dataclasses.replace does; its copy starts with no
    maps).  _shapes gives every array's shape; the mask is added to the
    scaled scores."""

    height: int
    width: int
    channels: int
    patch: int
    d_model: int
    d_head: int
    heads: int
    n_classes: int
    residual: bool
    w_embed: np.ndarray
    b_embed: np.ndarray
    wq: np.ndarray
    bq: np.ndarray
    wk: np.ndarray
    bk: np.ndarray
    wv: np.ndarray
    bv: np.ndarray
    wo: np.ndarray
    bo: np.ndarray
    mask: np.ndarray
    suffix: Suffix

    def __post_init__(self) -> None:
        for name in ("height", "width", "channels", "patch", "d_model", "d_head", "heads", "n_classes"):
            object.__setattr__(self, name, check_int(name, getattr(self, name), 1))
        if self.height % self.patch or self.width % self.patch:
            raise ValidationError(
                f"patch {self.patch} must divide height {self.height} and width {self.width}"
            )
        if self.n_classes < 2:
            raise ValidationError("model needs at least two classes")
        if not isinstance(self.residual, (bool, np.bool_)):
            raise ValidationError(f"residual must be a bool, got {self.residual!r}")
        object.__setattr__(self, "residual", bool(self.residual))
        sfx = self.suffix
        hidden = 0
        if isinstance(sfx, MlpSuffix):
            w1 = np.asarray(sfx.w1)
            if w1.ndim != 2 or w1.shape[0] < 1:
                raise ValidationError("suffix.w1 must be a (hidden, pooled) matrix")
            hidden = w1.shape[0]
        elif not isinstance(sfx, LinearSuffix):
            raise ValidationError(f"unsupported suffix type {type(sfx).__name__}")
        shapes = _shapes(self.heads, self.tokens, self.patch_dim, self.d_model, self.d_head, self.n_classes, hidden)
        for name in _LEAVES[self.suffix_kind]:
            a = np.asarray(attrgetter(name)(self), dtype=np.float64)
            if a.shape != shapes[name]:
                raise ValidationError(f"{name}: expected shape {shapes[name]}, got {a.shape}")
            if not np.all(np.isfinite(a)):
                raise ValidationError(f"{name}: entries must be finite")
            owner, _, field = name.rpartition(".")
            object.__setattr__(sfx if owner else self, field, a)
        h, dh, dm = self.heads, self.d_head, self.d_model
        p = self.patch
        grid = np.arange(self.image_size).reshape(self.channels, self.height // p, p, self.width // p, p)
        w_qkv = np.concatenate((self.wq, self.wk, self.wv)).reshape(3 * h * dh, dm)  # q, k, v rows
        b_qkv = np.concatenate((self.bq, self.bk, self.bv)).reshape(-1)
        # Finite weights can compose to maps that overflow.  The verifier's
        # finite checks reject the bounds built from them, once, so the float
        # warnings on the way are silenced here.
        with np.errstate(over="ignore", invalid="ignore"):
            derived = {
                "_patch_index": grid.transpose(1, 3, 0, 2, 4).reshape(self.tokens, self.patch_dim),
                "_w_qkv": w_qkv,
                "_b_qkv": b_qkv,
                # The q, k, v rows composed with the embedding: the affine maps
                # from a token's patch pixels, (3, heads, d_head, patch_dim).
                "_w_pix_qkv": (w_qkv @ self.w_embed).reshape(3, h, dh, self.patch_dim),
                "_b_pix_qkv": (w_qkv @ self.b_embed + b_qkv).reshape(3, h, dh),
                "_w_o": self.wo.transpose(0, 2, 1).reshape(h * dh, dm),  # (heads * d_head, d_model)
            }
            # The value maps composed with W_o: each output coordinate's affine
            # map from a token's patch pixels through every head,
            # (d_model, heads * patch_dim) and (d_model, heads).
            w_pix_v, b_pix_v = derived["_w_pix_qkv"][2], derived["_b_pix_qkv"][2]
            derived["_w_pix_o"] = (self.wo @ w_pix_v).transpose(1, 0, 2).reshape(dm, -1)
            derived["_b_pix_o"] = (self.wo @ b_pix_v[:, :, None])[:, :, 0].T
        for name, a in derived.items():
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        # attention.value_maps of the linear head by label, filled as labels
        # are certified.
        object.__setattr__(self, "_label_maps", {})

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


# The weight layout: the "weights" object of a weight file, by suffix kind.
# Each leaf names the spec field that holds the array ("suffix.w" is the
# suffix's w).  A one-entry list means one entry per head, stacked on axis 0
# of the spec's array.  The leaves other than the mask come in (weight, bias)
# pairs.  The mask is the one field a file may leave out; it defaults to zeros.
_BLOCK = {
    "embed": {"w": "w_embed", "b": "b_embed"},
    "wq": [{"w": "wq", "b": "bq"}],
    "wk": [{"w": "wk", "b": "bk"}],
    "wv": [{"w": "wv", "b": "bv"}],
    "wo": {"w": ["wo"], "b": "bo"},
    "mask": "mask",
}
_LAYOUTS = {
    "linear": {**_BLOCK, "suffix": {"w": "suffix.w", "b": "suffix.b"}},
    "mlp1": {**_BLOCK, "suffix": {"w1": "suffix.w1", "b1": "suffix.b1", "w2": "suffix.w2", "b2": "suffix.b2"}},
}
_SUFFIXES = {"linear": LinearSuffix, "mlp1": MlpSuffix}
_OPTIONAL = {"mask"}


def _shapes(
    heads: int, tokens: int, patch_dim: int, d_model: int, d_head: int, classes: int, hidden: int
) -> dict[str, tuple[int, ...]]:
    """The shape of every leaf's array in the spec, for both suffix kinds."""
    pooled = tokens * d_model
    return {
        "w_embed": (d_model, patch_dim),
        "b_embed": (d_model,),
        "wq": (heads, d_head, d_model),
        "bq": (heads, d_head),
        "wk": (heads, d_head, d_model),
        "bk": (heads, d_head),
        "wv": (heads, d_head, d_model),
        "bv": (heads, d_head),
        "wo": (heads, d_model, d_head),
        "bo": (d_model,),
        "mask": (heads, tokens, tokens),
        "suffix.w": (classes, pooled),
        "suffix.b": (classes,),
        "suffix.w1": (hidden, pooled),
        "suffix.b1": (hidden,),
        "suffix.w2": (classes, hidden),
        "suffix.b2": (classes,),
    }


def _leaves(layout) -> Iterator[str]:
    """The leaves under a layout node, in file order."""
    if isinstance(layout, str):
        yield layout
    else:
        for sub in layout if isinstance(layout, list) else layout.values():
            yield from _leaves(sub)


_LEAVES = {kind: tuple(_leaves(layout)) for kind, layout in _LAYOUTS.items()}


def _build(arrays: dict[str, np.ndarray], suffix_kind: str, **dims) -> AttentionModelSpec:
    """A spec from its scalar fields and its arrays, by leaf."""
    sfx = {name[len("suffix."):]: arrays.pop(name) for name in list(arrays) if name.startswith("suffix.")}
    return AttentionModelSpec(**dims, **arrays, suffix=_SUFFIXES[suffix_kind](**sfx))


def patch_pixel_indices(model: AttentionModelSpec) -> np.ndarray:
    """(tokens, patch_dim) int matrix: flat image index of every patch entry
    (read-only; built once per model)."""
    return model._patch_index


def _check_image(model: AttentionModelSpec, x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (model.image_size,):
        raise ValidationError(f"image must be a flat vector of length {model.image_size}, got {x.shape}")
    return x


# Entries of the (R, N, heads, R) score stack per forward block: 16 points
# at 16 tokens and 4 heads.  Larger blocks page-fault in their temporaries
# and cost about twice as much per point.
_FORWARD_BLOCK_ELEMENTS = 2**14


def _forward_block_points(model: AttentionModelSpec) -> int:
    """Points per _forward block: _FORWARD_BLOCK_ELEMENTS score entries, at
    least one point."""
    return max(1, _FORWARD_BLOCK_ELEMENTS // (model.tokens**2 * model.heads))


def _forward(model: AttentionModelSpec, xs: np.ndarray) -> np.ndarray:
    """The logits of (..., image_size) inputs, shape (..., n_classes).

    The inputs are scored in consecutive blocks of _FORWARD_BLOCK_ELEMENTS
    score entries, so a call's temporaries are bounded by the budget, not by
    the batch."""
    lead = xs.shape[:-1]
    rows = xs.reshape(-1, xs.shape[-1])
    n = rows.shape[0]
    step = _forward_block_points(model)
    out = np.empty((n, model.n_classes))
    for i in range(0, n, step):
        out[i : i + step] = _forward_block(model, rows[i : i + step])
    return out.reshape(*lead, model.n_classes)


def _forward_block(model: AttentionModelSpec, xs: np.ndarray) -> np.ndarray:
    """The (N, n_classes) logits of (N, image_size) inputs.

    The N inputs are flattened to N*R token rows, so the embedding, the Q/K/V
    projections of every head and W_o are one 2-D matmul each.  Scores and
    attention weights are held key-axis first, (R_key, N, heads, R_query),
    so the softmax reductions run over long contiguous rows rather than
    over N*heads*R rows of length R."""
    n = xs.shape[0]
    r, h, dh, dm = model.tokens, model.heads, model.d_head, model.d_model
    patches = xs[:, model._patch_index].reshape(n * r, model.patch_dim)
    toks = patches @ model.w_embed.T + model.b_embed  # (N*R, d_model)
    qkv = toks @ model._w_qkv.T + model._b_qkv
    q, k, v = qkv.reshape(n, r, 3, h, dh).transpose(2, 0, 3, 1, 4)  # (N, H, R, d_head)
    scores_t = np.empty((r, n, h, r))
    np.multiply((k @ q.swapaxes(-1, -2)).transpose(2, 0, 1, 3), model.scale, out=scores_t)
    scores_t += model.mask.transpose(2, 0, 1)[:, None]
    attn_t = scores_t - scores_t.max(axis=0)
    np.exp(attn_t, out=attn_t)
    attn_t /= attn_t.sum(axis=0)
    head_out = attn_t.transpose(1, 2, 3, 0) @ v  # (N, H, R_query, d_head)
    hplus = head_out.transpose(0, 2, 1, 3).reshape(n * r, h * dh) @ model._w_o + model.bo
    if model.residual:
        hplus += toks
    pooled = hplus.reshape(n, r * dm)
    sfx = model.suffix
    if isinstance(sfx, LinearSuffix):
        logits = pooled @ sfx.w.T + sfx.b
    else:
        logits = np.maximum(pooled @ sfx.w1.T + sfx.b1, 0.0) @ sfx.w2.T + sfx.b2
    return logits


def forward(model: AttentionModelSpec, x) -> np.ndarray:
    """Clean logits for one flat image vector."""
    return _forward(model, _check_image(model, x))


def forward_batch(model: AttentionModelSpec, xs) -> np.ndarray:
    """Logits for a (N, image_size) batch; row r agrees with forward on xs[r]
    up to summation-order roundoff."""
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 2 or xs.shape[1] != model.image_size:
        raise ValidationError(f"batch must have shape (N, {model.image_size}), got {xs.shape}")
    return _forward(model, xs)


# ---------------------------------------------------------------------------
# JSON weight files

_ARCHES = {"patch-attn": False, "patch-attn-residual": True}
# The file's dims keys and the spec fields they fill.
_DIMS = {
    "height": "height",
    "width": "width",
    "channels": "channels",
    "d_model": "d_model",
    "d_head": "d_head",
    "classes": "n_classes",
}


def read_json(path: str):
    """The JSON document in a file.  A file that cannot be read or is not
    JSON is a ValidationError naming the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValidationError(f"{path}: {exc.strerror or exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, or nesting too deep to parse
        raise ValidationError(f"{path}: not valid JSON: {exc}") from exc


@contextmanager
def open_output(path: str) -> Iterator:
    """The file at path, open to write text; an OSError is a ValidationError naming it."""
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            yield fh
    except OSError as exc:
        raise ValidationError(f"{path}: {exc.strerror or exc}") from exc


def _encode_array(a: np.ndarray) -> dict:
    """An array's file node: its shape, and as data the standard padded
    base64 of its row-major, little-endian float64 bytes."""
    raw = np.ascontiguousarray(a, dtype="<f8").tobytes()
    return {"shape": list(a.shape), "data": base64.b64encode(raw).decode("ascii")}


def _number_list(v, where: str) -> np.ndarray:
    """A JSON list of numbers, each an int or a float (not a bool) in the
    float64 range, as a float64 array; anything else is a ValidationError
    naming where.  Non-finite entries (1e400 reads as inf) are the caller's.
    It reads every input number list: solve's c, ell and u, certify's x and
    weight data written as a list."""
    if isinstance(v, list) and set(map(type, v)) <= {int, float}:
        with suppress(OverflowError):  # an integer past the float64 range
            return np.asarray(v, dtype=np.float64)
    raise ValidationError(f"{where}: non-numeric data, expected a list of numbers in the float64 range")


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
    data, n = node["data"], math.prod(shape)
    if isinstance(data, str):
        chars = 4 * -(-8 * n // 3)  # checked before decoding, so a wrong size costs nothing
        if len(data) != chars:
            raise ValidationError(
                f"{path}: data length does not match shape {list(shape)}: "
                f"{len(data)} base64 characters, expected {chars}"
            )
        try:
            raw = base64.b64decode(data, validate=True)
        except ValueError:  # binascii.Error, or a character outside ASCII
            raw = b""
        if len(raw) != 8 * n:  # a decode error, or padding that drops or adds a byte
            raise ValidationError(f"{path}: data is not standard padded base64")
        a = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)
    elif isinstance(data, list) and len(data) == n:
        a = _number_list(data, path).reshape(shape)
    else:
        raise ValidationError(f"{path}: data length does not match shape {list(shape)}")
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


def _encode(layout, model: AttentionModelSpec, head: int | None = None):
    """The file node of a layout node; head picks one entry of a per-head leaf."""
    if isinstance(layout, str):
        a = attrgetter(layout)(model)
        return _encode_array(a if head is None else a[head])
    if isinstance(layout, list):
        return [_encode(layout[0], model, h) for h in range(model.heads)]
    return {key: _encode(sub, model, head) for key, sub in layout.items()}


def _decode(layout, node, shapes: dict, heads: int, path: str, per_head: bool = False) -> dict[str, np.ndarray]:
    """The arrays under a layout node, by leaf, each checked against its
    shape; the entries of a per-head list are stacked on axis 0."""
    if isinstance(layout, str):
        return {layout: _decode_array(node, shapes[layout][1:] if per_head else shapes[layout], path)}
    if isinstance(layout, list):
        if not isinstance(node, list) or len(node) != heads:
            raise ValidationError(f"{path}: expected a list of {heads} head entries")
        entries = [_decode(layout[0], entry, shapes, heads, f"{path}[{h}]", True) for h, entry in enumerate(node)]
        return {name: np.stack([e[name] for e in entries]) for name in entries[0]}
    _require_keys(node, set(layout) - _OPTIONAL, set(layout) & _OPTIONAL, path)
    arrays = {}
    for key, sub in layout.items():
        if key in node:
            arrays.update(_decode(sub, node[key], shapes, heads, f"{path}.{key}", per_head))
    return arrays


def save_model(model: AttentionModelSpec, path: str) -> None:
    """Write the model's weight file, each array's data as base64 float64
    (_encode_array); a path that cannot be written is a ValidationError
    naming it."""
    doc = {
        "arch": "patch-attn-residual" if model.residual else "patch-attn",
        "dims": {key: getattr(model, field) for key, field in _DIMS.items()},
        "patch": model.patch,
        "heads": model.heads,
        "suffix_kind": model.suffix_kind,
        "weights": _encode(_LAYOUTS[model.suffix_kind], model),
    }
    with open_output(path) as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_model(path: str) -> AttentionModelSpec:
    """Parse and validate a weight file.  Unknown fields anywhere are rejected,
    and every error names its field path.  An array's data is a base64
    string, checked for its exact length before it is decoded, or a number
    list read by _number_list; either way it must be finite."""
    doc = read_json(path)
    _require_keys(doc, {"arch", "dims", "patch", "heads", "suffix_kind", "weights"}, set(), "top level")
    arch = doc["arch"]
    if not isinstance(arch, str) or arch not in _ARCHES:
        raise ValidationError(f"arch: expected one of {sorted(_ARCHES)}, got {arch!r}")
    _require_keys(doc["dims"], set(_DIMS), set(), "dims")
    dims = {field: check_int(f"dims.{key}", doc["dims"][key], 1) for key, field in _DIMS.items()}
    patch = check_int("patch", doc["patch"], 1)
    heads = check_int("heads", doc["heads"], 1)
    if dims["height"] % patch or dims["width"] % patch:
        raise ValidationError(f"patch: {patch} must divide height {dims['height']} and width {dims['width']}")
    suffix_kind = doc["suffix_kind"]
    if not isinstance(suffix_kind, str) or suffix_kind not in _LAYOUTS:
        raise ValidationError(f"suffix_kind: expected 'linear' or 'mlp1', got {suffix_kind!r}")

    weights = doc["weights"]
    hidden = 0
    if suffix_kind == "mlp1":
        # The decode reaches weights.suffix.w1 before any other leaf whose
        # shape uses hidden, and reports a malformed w1 there.
        try:
            hidden = weights["suffix"]["w1"]["shape"][0]
        except (KeyError, IndexError, TypeError):
            pass
    tokens = (dims["height"] // patch) * (dims["width"] // patch)
    patch_dim = dims["channels"] * patch * patch
    shapes = _shapes(heads, tokens, patch_dim, dims["d_model"], dims["d_head"], dims["n_classes"], hidden)
    arrays = _decode(_LAYOUTS[suffix_kind], weights, shapes, heads, "weights")
    if "mask" not in arrays:
        # Built only now: the mask grows with the square of the token count,
        # which the decoded arrays bound, but the dims alone do not.
        arrays["mask"] = np.zeros(shapes["mask"])
    return _build(arrays, suffix_kind, patch=patch, heads=heads, residual=_ARCHES[arch], **dims)


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
    patches.  The mask is zero.  The seed and the sizes must be integers
    (>= 0 and >= 1), not bools, and weight_scale a finite number.
    """
    check_int("seed", seed, 0)
    weight_scale = check_real("weight_scale", weight_scale)
    if not math.isfinite(weight_scale):
        raise ValidationError(f"weight_scale must be finite, got {weight_scale!r}")
    if not isinstance(suffix_kind, str) or suffix_kind not in _LAYOUTS:
        raise ValidationError(f"suffix_kind must be 'linear' or 'mlp1', got {suffix_kind!r}")
    sizes = {
        "tokens": tokens, "heads": heads, "d_model": d_model, "patch": patch, "channels": channels, "n_classes": n_classes
    }
    if suffix_kind == "mlp1":
        sizes["hidden"] = hidden
    for name, value in sizes.items():
        check_int(name, value, 1)
    d_head = max(1, d_model // heads) if d_head is None else check_int("d_head", d_head, 1)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    shapes = _shapes(heads, tokens, channels * patch * patch, d_model, d_head, n_classes, hidden)
    names = [name for name in _LEAVES[suffix_kind] if name != "mask"]
    arrays = {}
    for w, b in zip(names[::2], names[1::2]):
        # A weight's fan-in is its size over its bias's: the inputs summed
        # into each output.
        fan_in = math.prod(shapes[w]) // math.prod(shapes[b])
        for name in (w, b):
            arrays[name] = rng.standard_normal(shapes[name]) * (weight_scale / math.sqrt(fan_in))
    arrays["mask"] = np.zeros(shapes["mask"])
    return _build(
        arrays, suffix_kind, height=patch, width=patch * tokens, channels=channels, patch=patch,
        d_model=d_model, d_head=d_head, heads=heads, n_classes=n_classes, residual=residual,
    )
