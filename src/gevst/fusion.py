"""Geometry-content fusion cells.

A cell attends from primary (query-side) features over secondary (key-side)
features twice — once scoring content against content, once geometry against
geometry — then sums the two row-stochastic maps to weight the secondary
CONTENT. The summed map's rows total 2 by construction. The weighted
content is blown up Er-fold, multiplied elementwise against an equally
blown-up copy of the primary content, and sum-pooled back down with stride
Er; the result updates the primary content through a skip connection.
Secondary features are never updated. The geometry map alone also
aggregates secondary GEOMETRY into inter-geometry features.

Base variants: "cg" runs both maps (the full cell); "c" drops the geometry
map (output independent of every geometry input, inter-geometry is zero);
"g" drops the content map (attention independent of content).

Stacked cells have independent parameters; the primary content flows through,
and the inter-geometry comes from the LAST cell. Every cell's maps leave only
through the recorder (`T.record`).

A cell runs on one scene or on a batch of scenes padded to [B x N x d] and
[B x M x d]: each map is batched, and the padded keys of each scene score
-1e9 before the softmax, so they take no weight and a padded row never
reaches a real one. Padded query rows compute values nobody reads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .config import FUSION_BASES
from .errors import ConfigError, InputError, ShapeError
from .nn import Linear, Tensor, init_linear, linear


@dataclass
class AdditiveAttention:
    """score(i, j) = w_out . tanh(W_v q_i + W_s k_j) (+ zero-init biases)."""

    s_proj: Linear  # keys   [d -> d_a]
    v_proj: Linear  # queries [d -> d_a]
    out: Linear  # [d_a -> 1]


@dataclass
class FusionCellParams:
    content: AdditiveAttention  # None under base "g"
    geometry: AdditiveAttention  # None under base "c"
    v_exp: Linear  # [d -> Er*d]
    s_exp: Linear  # [d -> Er*d]


@dataclass
class FusionOutput:
    fused_content: Tensor  # [N x d], or [B x N x d] for a batch
    inter_geometry: Tensor  # [N x d], or [B x N x d] for a batch


def _init_additive(rng, d):
    return AdditiveAttention(init_linear(rng, d, d), init_linear(rng, d, d), init_linear(rng, d, 1))


def init_fusion_cell(rng, d, er, base="cg"):
    if base not in FUSION_BASES:
        raise ConfigError(f"fusion base must be one of {FUSION_BASES}, got {base!r}")
    return FusionCellParams(
        content=_init_additive(rng, d) if "c" in base else None,
        geometry=_init_additive(rng, d) if "g" in base else None,
        v_exp=init_linear(rng, d, er * d),
        s_exp=init_linear(rng, d, er * d),
    )


def attention_map(att: AdditiveAttention, queries, keys, key_padding=None):
    """Row-stochastic additive-attention map [..., N x M] of queries [..., N x
    d] over keys [..., M x d]. key_padding (bool [..., M], optional) marks the
    padded keys, whose scores are set to -1e9 before the softmax."""
    lead, n, m = queries.data.shape[:-2], queries.data.shape[-2], keys.data.shape[-2]
    if queries.data.shape[-1] != keys.data.shape[-1]:
        raise ShapeError(f"query width {queries.data.shape} != key width {keys.data.shape}")
    h = T.tanh(T.pairwise_add(linear(queries, att.v_proj), linear(keys, att.s_proj)))
    scores = T.reshape(linear(h, att.out), lead + (n, m))
    mask = None if key_padding is None else np.broadcast_to(key_padding[..., None, :], scores.data.shape)
    return T.softmax(scores, mask)


def fusion_cell(params: FusionCellParams, er, content_q, geo_q, content_k, geo_k, key_padding=None):
    """One cell pass over one scene ([N x d] queries, [M x d] keys) or a padded
    batch ([B x N x d], [B x M x d], key_padding bool [B x M]). Returns
    (updated content, content map, geometry map, inter)."""
    n, m = content_q.data.shape[-2], content_k.data.shape[-2]
    if n < 1 or m < 1:
        raise InputError("fusion needs at least one row on each side")

    alpha_con = attention_map(params.content, content_q, content_k, key_padding) if params.content is not None else None
    alpha_geo = attention_map(params.geometry, geo_q, geo_k, key_padding) if params.geometry is not None else None

    if alpha_con is not None and alpha_geo is not None:
        weights = T.add(alpha_con, alpha_geo)
    else:
        weights = alpha_con if alpha_con is not None else alpha_geo

    s_hat = T.matmul(weights, content_k)
    v_dot = linear(content_q, params.v_exp)
    s_dot = linear(s_hat, params.s_exp)
    fused = T.sum_pool_stride(T.mul(s_dot, v_dot), er)
    updated = T.add(content_q, fused)

    if alpha_geo is not None:
        inter = T.matmul(alpha_geo, geo_k)
    else:
        inter = Tensor(np.zeros(content_q.data.shape))
    return updated, alpha_con, alpha_geo, inter


def stack_fusion(cells, er, primary_content, primary_geo, secondary_content, secondary_geo, key_padding=None):
    """Run m cells; only the primary content is threaded through. Inputs are
    one scene's or a padded batch's, the secondary side's padding given as
    key_padding (`fusion_cell`).

    Records each cell's maps as "content" and "geometry" (see `T.record`).
    """
    if not cells:
        raise ConfigError("at least one fusion cell is required")
    x = primary_content
    for cell in cells:
        x, alpha_con, alpha_geo, inter = fusion_cell(cell, er, x, primary_geo, secondary_content, secondary_geo,
                                                     key_padding)
        T.record("content", alpha_con)
        T.record("geometry", alpha_geo)
    return FusionOutput(x, inter)
