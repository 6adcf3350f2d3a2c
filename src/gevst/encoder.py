"""Geometry-entangled self-attention (content / intra-geometry / inter-geometry).

Each layer builds up to three per-head row-stochastic maps over the same
tokens: one from the evolving content, one from the static intra-modal
geometry embeddings, one from the static cross-modal inter-geometry features
produced by fusion. A per-layer gate (softmax over the token-mean of
x W_gate, shared across heads) mixes the maps convexly; the combined map is
applied to the content values, then the usual post-norm residual + 4x FFN
sublayers follow. No output projection exists after the value concat — the
combined map hits the values directly.

Variants nest: "con" uses only the content map, "con_intra" adds the
intra-geometry map, "con_intra_inter" all three. Forcing the extra gate
logits to -1e9 makes the richer variant reproduce the poorer one exactly
(the extra gate scores underflow to 0).

Four branches share this layer type: vv (pure visual content), vs (semantic
fused into visual), sv (visual fused into semantic), ss (pure semantic).
Visual-side branches take visual intra-geometry and the inter-geometry of the
visual-primary fusion; semantic-side branches are symmetric. The geometry
inputs are identical at every layer; only content evolves.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import tensor as T
from .config import BRANCH_NAMES, GESA_VARIANTS
from .errors import ConfigError, ShapeError
from .fusion import stack_fusion
from .nn import (
    Ffn,
    LayerNorm,
    Linear,
    ffn,
    init_ffn,
    init_layer_norm,
    init_linear,
    layer_norm,
    linear,
)


def variant_map_count(variant):
    if variant not in GESA_VARIANTS:
        raise ConfigError(f"gesa variant must be one of {GESA_VARIANTS}, got {variant!r}")
    return 1 + variant.count("_")


@dataclass
class GesaLayerParams:
    q_c: Linear
    k_c: Linear
    v_c: Linear
    q_intra: Linear  # None under "con"
    k_intra: Linear
    q_inter: Linear  # None unless "con_intra_inter"
    k_inter: Linear
    gate: Linear  # [d -> number of active maps]
    ln1: LayerNorm
    ffn: Ffn
    ln2: LayerNorm


def init_gesa_layer(rng, d, h, variant="con_intra_inter"):
    k = variant_map_count(variant)
    if d % h != 0:
        raise ConfigError(f"model width {d} not divisible by {h} heads")
    with_intra = k >= 2
    with_inter = k >= 3
    return GesaLayerParams(
        q_c=init_linear(rng, d, d),
        k_c=init_linear(rng, d, d),
        v_c=init_linear(rng, d, d),
        q_intra=init_linear(rng, d, d) if with_intra else None,
        k_intra=init_linear(rng, d, d) if with_intra else None,
        q_inter=init_linear(rng, d, d) if with_inter else None,
        k_inter=init_linear(rng, d, d) if with_inter else None,
        gate=init_linear(rng, d, k),
        ln1=init_layer_norm(d),
        ffn=init_ffn(rng, d),
        ln2=init_layer_norm(d),
    )


def gesa_attention_maps(x_prev, g_intra, g_inter, params: GesaLayerParams, h):
    """The active per-head maps, in (content, intra, inter) order."""
    if x_prev.data.shape[-1] % h != 0:
        raise ConfigError(f"width {x_prev.data.shape[-1]} not divisible by {h} heads")
    maps = [T.attention_weights(linear(x_prev, params.q_c), linear(x_prev, params.k_c), h)]
    for kind, g, q, k in (("intra", g_intra, params.q_intra, params.k_intra),
                          ("inter", g_inter, params.q_inter, params.k_inter)):
        if q is None:
            continue
        if g.data.shape != x_prev.data.shape:
            raise ShapeError(f"{kind}-geometry shape {g.data.shape} != content shape {x_prev.data.shape}")
        maps.append(T.attention_weights(linear(g, q), linear(g, k), h))
    return maps


def gesa_gates(x_prev, params: GesaLayerParams):
    """Convex gate over the active maps: softmax(mean over tokens of x W + b)."""
    return T.softmax(T.mean(linear(x_prev, params.gate), axis=0))


def gesa_layer(x_prev, g_intra, g_inter, params: GesaLayerParams, h):
    """One GESA layer; records its map gates as "gesa_gates" (see `T.record`)."""
    maps = gesa_attention_maps(x_prev, g_intra, g_inter, params, h)
    gates = gesa_gates(x_prev, params)
    T.record("gesa_gates", gates)
    attended = T.apply_attention(T.mix_maps(maps, gates), linear(x_prev, params.v_c), h)
    a = layer_norm(T.add(x_prev, attended), params.ln1)
    return layer_norm(T.add(a, ffn(a, params.ffn)), params.ln2)


def branch_forward(layers, h, content, g_intra, g_inter):
    """Stack of GESA layers; geometry inputs repeat unchanged at every layer."""
    x = content
    for lp in layers:
        x = gesa_layer(x, g_intra, g_inter, lp, h)
    return x


def needs_fusion(branches):
    """(fusion_vs needed, fusion_sv needed): vv/vs read the visual-primary
    fusion, ss/sv the semantic-primary one."""
    return ("vv" in branches or "vs" in branches, "ss" in branches or "sv" in branches)


def encode_all(v_con, v_geo, s_con, s_geo, fusion_vs, fusion_sv, branch_layers,
               h, er, active_branches=BRANCH_NAMES):
    """Run the needed fusions and every active branch.

    fusion_vs fuses semantic into visual (visual primary); fusion_sv the
    reverse. vv/ss reuse the matching fusion's inter-geometry but keep their
    pure content. Returns {branch: Tensor}, in ss, sv, vs, vv order. Each
    fusion stack records under the scope "fusion_vs"/"fusion_sv", each
    branch under its own name.
    """
    active = [b for b in BRANCH_NAMES if b in active_branches]
    if not active:
        raise ConfigError("at least one encoder branch must be active")
    unknown = set(active_branches) - set(BRANCH_NAMES)
    if unknown:
        raise ConfigError(f"unknown branches {sorted(unknown)}")

    need_vs, need_sv = needs_fusion(active)
    vs_out = sv_out = None
    if need_vs:
        with T.scope("fusion_vs"):
            vs_out = stack_fusion(fusion_vs, er, v_con, v_geo, s_con, s_geo)
    if need_sv:
        with T.scope("fusion_sv"):
            sv_out = stack_fusion(fusion_sv, er, s_con, s_geo, v_con, v_geo)

    inputs = {}
    if "ss" in active:
        inputs["ss"] = (s_con, s_geo, sv_out.inter_geometry)
    if "sv" in active:
        inputs["sv"] = (sv_out.fused_content, s_geo, sv_out.inter_geometry)
    if "vs" in active:
        inputs["vs"] = (vs_out.fused_content, v_geo, vs_out.inter_geometry)
    if "vv" in active:
        inputs["vv"] = (v_con, v_geo, vs_out.inter_geometry)

    outputs = {}
    for b in active:
        with T.scope(b):
            outputs[b] = branch_forward(branch_layers[b], h, *inputs[b])
    return outputs
