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

The branches of one side attend over the same tokens with the same geometry,
so each side's active branches (a group of one or two, GROUPS) run together
on a leading branch axis: every layer's parameters are stacked on that axis
(views of the flat parameter vector, `T.stack`), and every layer's geometry
maps come from one stacked pass (`geometry_maps`). Each slice computes what
its branch alone would, with the same NumPy arithmetic; tests/util.py keeps
the per-branch loop as the reference. Samples are still encoded one at a
time: fusion and GESA across the samples of a batch need padding and masks
that they do not have yet.
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
    stacked,
)

# The branches that attend over one token set, each group run on one leading
# axis: the semantic pair over the dense captions, the visual pair over the
# regions. Branch outputs come out in BRANCH_NAMES order.
GROUPS = (("ss", "sv"), ("vs", "vv"))
# The fields of a GESA layer that act on the evolving content.
CONTENT_FIELDS = ("q_c", "k_c", "v_c", "gate", "ln1", "ffn", "ln2")


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


def geometry_maps(layer_lists, h, g_intra, g_inter):
    """Per layer, the geometry maps [k x h x N x N] of a group of k branches
    over one token set, in (intra, inter) order, those the variant uses.

    The geometry inputs g_intra and g_inter [N x d] are the group's own, the
    same at every layer, so no map depends on content: each kind is one
    stacked pass over every (branch, layer) pair, branch-major, which is the
    order the projections lie in the flat parameter vector, so their stacks
    are views of it.
    """
    pairs = [lp for layers in layer_lists for lp in layers]
    n_layers = len(layer_lists[0])
    per_layer = [[] for _ in range(n_layers)]
    for kind, g in (("intra", g_intra), ("inter", g_inter)):
        if getattr(pairs[0], f"q_{kind}") is None:
            continue
        shared = T.stack([g] * len(pairs))  # a zero-copy view: every pair reads the same rows
        maps = T.attention_weights(linear(shared, stacked([getattr(lp, f"q_{kind}") for lp in pairs])),
                                   linear(shared, stacked([getattr(lp, f"k_{kind}") for lp in pairs])), h)
        for i, layer_maps in enumerate(per_layer):
            layer_maps.append(T.index(maps, slice(i, None, n_layers)))
    return per_layer


def gesa_gates(x_prev, params: GesaLayerParams):
    """Convex gate over the active maps: softmax(mean over tokens of x W + b),
    [m] for x [N x d], or [k x m] for a group's x [k x N x d] and stacked params."""
    return T.softmax(T.mean(linear(x_prev, params.gate), axis=-2))


def gesa_layer(x_prev, geometry, params: GesaLayerParams, h, gate_names):
    """One GESA layer of a group of k branches: x_prev [k x N x d], `params`
    the branches' layer parameters stacked (`stacked_layer`), `geometry`
    that layer's maps (`geometry_maps`). Records branch i's map gates [m]
    under gate_names[i] (see `T.record_each`)."""
    if x_prev.data.shape[-1] % h != 0:
        raise ConfigError(f"width {x_prev.data.shape[-1]} not divisible by {h} heads")
    content = T.attention_weights(linear(x_prev, params.q_c), linear(x_prev, params.k_c), h)
    if any(m.data.shape != content.data.shape for m in geometry):
        raise ShapeError(f"geometry map shapes {[m.data.shape for m in geometry]} != content map shape "
                         f"{content.data.shape}")
    gates = gesa_gates(x_prev, params)
    T.record_each(gate_names, gates)
    attended = T.apply_attention(T.mix_maps([content, *geometry], gates), linear(x_prev, params.v_c), h)
    a = layer_norm(T.add(x_prev, attended), params.ln1)
    return layer_norm(T.add(a, ffn(a, params.ffn)), params.ln2)


def stacked_layer(lps):
    """The content-side parameters of one layer of k branches, stacked on the
    branch axis (`nn.stacked`); the geometry projections go to `geometry_maps`."""
    return GesaLayerParams(**{f: stacked([getattr(lp, f) for lp in lps]) for f in CONTENT_FIELDS},
                           q_intra=None, k_intra=None, q_inter=None, k_inter=None)


def branch_forward(layer_lists, h, content, g_intra, g_inter, gate_names):
    """A group of k branches that share one token set, on one leading axis:
    content [k x N x d], layer_lists[i] branch i's layers, the geometry
    inputs [N x d] shared by the group and repeated unchanged at every
    layer. Returns [k x N x d]."""
    if len({len(layers) for layers in layer_lists}) != 1:
        raise ConfigError("every branch of a group needs the same number of layers")
    x = content
    for lps, maps in zip(zip(*layer_lists), geometry_maps(layer_lists, h, g_intra, g_inter)):
        x = gesa_layer(x, maps, stacked_layer(lps), h, gate_names)
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
    pure content. Each group of active branches (GROUPS) runs on one branch
    axis (`branch_forward`). Returns {branch: Tensor}, in ss, sv, vs, vv
    order. Each fusion stack records under the scope "fusion_vs"/"fusion_sv",
    each branch's gates as "<branch>.gesa_gates".
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
    for group in GROUPS:
        members = [b for b in group if b in active]
        if not members:
            continue
        _, g_intra, g_inter = inputs[members[0]]
        out = branch_forward([branch_layers[b] for b in members], h, T.stack([inputs[b][0] for b in members]),
                             g_intra, g_inter, [f"{b}.gesa_gates" for b in members])
        for i, b in enumerate(members):
            outputs[b] = T.index(out, i)
    return outputs
