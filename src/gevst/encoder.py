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
on a leading branch axis, and their parameters are stored that way
(`GesaGroupParams`): each layer's content weights as [k x ...] tensors, and
each geometry projection as one [L*k x ...] tensor over every (branch,
layer) pair, which one stacked pass reads whole (`geometry_maps`). Each
slice computes what its branch alone would, with the same NumPy
arithmetic; tests/util.py keeps the per-branch loop as the reference, with
the per-branch view of these tensors.

A batch of scenes runs as one: every input gains a batch axis, [B x N x d],
each scene's tokens padded to the batch's most, and a bool [B x N] padding
per side marks the padded tokens. Every map (fusion's additive maps, the
content and geometry maps here) adds the padding's key bias (`nn.key_bias`,
-1e9 at a padded key) before its softmax, and the gate's token mean runs
over each scene's real tokens only, so no padded row reaches a real one;
padded rows compute values nobody reads. One scene is a batch of one, with
no padded row and therefore no bias.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import tensor as T
from .config import GESA_VARIANTS
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
    key_bias,
    layer_norm,
    linear,
    real_mean,
)

# The branches that attend over one token set, each group run on one leading
# axis: the semantic pair over the dense captions, the visual pair over the
# regions. Branch outputs come out in BRANCH_NAMES order.
GROUPS = (("ss", "sv"), ("vs", "vv"))


def active_groups(branches):
    """{key: active members} of each group with any, in GROUPS order; the key
    ("ss+sv", or one branch's name) names the group in `ModelParams.branches`."""
    return {"+".join(members): members for members in ([b for b in g if b in branches] for g in GROUPS) if members}


def variant_map_count(variant):
    if variant not in GESA_VARIANTS:
        raise ConfigError(f"gesa variant must be one of {GESA_VARIANTS}, got {variant!r}")
    return 1 + variant.count("_")


@dataclass
class GesaLayerParams:
    """The content weights of one GESA layer, each [k x ...] for a group of k."""

    q_c: Linear
    k_c: Linear
    v_c: Linear
    gate: Linear  # [d -> number of active maps]
    ln1: LayerNorm
    ffn: Ffn
    ln2: LayerNorm


@dataclass
class GeometryProjections:
    """A group's geometry projections, each [L*k x d x d]: pair i*L + l is
    branch i's layer l."""

    q_intra: Linear  # None under "con"
    k_intra: Linear
    q_inter: Linear  # None unless "con_intra_inter"
    k_inter: Linear


@dataclass
class GesaGroupParams:
    layers: list  # per layer, GesaLayerParams
    geometry: GeometryProjections


def init_gesa_group(layout, d, h, variant, branches, layers):
    """A group of `branches` branches, `layers` deep. Each branch's layers are
    drawn in turn, each in the order q_c, k_c, v_c, the geometry projections,
    gate, ln1, ffn, ln2, each into its slice of the stacked tensor
    (`nn.Layout.stack`)."""
    maps = variant_map_count(variant)
    if d % h != 0:
        raise ConfigError(f"model width {d} not divisible by {h} heads")
    content, geometry = [], []  # per (branch, layer), branch-major
    for _ in range(branches * layers):
        q_c, k_c, v_c = (init_linear(layout, d, d) for _ in range(3))
        geometry.append(GeometryProjections(*(init_linear(layout, d, d) if i < 2 * maps - 2 else None for i in range(4))))
        content.append(GesaLayerParams(q_c, k_c, v_c, init_linear(layout, d, maps), init_layer_norm(layout, d),
                                       init_ffn(layout, d), init_layer_norm(layout, d)))
    return GesaGroupParams([layout.stack(content[i::layers]) for i in range(layers)], layout.stack(geometry))


def geometry_maps(group: GesaGroupParams, h, g_intra, g_inter, bias=None):
    """Per layer, the geometry maps [k x ... x h x N x N] of a group of k
    branches over one token set, in (intra, inter) order, those the variant
    uses.

    The geometry inputs g_intra and g_inter [... x N x d] are the group's own,
    the same at every layer, so no map depends on content: each kind is one
    stacked pass over every (branch, layer) pair, branch-major, as the
    projections are stored. `bias` is the tokens' per-head key bias, or None.
    """
    n_layers = len(group.layers)
    per_layer = [[] for _ in range(n_layers)]
    geometry = group.geometry
    for g, q, k in ((g_intra, geometry.q_intra, geometry.k_intra), (g_inter, geometry.q_inter, geometry.k_inter)):
        if q is None:
            continue
        pairs = len(q.w.data)
        shared = T.stack([g] * pairs)  # a zero-copy view: every pair reads the same rows
        maps = T.attention_weights(linear(shared, q), linear(shared, k), h, bias=bias)
        for i, layer_maps in enumerate(per_layer):
            layer_maps.append(T.index(maps, slice(i, None, n_layers)))
    return per_layer


def gesa_gates(x_prev, params: GesaLayerParams, padding=None):
    """Convex gate over the active maps: softmax(mean over tokens of x W + b),
    [m] for x [N x d] and one branch's gate, or [k x ... x m] for a group's x
    [k x ... x N x d] and layer params. With `padding` (bool [... x N]) the
    mean runs over each scene's real tokens only (`nn.real_mean`); a side
    with no padded row (padding None) takes the mean over every token."""
    return T.softmax(real_mean(linear(x_prev, params.gate), padding))


def gesa_layer(x_prev, geometry, params: GesaLayerParams, h, gate_names, padding=None, bias=None):
    """One GESA layer of a group of k branches: x_prev [k x ... x N x d],
    `params` the group's weights of that layer, `geometry` that layer's maps
    (`geometry_maps`), `padding` the tokens' padding (bool [... x N]) and
    `bias` its per-head key bias, or both None. Records branch i's map gates
    [... x m] under gate_names[i] (see `T.record_each`)."""
    if x_prev.data.shape[-1] % h != 0:
        raise ConfigError(f"width {x_prev.data.shape[-1]} not divisible by {h} heads")
    content = T.attention_weights(linear(x_prev, params.q_c), linear(x_prev, params.k_c), h, bias=bias)
    if any(m.data.shape != content.data.shape for m in geometry):
        raise ShapeError(f"geometry map shapes {[m.data.shape for m in geometry]} != content map shape "
                         f"{content.data.shape}")
    gates = gesa_gates(x_prev, params, padding)
    T.record_each(gate_names, gates)
    attended = T.apply_attention(T.mix_maps([content, *geometry], gates), linear(x_prev, params.v_c), h)
    a = layer_norm(T.add(x_prev, attended), params.ln1)
    return layer_norm(T.add(a, ffn(a, params.ffn)), params.ln2)


def branch_forward(group: GesaGroupParams, h, content, g_intra, g_inter, gate_names, padding=None):
    """A group of k branches that share one token set, on one leading axis:
    content [k x ... x N x d], the geometry inputs [... x N x d] shared by the
    group and repeated unchanged at every layer, the leading axes those of
    one scene (none) or of a padded batch ([B], with `padding` bool [B x N]).
    Returns [k x ... x N x d]."""
    x = content
    bias = None if padding is None else key_bias(padding[..., None, :])  # [B x 1 x 1 x N], over every head
    for params, maps in zip(group.layers, geometry_maps(group, h, g_intra, g_inter, bias)):
        x = gesa_layer(x, maps, params, h, gate_names, padding, bias)
    return x


def needs_fusion(branches):
    """(fusion_vs needed, fusion_sv needed): vv/vs read the visual-primary
    fusion, ss/sv the semantic-primary one."""
    return ("vv" in branches or "vs" in branches, "ss" in branches or "sv" in branches)


def encode_all(v_con, v_geo, s_con, s_geo, fusion_vs, fusion_sv, groups, h, er, v_padding=None, s_padding=None):
    """Run the needed fusions and every active branch, over one scene (inputs
    [N x d]) or a padded batch of scenes (inputs [B x N x d], with the bool
    [B x N] paddings of the regions and dense captions; None when nothing is
    padded).

    `groups` maps the key of each group with active branches to its
    GesaGroupParams, as `active_groups` orders and names them; their members
    are the active branches. fusion_vs fuses semantic into visual (visual
    primary); fusion_sv the reverse. A side's branches take its geometry
    embeddings and its fusion's inter-geometry; vv/ss keep their pure
    content, vs/sv take the fused content. Each group runs on one branch
    axis (`branch_forward`). Returns {branch: Tensor}, in ss, sv, vs, vv
    order, each shaped like its side's content. Each fusion stack records
    under the scope "fusion_vs"/"fusion_sv", each branch's gates as
    "<branch>.gesa_gates".
    """
    active = [b for key in groups for b in key.split("+")]
    if not active or list(groups) != list(active_groups(active)):
        raise ConfigError(f"encoder branch groups {list(groups)} must be the active members of some of {GROUPS}")

    need_vs, need_sv = needs_fusion(active)
    vs_out = sv_out = None
    if need_vs:
        with T.scope("fusion_vs"):
            vs_out = stack_fusion(fusion_vs, er, v_con, v_geo, s_con, s_geo, s_padding)
    if need_sv:
        with T.scope("fusion_sv"):
            sv_out = stack_fusion(fusion_sv, er, s_con, s_geo, v_con, v_geo, v_padding)

    sides = {"s": (s_geo, sv_out, s_padding), "v": (v_geo, vs_out, v_padding)}
    pure = {"ss": s_con, "vv": v_con}
    outputs = {}
    for key, group in groups.items():
        members = key.split("+")
        g_intra, fusion, padding = sides[key[0]]
        content = T.stack([pure[b] if b in pure else fusion.fused_content for b in members])
        out = branch_forward(group, h, content, g_intra, fusion.inter_geometry, [f"{b}.gesa_gates" for b in members],
                             padding)
        for i, b in enumerate(members):
            outputs[b] = T.index(out, i)
    return outputs
