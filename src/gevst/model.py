"""Full model assembly: inputs -> four-branch encoding -> caption logits.

Scenes are encoded in one pass (`encode_scenes`): every region, box and
dense caption of the batch goes through its embedding or encoder at once,
and fusion and GESA run over the scenes padded to [B x N x d], their padded
keys masked. Each sample gets a Scene, its row of that batch
(`encode_sample`), and the decoder reads Scenes on its branch axis
(`branch_axis`). One scene alone is a batch of one, with no padded row and
therefore no mask.

Parameter layout (and with it the checkpoint manifest order) is fixed by the
declaration order of ModelParams and the deterministic walker in nn. Only the
branches named in the config get parameters, and fusion stacks exist only
when some active branch consumes them. The GESA branches are stored by
group, and the decoder's per-branch weights on one branch axis, as they are
computed (`encoder`, `decoder`); init draws them branch by branch, each
into its slice of the stack (`nn.Layout.stack`).

The model is born in its one float64 vector: `model_layout` runs init's code
as a layout pass that allocates nothing (`nn.Layout`), and `init_model` then
allocates the vector, binds each Tensor to its view and draws each leaf
straight into it. `training.load_checkpoint` reads a file's body into the
vector of that same layout instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .caption_encoder import CaptionEncoderParams, encode_captions, init_caption_encoder
from .config import BRANCH_NAMES, TrainConfig
from .decoder import CachedDecoder, decoder_forward, init_decoder_layer
from .encoder import active_groups, encode_all, init_gesa_group, needs_fusion
from .errors import ConfigError, ContractError, GevstError, InputError
from .fusion import init_fusion_cell
from .geometry import embed_geometry, init_geometry, normalize_boxes
from .nn import Layout, Linear, Tensor, bind_flat, init_embedding, init_linear, linear, pad_rows


# The config fields that size a parameter, in the order a too-large model's
# error names them when equal.
WIDTHS = ("d_model", "raw_feat_dim", "enc_width", "expand_ratio")


@dataclass
class ModelParams:
    vis_in: Linear  # raw region features -> d_model
    geo_visual: Linear
    geo_semantic: Linear
    captions: CaptionEncoderParams
    fusion_vs: list  # semantic fused into visual; None when unused
    fusion_sv: list
    branches: dict  # group key ("ss+sv", "vs+vv", or one branch's name) -> [GesaLayerParams per layer]
    dec_embed: Tensor
    dec_layers: list
    out: Linear  # d_model -> vocab


def model_layout(cfg: TrainConfig, vocab_size, alloc=None):
    """(the Layout, ModelParams) of init's layout pass: every Tensor shaped,
    none bound to memory, no draw made (`nn.Layout`). With `alloc`, the
    Tensors are then bound to one vector it allocates (`nn.bind_flat`). A
    model too large to lay out or allocate is a ConfigError."""
    d = cfg.d_model
    need_vs, need_sv = needs_fusion(cfg.branches)
    active = [b for b in BRANCH_NAMES if b in cfg.branches]
    layout = Layout()
    try:
        params = ModelParams(
            vis_in=init_linear(layout, cfg.raw_feat_dim, d),
            geo_visual=init_geometry(layout, d),
            geo_semantic=init_geometry(layout, d),
            captions=init_caption_encoder(layout, vocab_size, cfg.enc_width, cfg.enc_layers, d),
            fusion_vs=[init_fusion_cell(layout, d, cfg.expand_ratio, cfg.fusion_base) for _ in range(cfg.fusion_cells)] if need_vs else None,
            fusion_sv=[init_fusion_cell(layout, d, cfg.expand_ratio, cfg.fusion_base) for _ in range(cfg.fusion_cells)] if need_sv else None,
            branches={key: init_gesa_group(layout, d, cfg.heads, cfg.gesa_variant, len(members), cfg.layers)
                      for key, members in active_groups(active).items()},
            dec_embed=init_embedding(layout, vocab_size, d),
            dec_layers=[init_decoder_layer(layout, d, active) for _ in range(cfg.layers)],
            out=init_linear(layout, d, vocab_size),
        )
        if alloc is not None:
            bind_flat(params, alloc)
        return layout, params
    except GevstError:
        raise
    except (MemoryError, OverflowError, ValueError) as e:  # a refused allocation, or a width NumPy cannot shape
        width = max(WIDTHS, key=lambda name: getattr(cfg, name))  # the widest is the one at fault
        raise ConfigError(f"config with {width} {getattr(cfg, width)} asks for a model too large to allocate: {e}") from None


def init_model(cfg: TrainConfig, vocab_size, rng) -> ModelParams:
    """cfg's model in one float64 vector (`nn.flat_parameters`), each leaf
    drawn from `rng` straight into its view."""
    layout, params = model_layout(cfg, vocab_size, np.zeros)
    layout.draw(rng)
    return params


def caption_ids(sample, vocab):
    """The id sequences of a sample's dense captions."""
    if not sample.dense_captions:
        raise InputError(f"sample {sample.id}: no dense captions")
    return [vocab.encode(dc.text) for dc in sample.dense_captions]


@dataclass
class SceneBatch:
    """Branch outputs of B scenes from one padded pass (`encode_scenes`)."""

    outputs: dict  # branch -> [B x N x d] in BRANCH_NAMES order, N the most regions (vs, vv) or dense captions (ss, sv)
    regions: list  # the region count of each scene
    captions: list  # the dense-caption count of each scene


def _padded(arrays):
    """Scenes' row arrays [n_i x w] zero-padded to [B x N x w] (`nn.pad_rows`),
    and the padding (bool [B x N], True at a padded row; None if none is)."""
    out, padding = pad_rows([Tensor(a) for a in arrays], [len(a) for a in arrays])
    return out.data, (padding if padding.any() else None)


def _region_rows(cfg, sample):
    if not sample.regions:
        raise InputError(f"sample {sample.id}: no regions")
    feats = np.stack([r.feat for r in sample.regions])
    if feats.shape[1] != cfg.raw_feat_dim:
        raise InputError(f"sample {sample.id}: feature width {feats.shape[1]} != configured {cfg.raw_feat_dim}")
    return feats, normalize_boxes([r.box for r in sample.regions], sample.image_wh)


def encode_scenes(params: ModelParams, cfg: TrainConfig, samples, vocab):
    """Every sample encoded in one pass: the regions' features and boxes and
    the dense captions' boxes padded to the batch's most, each distinct
    dense caption (id sequence) of the pass through `encode_captions` once,
    all at once, and every scene's caption rows gathered from them
    (`nn.pad_rows`, whose backward sums a repeated caption's gradients),
    then fusion and GESA over the padded batch with its padded keys masked
    (`encoder.encode_all`). A side with no padded row (a batch of one, say)
    gets no mask. Returns a SceneBatch."""
    feats, v_boxes = zip(*(_region_rows(cfg, s) for s in samples))
    ids = [caption_ids(s, vocab) for s in samples]
    s_boxes = [normalize_boxes([dc.box for dc in s.dense_captions], s.image_wh) for s in samples]
    (feats, v_padding), (v_boxes, _), (s_boxes, s_padding) = _padded(feats), _padded(v_boxes), _padded(s_boxes)
    v_con = linear(Tensor(feats), params.vis_in)
    v_geo = embed_geometry(v_boxes, params.geo_visual)
    rows = {}  # each distinct id sequence -> its row of the encoded captions, in first-seen order
    index = [rows.setdefault(tuple(seq), len(rows)) for seqs in ids for seq in seqs]
    captions = encode_captions(params.captions, cfg.enc_heads, list(rows))
    captions = pad_rows([captions], [len(seqs) for seqs in ids], index=index)[0]
    s_geo = embed_geometry(s_boxes, params.geo_semantic)
    outputs = encode_all(v_con, v_geo, captions, s_geo, params.fusion_vs, params.fusion_sv, params.branches,
                         cfg.heads, cfg.expand_ratio, v_padding, s_padding)
    return SceneBatch(outputs, [len(s.regions) for s in samples], [len(s.dense_captions) for s in samples])


@dataclass
class Scene:
    """Scene `index` of a SceneBatch: one sample, as `branch_axis` reads it."""

    batch: SceneBatch
    index: int


def encode_sample(params: ModelParams, cfg: TrainConfig, sample, vocab, encoded=None):
    """One dataset sample as a Scene. `encoded` = (the batch, i) hands out
    scene i of a SceneBatch, which must have the sample's region and
    dense-caption counts, and records nothing; without it the sample is
    encoded alone, as a batch of one (no padded row, and so no mask)."""
    batch, i = encoded or (encode_scenes(params, cfg, [sample], vocab), 0)
    if (batch.regions[i], batch.captions[i]) != (len(sample.regions), len(sample.dense_captions)):
        raise InputError(f"sample {sample.id}: {len(sample.regions)} regions and {len(sample.dense_captions)} dense "
                         f"captions, but scene {i} of the batch has {batch.regions[i]} and {batch.captions[i]}")
    return Scene(batch, i)


def branch_axis(scenes):
    """S Scenes of one SceneBatch, in any order, repeats allowed, on the
    decoder's branch axis: (the k branch names, [k x S x N x d], bool [k x S
    x N]), N the longest branch output of the S scenes. Entry [i, s] holds
    branch i of scenes[s]: its real rows, then zero rows, where the padding
    is True. Recorded as a concat, a reshape and `nn.pad_rows`' two nodes."""
    if not scenes or any(s.batch is not scenes[0].batch for s in scenes):
        raise ContractError("the decoder reads the Scenes of one SceneBatch, at least one")
    batch, at = scenes[0].batch, np.array([s.index for s in scenes])
    table = T.concat(list(batch.outputs.values()), axis=1)  # [B x M x d]: each scene's rows, branch after branch
    offsets = np.cumsum([0] + [out.data.shape[1] for out in batch.outputs.values()])[:-1]
    counts = [np.take(batch.regions if b[0] == "v" else batch.captions, at) for b in batch.outputs]
    return (tuple(batch.outputs), *pad_rows([T.reshape(table, (-1, table.data.shape[2]))], counts,
                                            offsets[:, None] + at * table.data.shape[1]))


def caption_logits(params: ModelParams, cfg: TrainConfig, scenes, token_ids):
    """Teacher-forced logits: [B x T x V] for a list of B Scenes of one
    SceneBatch and a list of B BOS-led id sequences (`decoder_forward` over
    their `branch_axis`), or [T x V] for one Scene and one sequence."""
    one = isinstance(scenes, Scene)
    scenes, seqs = ([scenes], [token_ids]) if one else (scenes, token_ids)
    logits = decoder_forward(params.dec_layers, cfg.heads, branch_axis(scenes), params.dec_embed, params.out, seqs)
    return T.reshape(logits, logits.data.shape[1:]) if one else logits


def make_step_fn(params: ModelParams, cfg: TrainConfig, scene):
    """Batched, stateful decoding step for one Scene: `step(prefixes)` returns
    the [len(prefixes) x V] log-probs of the next token after each prefix,
    tapeless. The first call takes [BOS] prefixes; each later call takes
    prefixes one token longer than some prefix of the call before (see
    `decoder.CachedDecoder`, here over the one scene)."""
    with T.no_grad():
        decoder = CachedDecoder(params.dec_layers, cfg.heads, branch_axis([scene]), params.dec_embed, params.out)
    return lambda prefixes: decoder([(0, p) for p in prefixes])
