"""Full model assembly: inputs -> four-branch encoding -> caption logits.

A batch of scenes is encoded in one pass (`encode_scenes`): every region,
box and dense caption of the batch goes through its embedding or encoder
at once, and fusion and GESA run over the scenes padded to [B x N x d],
their padded keys masked. Each scene then takes its real rows
(`encode_sample` with the batch). One scene alone (`encode_sample`) runs
the same code at [N x d], with no batch axis, padding or mask.

Parameter layout (and with it the checkpoint manifest order) is fixed by the
declaration order of ModelParams and the deterministic walker in nn. Only the
branches named in the config get parameters, and fusion stacks exist only
when some active branch consumes them. The GESA branches are stored by
group, and the decoder's per-branch weights on one branch axis, as they are
computed (`encoder`, `decoder`); init draws them branch by branch, in the
order of the per-branch layout it replaced.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .caption_encoder import CaptionEncoderParams, encode_captions, init_caption_encoder
from .config import BRANCH_NAMES, TrainConfig
from .decoder import CachedDecoder, decoder_forward, init_decoder_layer
from .encoder import active_groups, encode_all, init_gesa_group, needs_fusion
from .errors import ConfigError, GevstError, InputError
from .fusion import init_fusion_cell
from .geometry import embed_geometry, init_geometry, normalize_boxes
from .nn import Linear, Tensor, init_embedding, init_linear, linear, pad_rows


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
    branches: dict  # group key ("ss+sv", "vs+vv", or one branch's name) -> GesaGroupParams
    dec_embed: Tensor
    dec_layers: list
    out: Linear  # d_model -> vocab


def init_model(cfg: TrainConfig, vocab_size, rng) -> ModelParams:
    d = cfg.d_model
    need_vs, need_sv = needs_fusion(cfg.branches)
    active = [b for b in BRANCH_NAMES if b in cfg.branches]
    try:
        return ModelParams(
            vis_in=init_linear(rng, cfg.raw_feat_dim, d),
            geo_visual=init_geometry(rng, d),
            geo_semantic=init_geometry(rng, d),
            captions=init_caption_encoder(rng, vocab_size, cfg.enc_width, cfg.enc_layers, d),
            fusion_vs=[init_fusion_cell(rng, d, cfg.expand_ratio, cfg.fusion_base) for _ in range(cfg.fusion_cells)] if need_vs else None,
            fusion_sv=[init_fusion_cell(rng, d, cfg.expand_ratio, cfg.fusion_base) for _ in range(cfg.fusion_cells)] if need_sv else None,
            branches={key: init_gesa_group(rng, d, cfg.heads, cfg.gesa_variant, len(members), cfg.layers)
                      for key, members in active_groups(active).items()},
            dec_embed=init_embedding(rng, vocab_size, d),
            dec_layers=[init_decoder_layer(rng, d, active) for _ in range(cfg.layers)],
            out=init_linear(rng, d, vocab_size),
        )
    except GevstError:
        raise
    except (MemoryError, OverflowError, ValueError) as e:  # a refused allocation, or a width NumPy cannot shape
        width = max(WIDTHS, key=lambda name: getattr(cfg, name))  # the widest is the one at fault
        raise ConfigError(f"config with {width} {getattr(cfg, width)} asks for a model too large to allocate: {e}") from None


def caption_ids(sample, vocab):
    """The id sequences of a sample's dense captions."""
    if not sample.dense_captions:
        raise InputError(f"sample {sample.id}: no dense captions")
    return [vocab.encode(dc.text) for dc in sample.dense_captions]


@dataclass
class SceneBatch:
    """Branch outputs of B scenes from one padded pass (`encode_scenes`)."""

    outputs: dict  # branch -> [B x N x d], N the most regions (vs, vv) or dense captions (ss, sv) of any scene
    regions: list  # the region count of each scene
    captions: list  # the dense-caption count of each scene


def _padded(arrays):
    """Scenes' row arrays [n_i x w] as one zero-padded [B x N x w] array, and
    its padding (bool [B x N], True at a padded row; None if none is)."""
    counts = np.array([len(a) for a in arrays])
    out = np.zeros((len(arrays), counts.max(), arrays[0].shape[1]))
    padding = np.arange(counts.max()) >= counts[:, None]
    out[~padding] = np.concatenate(arrays)
    return out, (padding if padding.any() else None)


def _region_rows(cfg, sample):
    if not sample.regions:
        raise InputError(f"sample {sample.id}: no regions")
    feats = np.stack([r.feat for r in sample.regions])
    if feats.shape[1] != cfg.raw_feat_dim:
        raise InputError(f"sample {sample.id}: feature width {feats.shape[1]} != configured {cfg.raw_feat_dim}")
    return feats, normalize_boxes([r.box for r in sample.regions], sample.image_wh)


def _encode(params, cfg, samples, vocab, one):
    """encode_all over the samples, padded to [B x N x d] with masks; `one`
    (one sample) runs it at [N x d], with no batch axis, padding or mask."""
    feats, v_boxes = zip(*(_region_rows(cfg, s) for s in samples))
    ids = [caption_ids(s, vocab) for s in samples]
    s_boxes = [normalize_boxes([dc.box for dc in s.dense_captions], s.image_wh) for s in samples]
    if one:
        (feats,), (v_boxes,), (s_boxes,) = feats, v_boxes, s_boxes
        v_padding = s_padding = None
    else:
        (feats, v_padding), (v_boxes, _), (s_boxes, s_padding) = _padded(feats), _padded(v_boxes), _padded(s_boxes)
    v_con = linear(Tensor(feats), params.vis_in)
    v_geo = embed_geometry(v_boxes, params.geo_visual)
    captions = encode_captions(params.captions, cfg.enc_heads, [seq for seqs in ids for seq in seqs])
    if not one:
        captions = pad_rows([captions], [len(seqs) for seqs in ids])[0]
    s_geo = embed_geometry(s_boxes, params.geo_semantic)
    return encode_all(v_con, v_geo, captions, s_geo, params.fusion_vs, params.fusion_sv, params.branches,
                      cfg.heads, cfg.expand_ratio, v_padding, s_padding)


def encode_scenes(params: ModelParams, cfg: TrainConfig, samples, vocab):
    """Every sample encoded in one pass: the regions' features and boxes and
    the dense captions' boxes padded to the batch's most, every dense caption
    through `encode_captions` at once and its rows gathered per scene
    (`nn.pad_rows`), then fusion and GESA over the padded batch with its
    padded keys masked (`encoder.encode_all`). Each real row equals that of
    the sample's own encode to rounding. Returns a SceneBatch."""
    return SceneBatch(_encode(params, cfg, samples, vocab, one=False),
                      [len(s.regions) for s in samples], [len(s.dense_captions) for s in samples])


def encode_sample(params: ModelParams, cfg: TrainConfig, sample, vocab, encoded=None):
    """Branch outputs {name: Tensor[N_branch x d]} for one dataset sample.
    Without `encoded` the sample is encoded alone, at [N x d], with no batch
    axis, padding or mask. With `encoded` = (a SceneBatch, i), the sample
    being scene i of that batch, its real rows are taken from the batch's
    outputs, one `index` per branch."""
    if encoded is None:
        return _encode(params, cfg, [sample], vocab, one=True)
    scenes, i = encoded
    if (scenes.regions[i], scenes.captions[i]) != (len(sample.regions), len(sample.dense_captions)):
        raise InputError(f"sample {sample.id}: {len(sample.regions)} regions and {len(sample.dense_captions)} dense "
                         f"captions, but scene {i} of the batch has {scenes.regions[i]} and {scenes.captions[i]}")
    rows = {"v": scenes.regions[i], "s": scenes.captions[i]}
    return {b: T.index(out, (i, slice(0, rows[b[0]]))) for b, out in scenes.outputs.items()}


def caption_logits(params: ModelParams, cfg: TrainConfig, branch_outputs, token_ids):
    """Teacher-forced logits: [T x V] for one scene's branch outputs and one
    BOS-led id sequence, or [B x T x V] for a list of B scenes' branch outputs
    and a list of B sequences, padded as `decoder.decoder_forward` says."""
    return decoder_forward(params.dec_layers, cfg.heads, branch_outputs, params.dec_embed, params.out, token_ids)


def make_step_fn(params: ModelParams, cfg: TrainConfig, branch_outputs):
    """Batched, stateful decoding step for one scene: `step(prefixes)` returns
    the [len(prefixes) x V] log-probs of the next token after each prefix,
    tapeless. The first call takes [BOS] prefixes; each later call takes
    prefixes one token longer than some prefix of the call before (see
    `decoder.CachedDecoder`, here over the one scene)."""
    decoder = CachedDecoder(params.dec_layers, cfg.heads, [branch_outputs], params.dec_embed, params.out)
    return lambda prefixes: decoder([(0, p) for p in prefixes])
