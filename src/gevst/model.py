"""Full model assembly: inputs -> four-branch encoding -> caption logits.

A sample is encoded on its own (`encode_sample`), except that a batch's
dense captions can go through the caption encoder together first
(`encode_batch_captions`), each sample then taking its own rows.

Parameter layout (and with it the checkpoint manifest order) is fixed by the
declaration order of ModelParams and the deterministic walker in nn. Only the
branches named in the config get parameters, and fusion stacks exist only
when some active branch consumes them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .caption_encoder import CaptionEncoderParams, encode_captions, init_caption_encoder
from .config import BRANCH_NAMES, TrainConfig
from .decoder import CachedDecoder, decoder_forward, init_decoder_layer
from .encoder import encode_all, init_gesa_layer, needs_fusion
from .errors import ConfigError, GevstError, InputError
from .fusion import init_fusion_cell
from .geometry import embed_geometry, init_geometry
from .nn import Linear, Tensor, init_embedding, init_linear, linear


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
    branches: dict  # branch name -> list of GESA layers
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
            branches={b: [init_gesa_layer(rng, d, cfg.heads, cfg.gesa_variant) for _ in range(cfg.layers)] for b in active},
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


def encode_batch_captions(params: ModelParams, cfg: TrainConfig, samples, vocab):
    """Every dense caption of the samples through `encode_captions` in one
    padded, masked pass; returns each sample's own rows, [n_i x d]. Pooling is
    an exact masked sum, so with captions shorter than 8 tokens a sample's
    rows carry the bits of its own pass, and otherwise agree to rounding."""
    per_sample = [caption_ids(s, vocab) for s in samples]
    encoded = encode_captions(params.captions, cfg.enc_heads, [ids for seqs in per_sample for ids in seqs])
    bounds = np.cumsum([0] + [len(seqs) for seqs in per_sample]).tolist()
    return [T.index(encoded, slice(lo, hi)) for lo, hi in zip(bounds[:-1], bounds[1:])]


def encode_sample(params: ModelParams, cfg: TrainConfig, sample, vocab, captions=None):
    """Branch outputs {name: Tensor[N_branch x d]} for one dataset sample.
    `captions` are its dense captions' encodings, [n x d], when the caller
    encoded them with others (`encode_batch_captions`); without them the
    sample encodes its own."""
    if not sample.regions:
        raise InputError(f"sample {sample.id}: no regions")
    feats = np.stack([r.feat for r in sample.regions])
    if feats.shape[1] != cfg.raw_feat_dim:
        raise InputError(f"sample {sample.id}: feature width {feats.shape[1]} != configured {cfg.raw_feat_dim}")
    v_con = linear(Tensor(feats), params.vis_in)
    v_geo = embed_geometry([r.box for r in sample.regions], sample.image_wh, params.geo_visual)

    if captions is None:
        captions = encode_captions(params.captions, cfg.enc_heads, caption_ids(sample, vocab))
    elif captions.data.shape[0] != len(sample.dense_captions):
        raise InputError(f"sample {sample.id}: {captions.data.shape[0]} caption encodings for "
                         f"{len(sample.dense_captions)} dense captions")
    s_geo = embed_geometry([dc.box for dc in sample.dense_captions], sample.image_wh, params.geo_semantic)

    return encode_all(v_con, v_geo, captions, s_geo, params.fusion_vs, params.fusion_sv, params.branches,
                      cfg.heads, cfg.expand_ratio, active_branches=cfg.branches)


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
