"""Dense-caption text encoder.

Token embeddings + sinusoidal positions run through a small stack of standard
post-norm transformer encoder layers (multi-head attention WITH an output
projection, then the 4x feed-forward). Each caption is summarized by the mean
of its real-token outputs and projected to model width. All captions of one
call (one sample's, or a whole training batch's) are padded to a common
length and processed as one batch; pad keys are masked before the softmax
and pad rows never reach the mean, which is an exact masked sum over the
caption's real tokens divided by its length.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .data import pad_ids
from .errors import InputError
from .nn import (
    Ffn,
    LayerNorm,
    Linear,
    Tensor,
    attend,
    ffn,
    init_embedding,
    init_ffn,
    init_layer_norm,
    init_linear,
    layer_norm,
    linear,
    sinusoidal_positions,
)


@dataclass
class EncoderLayerParams:
    q: Linear
    k: Linear
    v: Linear
    o: Linear
    ln1: LayerNorm
    ffn: Ffn
    ln2: LayerNorm


@dataclass
class CaptionEncoderParams:
    embed: Tensor  # [vocab x width]
    layers: list
    out: Linear  # [width -> d_o]


def init_caption_encoder(rng, vocab_size, width, n_layers, d_out):
    layers = [
        EncoderLayerParams(
            q=init_linear(rng, width, width),
            k=init_linear(rng, width, width),
            v=init_linear(rng, width, width),
            o=init_linear(rng, width, width),
            ln1=init_layer_norm(width),
            ffn=init_ffn(rng, width),
            ln2=init_layer_norm(width),
        )
        for _ in range(n_layers)
    ]
    return CaptionEncoderParams(init_embedding(rng, vocab_size, width), layers, init_linear(rng, width, d_out))


def encode_captions(params: CaptionEncoderParams, heads, id_seqs):
    """Encode captions together (a sample's, or a batch's); returns [n_captions x d_o]."""
    if not id_seqs:
        raise InputError("no captions to encode")
    lens = [len(seq) for seq in id_seqs]
    if min(lens) < 1:
        raise InputError("empty caption cannot be encoded")
    b, n = len(id_seqs), max(lens)
    width = params.embed.data.shape[1]

    x = T.embedding_lookup(params.embed, pad_ids(id_seqs))
    pe = sinusoidal_positions(n, width).data
    x = T.add(x, Tensor(np.broadcast_to(pe, (b, n, width)).copy()))

    pad_key = np.arange(n)[None, :] >= np.array(lens)[:, None]  # [b x n]
    attn_mask = np.broadcast_to(pad_key[:, None, None, :], (b, heads, n, n))

    for lp in params.layers:
        att = linear(attend(linear(x, lp.q), linear(x, lp.k), linear(x, lp.v), heads, mask=attn_mask), lp.o)
        x = layer_norm(T.add(x, att), lp.ln1)
        x = layer_norm(T.add(x, ffn(x, lp.ffn)), lp.ln2)

    keep = (~pad_key)[:, :, None].astype(np.float64)
    x = T.mul(x, Tensor(np.broadcast_to(keep, (b, n, width)).copy()))
    summed = T.sum_axis(x, 1)  # the pad rows add exact zeros, so n does not round into it
    inv = np.repeat(1.0 / np.array(lens, dtype=np.float64)[:, None], width, axis=1)
    pooled = T.mul(summed, Tensor(inv))
    return linear(pooled, params.out)
