import numpy as np
import pytest

import util as U
from gevst import caption_encoder
from gevst import tensor as T
from gevst.caption_encoder import encode_captions, init_caption_encoder
from gevst.errors import InputError
from gevst.nn import parameters


def test_output_shape(rng):
    p = init_caption_encoder(rng, vocab_size=11, width=8, n_layers=2, d_out=6)
    out = encode_captions(p, heads=2, id_seqs=[[4, 5, 6], [7, 8], [9]])
    assert out.data.shape == (3, 6)


def test_padding_independence(rng):
    """A caption's encoding must not depend on what it is batched with."""
    p = init_caption_encoder(rng, vocab_size=11, width=8, n_layers=2, d_out=6)
    short = [4, 5]
    alone = encode_captions(p, 2, [short]).data[0]
    with_long = encode_captions(p, 2, [short, [6, 7, 8, 9, 10, 4, 5]]).data[0]
    assert np.allclose(alone, with_long, atol=1e-12)


def test_order_equivariance(rng):
    p = init_caption_encoder(rng, vocab_size=11, width=8, n_layers=1, d_out=4)
    seqs = [[4, 5, 6], [7], [8, 9]]
    out = encode_captions(p, 2, seqs).data
    perm = encode_captions(p, 2, [seqs[2], seqs[0], seqs[1]]).data
    assert np.allclose(out, perm[[1, 2, 0]], atol=1e-12)


def test_empty_inputs_rejected(rng):
    p = init_caption_encoder(rng, vocab_size=5, width=4, n_layers=1, d_out=4)
    with pytest.raises(InputError):
        encode_captions(p, 2, [])
    with pytest.raises(InputError):
        encode_captions(p, 2, [[4], []])


def test_gradient_flows_to_embedding(rng):
    from gevst import tensor as T

    p = init_caption_encoder(rng, vocab_size=7, width=4, n_layers=1, d_out=3)
    with T.Tape() as tape:
        out = encode_captions(p, 2, [[4, 5], [6]])
        tape.backward(T.total_sum(T.mul(out, out)))
    g = p.embed.grad
    assert g is not None
    # used rows get gradient; unused vocabulary rows stay zero
    assert np.abs(g[4]).sum() > 0 and np.abs(g[6]).sum() > 0
    assert np.abs(g[3]).sum() == 0


def test_pooling_is_exact_alone_and_in_a_batch(rng):
    """Pooling is a masked sum, not a mean times the padded length, so a
    caption's encoding does not round with what it is padded to: alone and
    in a batch with longer captions it carries the same bytes while the
    batch stays under 8 tokens, and agrees within 1e-12 beyond."""
    p = init_caption_encoder(rng, vocab_size=30, width=8, n_layers=2, d_out=6)
    U.randomize(p, rng)
    scene = [[int(t) for t in rng.integers(4, 30, size=n)] for n in (3, 1, 2)]
    alone = encode_captions(p, 2, scene).data
    for longest in range(4, 13):
        others = [[int(t) for t in rng.integers(4, 30, size=longest)], [5, 6]]
        batch = encode_captions(p, 2, others[:1] + scene + others[1:]).data[1:4]
        if longest < 8:
            assert batch.tobytes() == alone.tobytes()
        else:
            assert U.max_abs_delta(batch, alone) <= 1e-12


def test_garbage_in_padded_positions_never_changes_a_real_row(rng, monkeypatch):
    """Real token ids in every padded position (where PAD would go) leave every
    caption's encoding and every parameter gradient as they were."""
    p = init_caption_encoder(rng, vocab_size=30, width=8, n_layers=2, d_out=6)
    U.randomize(p, rng)
    seqs = [[int(t) for t in rng.integers(4, 30, size=n)] for n in (9, 2, 5, 1, 7)]
    probe = T.Tensor(rng.normal(size=(len(seqs), 6)))

    def run():
        for t in parameters(p):
            t.grad = None
        with T.Tape() as tape:
            out = encode_captions(p, 2, seqs)
            tape.backward(T.total_sum(T.mul(out, probe)))
        return out.data, [t.grad for t in parameters(p)]

    clean, clean_grads = run()
    pad_ids = caption_encoder.pad_ids

    def garbage_pad_ids(id_seqs):
        ids = pad_ids(id_seqs)
        padded = np.arange(ids.shape[1]) >= np.array([len(s) for s in id_seqs])[:, None]
        ids[padded] = rng.integers(4, 30, size=int(padded.sum()))
        return ids

    monkeypatch.setattr(caption_encoder, "pad_ids", garbage_pad_ids)
    dirty, dirty_grads = run()
    assert dirty.tobytes() == clean.tobytes()
    assert all(np.array_equal(g, w) for g, w in zip(dirty_grads, clean_grads))
