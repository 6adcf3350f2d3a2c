"""Print the desk digests: fingerprints of the parameters after the desk
training recipe, which a change that means to keep training bit for bit
must leave unchanged.

The recipe: `train_xe(generate_dataset(0, 50), TrainConfig(val_every=10),
epochs=10)`, then 2 SCST epochs from the trained model. Each of these two
digests is the first 16 hex characters of the sha256 over every named
parameter's name and float64 bytes, in `named_parameters` order. The XE
line adds its clip events; the SCST line its per-epoch mean sampled reward.

The XE model is the benchmark's decode_desk fixture (the same scenes,
config and epochs), and a third line fingerprints what it decodes: the
greedy and beam-5 captions of the 125 held-out scenes of decode_desk's
seed 1, `generate_dataset(1, 175)[50:]`. Its first digest is the first 16
hex characters of the sha256 over the repr of every (tokens, sum log-prob)
pair, beam-5 then greedy per scene; its second, after "tokens", the same
over the tokens alone, so a change that moves only the rounding of the
log-probs moves the first and leaves the second. The line adds the
generated ids per caption, EOS included, as the benchmark counts them. A
fourth line fingerprints the greedy captions of those scenes decoded many
at a time, as validation and `gevst caption --beam 1` decode them:
`captions` over slices of 8 scenes (each slice one block), the first 16
hex characters of the sha256 over the repr of every caption's tokens, in
scene order.

A fifth line, CAPTIONS, counts the dense captions that the batch encode
reads and how many of them are distinct, the repetition that
`model.encode_scenes` saves by encoding each distinct one once: summed
over the XE batches of the recipe (distinct within each batch), then over
the 125 held-out scenes (distinct within each scene).

Run from the repository root (about 15 s on a 2-core x86-64 box):

    python tools/desk_digests.py

BLAS runs single-threaded (OPENBLAS_NUM_THREADS=1 unless already set), as
the recorded digests were taken.
"""

import hashlib
import os
import sys
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from gevst import training  # noqa: E402
from gevst.config import TrainConfig  # noqa: E402
from gevst.data import generate_dataset  # noqa: E402
from gevst.model import caption_ids  # noqa: E402
from gevst.nn import named_parameters  # noqa: E402
from gevst.training import beam_caption, captions, greedy_caption, train_scst, train_xe  # noqa: E402


def digest(params):
    h = hashlib.sha256()
    for name, t in named_parameters(params):
        h.update(name.encode())
        h.update(np.ascontiguousarray(t.data).tobytes())
    return h.hexdigest()[:16]


def sha16(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def decode_digest(params, cfg, vocab, scenes):
    captions = []
    for s in scenes:
        captions += [beam_caption(params, cfg, vocab, s, beam=5), greedy_caption(params, cfg, vocab, s)]
    ids = sum(len(tokens) + (len(tokens) < cfg.max_len) for tokens, _ in captions)
    return sha16(captions), sha16([tokens for tokens, _ in captions]), ids / len(captions)


def lockstep_digest(params, cfg, vocab, scenes):
    return sha16([tokens for i in range(0, len(scenes), 8) for tokens, _ in captions(params, cfg, vocab, scenes[i:i + 8])])


def caption_counts(batches, vocab):
    """(dense captions, distinct id sequences within each batch), summed over the batches."""
    ids = [[tuple(seq) for s in batch for seq in caption_ids(s, vocab)] for batch in batches]
    return sum(map(len, ids)), sum(len(set(seqs)) for seqs in ids)


def train_xe_recording(samples, cfg, epochs):
    """`train_xe`'s outcome and the batches its steps encoded: those on the
    tape, as validation encodes tapeless."""
    encode_batch, batches = training.encode_batch, []

    def recorded(params, cfg, batch, vocab):
        scenes = encode_batch(params, cfg, batch, vocab)
        if any(out.requires_grad for out in scenes[0].batch.outputs.values()):
            batches.append(batch)
        return scenes

    training.encode_batch = recorded
    try:
        return train_xe(samples, cfg, epochs=epochs), batches
    finally:
        training.encode_batch = encode_batch


def main():
    samples, cfg = generate_dataset(0, 50), TrainConfig(val_every=10)
    xe, batches = train_xe_recording(samples, cfg, 10)
    print(f"XE   {digest(xe.params)}  clip events {xe.diagnostics['clip_events']}")
    held = generate_dataset(1, 175)[50:]
    decoded, tokens, per_caption = decode_digest(xe.params, cfg, xe.vocab, held)  # before SCST moves the parameters
    lockstep = lockstep_digest(xe.params, cfg, xe.vocab, held)
    scst = train_scst(samples, cfg, xe.params, xe.vocab, epochs=2, start_step=xe.trained_steps)
    print(f"SCST {digest(scst.params)}  curve {', '.join(f'{v:.4f}' for _, v in scst.curve)}")
    print(f"DECODE {decoded}  tokens {tokens}  tokens per caption {per_caption:.4f}")
    print(f"LOCKSTEP {lockstep}")
    print("CAPTIONS {} XE batches: {} dense, {} distinct; {} held-out scenes: {} dense, {} distinct".format(
        len(batches), *caption_counts(batches, xe.vocab), len(held), *caption_counts([[s] for s in held], xe.vocab)))


if __name__ == "__main__":
    main()
