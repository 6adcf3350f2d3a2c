"""The benchmark's tracer (perfbench/tracer.py) still fits the package.

The tracer wraps package functions and methods under the names their callers
look them up by, so renaming or dropping one of those names breaks the
benchmark. Entering and leaving a Tracer here makes that fail the unit suite
too. The tracer is loaded from its file and left unchanged.
"""

import importlib.util
from collections import Counter
from pathlib import Path

import pytest

from gevst import data, encoder, metrics, model, tensor, training
from util import miniature_config

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_tracer_wraps_the_package_and_restores_it_on_exit():
    tracer = load_tracer()
    owners = (data, encoder, metrics, model, tensor, training,
              tensor.Tape, training.Adam, metrics.CiderScorer)
    before = [dict(vars(owner)) for owner in owners]
    with tracer.Tracer() as t:
        assert data.generate_dataset is not before[0]["generate_dataset"]
        data.generate_dataset(0, 2)
    assert [span[tracer.NAME] for span in t.spans] == ["data.generate"]
    for owner, names in zip(owners, before):
        assert all(vars(owner)[name] is value for name, value in names.items()), owner


@pytest.mark.filterwarnings("ignore:CIDEr-D over a single-document corpus")
def test_tracer_counts_each_batch_of_samples_under_its_own_step():
    """Under the tracer, the samples encoded under each optimizer step's tape
    are exactly that step's batch, in both training phases: the traced
    benchmark counts trained samples this way."""
    tracer = load_tracer()
    samples = data.generate_dataset(5, 8)
    cfg = miniature_config(raw_feat_dim=32, min_count=1, batch_size=3, enc_layers=1, max_len=8)
    train, _ = data.split_train_val(samples)
    with tracer.Tracer() as t:
        xe = training.train_xe(samples, cfg, epochs=1)
        training.train_scst(samples, cfg, xe.params, xe.vocab, epochs=1, start_step=xe.trained_steps)
    per_step = tracer.samples_per_step(t.spans)
    want = [{train[int(i)].id for i in batch}
            for tag in (101, 202)
            for batch in training._batches(training._epoch_rng(cfg.seed, tag, 1).permutation(len(train)),
                                           cfg.batch_size)]
    assert [per_step[step] for step in sorted(per_step)] == want


@pytest.mark.filterwarnings("ignore:CIDEr-D over a single-document corpus")
def test_each_training_step_encodes_its_batch_in_one_pass():
    """Under the tracer, each XE and SCST step runs one `encoder.encode_all`
    span and one `caption_encoder.encode` span for its whole batch, and one
    `model.encode_sample` span per sample of the batch."""
    tracer = load_tracer()
    samples = data.generate_dataset(5, 8)
    cfg = miniature_config(raw_feat_dim=32, min_count=1, batch_size=3, enc_layers=1, max_len=8)
    train, _ = data.split_train_val(samples)
    with tracer.Tracer() as t:
        xe = training.train_xe(samples, cfg, epochs=1)
        training.train_scst(samples, cfg, xe.params, xe.vocab, epochs=1, start_step=xe.trained_steps)
    per_step = {}
    for span in t.spans:
        if span[tracer.STEP] is not None:
            per_step.setdefault(span[tracer.STEP], Counter())[span[tracer.NAME]] += 1
    batches = [batch for tag in (101, 202)
               for batch in training._batches(training._epoch_rng(cfg.seed, tag, 1).permutation(len(train)),
                                              cfg.batch_size)]
    assert len(per_step) == len(batches)
    for step, batch in zip(sorted(per_step), batches):
        spans = per_step[step]
        assert spans["encoder.encode_all"] == 1 and spans["caption_encoder.encode"] == 1, spans
        assert spans["model.encode_sample"] == len(batch)
