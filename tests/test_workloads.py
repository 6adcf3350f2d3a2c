"""The benchmark's decode workload (perfbench/workloads.py) still runs on the
package.

decode_desk captions each held-out scene with `training.beam_caption` and
`training.greedy_caption`, then checks the captions two ways: it re-scores
each beam caption teacher-forced (`model.encode_sample`, then
`model.caption_logits` on that one scene and a flat id list, then
`training.sequence_logprob`), and it holds beam-1 equal to greedy. Running
`measure_decode` and then `check_decode` here makes a change that breaks
those calls, or what flows under them, fail the unit suite too. The
workloads module is loaded from its file and left unchanged.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

from gevst import data, training
from gevst.model import init_model
from util import miniature_config

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look their module up by name
    spec.loader.exec_module(workloads)
    return workloads


def test_decode_workload_measures_and_checks_a_miniature_checkpoint_without_failures(tmp_path):
    workloads = load_workloads()
    scenes = data.generate_dataset(1, workloads.DESK_SCENES + 3)
    cfg = miniature_config(raw_feat_dim=32, min_count=1, max_len=8)
    vocab = data.build_vocab(data.corpus_texts(scenes), cfg.min_count)
    ckpt = tmp_path / "miniature.ckpt"
    training.save_checkpoint(ckpt, cfg, vocab, init_model(cfg, len(vocab), np.random.default_rng(0)))
    inputs = workloads.Inputs(scenes, setup_s=0.0, raw_setup_s=0.0, ckpt=str(ckpt))
    measured = workloads.measure_decode(inputs, seconds=0.0)
    assert len(measured.outputs["beam5"]) == len(measured.outputs["greedy"]) == len(inputs.held_out) == 3
    assert measured.attempted == 2 * 3 + 3
    assert workloads.check_decode(inputs, measured) == 0
