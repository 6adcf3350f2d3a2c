"""Command-line surface.

Subcommands: gen-data, train (xe|scst), caption, eval, dump-attention,
ablate. Every artifact-producing command writes one manifest JSON recording
the config snapshot, seed, dataset content hash, output paths, and wall
timings (the one field allowed to differ between reruns). Everything else is
byte-identical for identical flags and seed.

Exit codes: 0 success, 1 runtime failure (diagnostic on stderr), 2 usage.
GEVST_THREADS (an integer >= 1, default 1) caps ablate's worker-process count.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

import numpy as np

from . import ablation, metrics, training
from . import tensor as T
from .config import BRANCH_NAMES, config_from_dict
from .data import BOS_ID, read_json_objects, read_jsonl, tokenize, write_jsonl
from .decoder import greedy_decode
from .errors import ConfigError, GevstError, InputError, SchemaError
from .model import caption_logits, encode_sample, make_step_fn
from .training import (load_checkpoint, restore_snapshot, save_checkpoint,
                       train_scst, train_xe, write_curve)


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(path, command, cfg, seed, data_path, outputs, timings):
    manifest = {
        "command": command,
        "config": None if cfg is None else cfg.to_dict(),
        "seed": seed,
        "dataset_sha256": None if data_path is None else _sha256(data_path),
        "outputs": sorted(outputs),
        "timings_s": {k: round(v, 3) for k, v in timings.items()},
    }
    with open(path, "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")


def _read_config_file(path):
    with open(path) as f:
        try:
            d = json.load(f)
        except json.JSONDecodeError as e:
            raise ConfigError(f"config file {path} is not valid JSON: {e}") from None
    if not isinstance(d, dict):
        raise ConfigError(f"config file {path} must hold a JSON object, got {type(d).__name__}")
    return d


def _load_config(path, seed, base=()):
    """The config `base` updated by the JSON file at `path`, then by `seed`, each when given."""
    merged = dict(base)
    merged.update(_read_config_file(path) if path else {})
    if seed is not None:
        merged["seed"] = seed
    return config_from_dict(merged)


# ---------------------------------------------------------------- commands


def cmd_gen_data(args):
    t0 = time.time()
    from .data import generate_dataset

    samples = generate_dataset(args.seed, args.n)
    write_jsonl(samples, args.out)
    _write_manifest(args.out + ".manifest.json", "gen-data", None, args.seed,
                    args.out, [args.out], {"total": time.time() - t0})
    return 0


def cmd_train(args):
    t0 = time.time()
    samples = read_jsonl(args.data)
    if args.phase == "xe":
        cfg = _load_config(args.config, args.seed)
        _, vocab, params, steps = load_checkpoint(args.init) if args.init else (None, None, None, 0)
    else:
        if not args.init:
            raise InputError("--phase scst requires --init with an XE checkpoint")
        base, vocab, params, steps = load_checkpoint(args.init)
        cfg = _load_config(args.config, args.seed, base.to_dict())
    os.makedirs(args.out, exist_ok=True)  # only once the config and checkpoint are accepted

    if args.phase == "xe":
        out = train_xe(samples, cfg, params=params, vocab=vocab, start_step=steps)
        curve_path = os.path.join(args.out, "loss_curve.csv")
        write_curve(curve_path, out.curve, "loss")
    else:
        out = train_scst(samples, cfg, params, vocab, start_step=steps)
        curve_path = os.path.join(args.out, "reward_curve.csv")
        write_curve(curve_path, out.curve, "reward")
        if "warning" in out.diagnostics:
            print(f"warning: {out.diagnostics['warning']}", file=sys.stderr)

    ckpt_path = os.path.join(args.out, "checkpoint.bin")
    restore_snapshot(out.params, out.best_snapshot)
    save_checkpoint(ckpt_path, out.cfg, out.vocab, out.params, out.trained_steps)
    train_s = time.time() - t0
    _write_manifest(os.path.join(args.out, "manifest.json"), f"train-{args.phase}",
                    out.cfg, out.cfg.seed, args.data, [ckpt_path, curve_path],
                    {"total": train_s})
    return 0


def cmd_caption(args):
    t0 = time.time()
    cfg, vocab, params, _ = load_checkpoint(args.ckpt)
    samples = read_jsonl(args.data)
    rows = []
    for s in samples:
        tokens, cum = training.beam_caption(params, cfg, vocab, s, beam=args.beam)
        rows.append({"id": s.id, "caption": " ".join(tokens), "logprob": cum})
    with open(args.out, "w") as f:
        for row in rows:
            f.write(json.dumps(row, sort_keys=True) + "\n")
    _write_manifest(args.out + ".manifest.json", "caption", cfg, cfg.seed,
                    args.data, [args.out], {"total": time.time() - t0})
    return 0


def cmd_eval(args):
    t0 = time.time()
    refs_by_id = {s.id: [tokenize(c) for c in s.gt_captions] for s in read_jsonl(args.refs)}
    cands, refs, first_line = [], [], {}
    for lineno, row in read_json_objects(args.pred):
        for key in ("id", "caption"):
            if not isinstance(row.get(key), str):
                raise SchemaError(f"line {lineno}: field {key!r} must be a string")
        if row["id"] in first_line:
            raise SchemaError(f"line {lineno}: prediction id {row['id']!r} repeats line {first_line[row['id']]}")
        first_line[row["id"]] = lineno
        if row["id"] not in refs_by_id:
            raise InputError(f"prediction id {row['id']!r} not present in references")
        if not refs_by_id[row["id"]]:
            raise InputError(f"prediction id {row['id']!r} has no reference captions")
        cands.append(tokenize(row["caption"]))
        refs.append(refs_by_id[row["id"]])
    report = metrics.evaluate(cands, refs)
    with open(args.out, "w") as f:
        json.dump(report, f, indent=2, sort_keys=True)
        f.write("\n")
    _write_manifest(args.out + ".manifest.json", "eval", None, None,
                    args.refs, [args.out], {"total": time.time() - t0})
    return 0


def _write_matrix_csv(path, arr):
    with open(path, "w") as f:
        for row in np.atleast_2d(arr):
            f.write(",".join(repr(float(v)) for v in row) + "\n")


def cmd_dump_attention(args):
    t0 = time.time()
    cfg, vocab, params, _ = load_checkpoint(args.ckpt)
    samples = {s.id: s for s in read_jsonl(args.data)}
    if args.sample_id not in samples:
        raise InputError(f"sample id {args.sample_id!r} not found in {args.data}")
    sample = samples[args.sample_id]
    os.makedirs(args.out, exist_ok=True)
    outputs = []

    with T.recording() as enc:
        branch = encode_sample(params, cfg, sample, vocab)
    # Only the maps a fusion base computes are recorded, so only those are written.
    for direction in ("fusion_vs", "fusion_sv"):
        for kind in ("content", "geometry"):
            for cell_i, arr in enumerate(enc.get(f"{direction}.{kind}", []), start=1):
                path = os.path.join(args.out, f"{direction}_cell{cell_i}_{kind}.csv")
                _write_matrix_csv(path, arr)
                outputs.append(path)

    for b in BRANCH_NAMES:
        if f"{b}.gesa_gates" not in enc:
            continue
        path = os.path.join(args.out, f"gesa_gates_{b}.csv")
        with open(path, "w") as f:
            f.write("layer,c1,c2,c3\n")
            for li, gates in enumerate(enc[f"{b}.gesa_gates"], start=1):
                vals = [repr(float(v)) for v in np.ravel(gates)]
                vals += [""] * (3 - len(vals))
                f.write(f"{li}," + ",".join(vals) + "\n")
        outputs.append(path)

    ids, _ = greedy_decode(make_step_fn(params, cfg, branch), max_len=cfg.max_len)
    with T.recording() as dec:
        caption_logits(params, cfg, branch, [BOS_ID] + ids[:-1])
    # per branch: one [steps x d] gate per decoder layer, averaged over d, then layers
    step_means = {b: [g.mean(axis=1) for g in dec[f"decoder_gates_{b}"]]
                  for b in BRANCH_NAMES if f"decoder_gates_{b}" in dec}
    path = os.path.join(args.out, "decoder_gates.csv")
    with open(path, "w") as f:
        f.write("step," + ",".join(step_means) + "\n")
        for t in range(len(ids)):
            means = [np.mean([layer[t] for layer in layers]) for layers in step_means.values()]
            f.write(f"{t+1}," + ",".join(repr(float(v)) for v in means) + "\n")
    outputs.append(path)

    _write_manifest(os.path.join(args.out, "manifest.json"), "dump-attention",
                    cfg, cfg.seed, args.data, outputs, {"total": time.time() - t0})
    return 0


def cmd_ablate(args):
    t0 = time.time()
    raw = os.environ.get("GEVST_THREADS", "1")
    try:
        workers = int(raw)
    except ValueError:
        raise ConfigError(f"GEVST_THREADS must be an integer, got {raw!r}") from None
    if workers < 1:
        raise ConfigError(f"GEVST_THREADS must be at least 1, got {raw!r}")
    samples = read_jsonl(args.data)
    cfg = _load_config(args.config, args.seed)
    os.makedirs(args.out, exist_ok=True)
    rows, notes = ablation.run_axis(args.axis, samples, cfg, out_dir=args.out,
                                    epochs=args.epochs, workers=workers)
    outputs = [os.path.join(args.out, "table.csv"), os.path.join(args.out, "table.md")]
    _write_manifest(os.path.join(args.out, "manifest.json"), f"ablate-{args.axis}",
                    cfg, cfg.seed, args.data, outputs, {"total": time.time() - t0})
    for note in notes:
        print(note)
    return 0


# ------------------------------------------------------------------ parser


def build_parser():
    p = argparse.ArgumentParser(prog="gevst",
                                description="Geometry-entangled captioner: data, training, inference, evaluation, inspection.")
    sub = p.add_subparsers(dest="cmd", required=True)

    g = sub.add_parser("gen-data", help="generate a synthetic scene dataset (JSONL)")
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--out", required=True)
    g.set_defaults(fn=cmd_gen_data)

    t = sub.add_parser("train", help="train a model (xe phase, or scst from an XE checkpoint)")
    t.add_argument("--data", required=True)
    t.add_argument("--phase", choices=("xe", "scst"), default="xe")
    t.add_argument("--config", help="JSON file of config overrides")
    t.add_argument("--init", help="checkpoint to start from (required for scst)")
    t.add_argument("--seed", type=int, help="override config seed")
    t.add_argument("--out", required=True, help="output directory")
    t.set_defaults(fn=cmd_train)

    c = sub.add_parser("caption", help="generate captions for a dataset")
    c.add_argument("--ckpt", required=True)
    c.add_argument("--data", required=True)
    c.add_argument("--beam", type=int)
    c.add_argument("--out", required=True, help="output JSONL")
    c.set_defaults(fn=cmd_caption)

    e = sub.add_parser("eval", help="score predicted captions against references")
    e.add_argument("--pred", required=True, help="caption JSONL")
    e.add_argument("--refs", required=True, help="dataset JSONL with gt captions")
    e.add_argument("--out", required=True, help="metrics JSON")
    e.set_defaults(fn=cmd_eval)

    d = sub.add_parser("dump-attention", help="export attention maps, gates, and decoder modulation for one sample")
    d.add_argument("--ckpt", required=True)
    d.add_argument("--data", required=True)
    d.add_argument("--sample-id", required=True)
    d.add_argument("--out", required=True, help="output directory")
    d.set_defaults(fn=cmd_dump_attention)

    a = sub.add_parser("ablate", help="run a configuration sweep and emit result tables")
    a.add_argument("--data", required=True)
    a.add_argument("--axis", choices=ablation.AXES, required=True)
    a.add_argument("--config", help="JSON file of config overrides")
    a.add_argument("--seed", type=int, help="override config seed")
    a.add_argument("--epochs", type=int, help="override XE epochs per config")
    a.add_argument("--out", required=True, help="output directory")
    a.set_defaults(fn=cmd_ablate)

    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except GevstError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
