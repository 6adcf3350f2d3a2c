"""Configuration sweeps: fusion-cell count, fusion base, depth, attention
variants, branch subsets.

Each axis trains every configuration in its grid on the same data/seed,
restores the best-by-validation snapshot, and scores greedy captions on the
validation split (BLEU-4 / ROUGE-L / CIDEr-D). Tables are written as both
CSV and markdown. The attention-variant axis appends a directional note
comparing the richest variant to the plain-content one; a reversed direction
is reported, not raised.

Grids can run concurrently in worker processes (one config per process,
isolated output directory each); the emitted tables are ordered by grid
position, so worker count never changes the output bytes.
"""

from __future__ import annotations

import concurrent.futures
import os

from . import metrics
from .errors import ConfigError
from .training import (captions, references_of, restore_snapshot,
                       save_checkpoint, split_train_val, train_xe, write_curve)

AXES = ("m", "base", "layers", "gesa", "branches")

_BRANCH_ROWS = (
    ("SS", ("ss",)),
    ("SV", ("sv",)),
    ("VS", ("vs",)),
    ("VV", ("vv",)),
    ("VV+VS", ("vv", "vs")),
    ("VV+VS+SV", ("vv", "vs", "sv")),
    ("VV+VS+SV+SS", ("vv", "vs", "sv", "ss")),
)

_GESA_ROWS = (("Con", "con"), ("+Intra", "con_intra"), ("+Inter", "con_intra_inter"))


def axis_configs(axis, base_cfg):
    """The (label, config) grid for one sweep axis."""
    if axis == "m":
        return [(f"m={m}", base_cfg.replaced(fusion_cells=m)) for m in (1, 2, 3)]
    if axis == "base":
        return [(label, base_cfg.replaced(fusion_base=b))
                for label, b in (("C", "c"), ("G", "g"), ("CG", "cg"))]
    if axis == "layers":
        return [(f"L={l}", base_cfg.replaced(layers=l)) for l in (2, 3, 4, 5)]
    if axis == "gesa":
        return [(label, base_cfg.replaced(gesa_variant=v)) for label, v in _GESA_ROWS]
    if axis == "branches":
        return [(label, base_cfg.replaced(branches=row)) for label, row in _BRANCH_ROWS]
    raise ConfigError(f"unknown ablation axis {axis!r}; expected one of {AXES}")


def _slug(label):
    return label.lower().replace("+", "-").replace("=", "")


def run_config(label, cfg, samples, out_dir, epochs=None):
    """Train one configuration, score its best snapshot on the val split."""
    outcome = train_xe(samples, cfg, epochs=epochs)
    restore_snapshot(outcome.params, outcome.best_snapshot)
    _, val = split_train_val(samples)
    pool = val if val else list(samples)
    report = metrics.evaluate([t for t, _ in captions(outcome.params, cfg, outcome.vocab, pool)], references_of(pool))
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        save_checkpoint(os.path.join(out_dir, "checkpoint.bin"), cfg, outcome.vocab,
                        outcome.params, outcome.trained_steps)
        write_curve(os.path.join(out_dir, "loss_curve.csv"), outcome.curve, "loss")
    return {
        "config": label,
        "bleu4": report["bleu4"],
        "rouge_l": report["rouge_l"],
        "cider_d": report["cider_d"],
        "best_epoch": outcome.best_epoch,
    }


def _worker(args):
    return run_config(*args)


def run_axis(axis, samples, base_cfg, out_dir=None, epochs=None, workers=1):
    """Run a full sweep; returns the table rows in grid order."""
    grid = axis_configs(axis, base_cfg)
    jobs = [(label, cfg, samples,
             None if out_dir is None else os.path.join(out_dir, _slug(label)),
             epochs)
            for label, cfg in grid]
    if workers > 1 and len(jobs) > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
            rows = list(pool.map(_worker, jobs))
    else:
        rows = [run_config(*job) for job in jobs]

    notes = []
    if axis == "gesa":
        richest, plain = rows[-1], rows[0]
        ok = richest["cider_d"] >= plain["cider_d"]
        notes.append(
            f"direction check (+Inter >= Con on val CIDEr-D): "
            f"{'holds' if ok else 'REVERSED'} "
            f"({richest['cider_d']:.4f} vs {plain['cider_d']:.4f})")
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        write_tables(out_dir, rows, notes)
    return rows, notes


def write_tables(out_dir, rows, notes=()):
    with open(os.path.join(out_dir, "table.csv"), "w") as f:
        f.write("config,bleu4,rouge_l,cider_d,best_epoch\n")
        for r in rows:
            f.write(f"{r['config']},{r['bleu4']:.6f},{r['rouge_l']:.6f},"
                    f"{r['cider_d']:.6f},{r['best_epoch']}\n")
    with open(os.path.join(out_dir, "table.md"), "w") as f:
        f.write("| Config | BLEU-4 | ROUGE-L | CIDEr-D |\n")
        f.write("|---|---|---|---|\n")
        for r in rows:
            f.write(f"| {r['config']} | {r['bleu4']:.4f} | {r['rouge_l']:.4f} "
                    f"| {r['cider_d']:.4f} |\n")
        for note in notes:
            f.write(f"\n{note}\n")
