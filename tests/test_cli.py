import contextlib
import dataclasses
import hashlib
import io
import json
import os
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles as O
import util as U
from gevst import ablation, cli
from gevst.config import TrainConfig, config_from_dict
from gevst.data import read_jsonl
from gevst.errors import ConfigError, GevstError
from gevst.model import init_model
from gevst.nn import named_parameters
from gevst.training import load_checkpoint, save_checkpoint

pytestmark = pytest.mark.filterwarnings(
    "ignore:CIDEr-D over a single-document corpus")

TINY = dict(d_model=16, heads=2, expand_ratio=2, fusion_cells=1, layers=2,
            raw_feat_dim=32, enc_width=16, enc_heads=2, enc_layers=1,
            batch_size=4, val_every=1, min_count=1, max_len=10,
            xe_epochs=2, warmup_epochs=2, scst_epochs=1, beam=2, seed=3)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Dataset + config + one trained XE checkpoint, shared by the commands."""
    root = tmp_path_factory.mktemp("cli")
    data = str(root / "data.jsonl")
    cfg = str(root / "config.json")
    with open(cfg, "w") as f:
        json.dump(TINY, f)
    assert cli.main(["gen-data", "--seed", "4", "--n", "6", "--out", data]) == 0
    run = str(root / "xe")
    assert cli.main(["train", "--data", data, "--config", cfg, "--out", run]) == 0
    return {"root": root, "data": data, "cfg": cfg, "run": run,
            "ckpt": os.path.join(run, "checkpoint.bin")}


def test_gen_data_outputs_and_manifest(workdir):
    data = workdir["data"]
    manifest = json.loads(Path(data + ".manifest.json").read_text())
    assert manifest["command"] == "gen-data"
    assert manifest["seed"] == 4
    assert manifest["outputs"] == [data]
    assert manifest["dataset_sha256"] == hashlib.sha256(
        Path(data).read_bytes()).hexdigest()
    assert set(manifest) == {"command", "config", "seed", "dataset_sha256",
                             "outputs", "timings_s"}


def test_gen_data_rerun_byte_identical(workdir, tmp_path):
    out = str(tmp_path / "again.jsonl")
    assert cli.main(["gen-data", "--seed", "4", "--n", "6", "--out", out]) == 0
    assert Path(out).read_bytes() == Path(workdir["data"]).read_bytes()


def test_train_xe_artifacts(workdir):
    run = workdir["run"]
    assert os.path.exists(os.path.join(run, "loss_curve.csv"))
    assert os.path.exists(workdir["ckpt"])
    manifest = json.loads(Path(run, "manifest.json").read_text())
    assert manifest["command"] == "train-xe"
    assert manifest["config"]["d_model"] == 16
    curve = Path(run, "loss_curve.csv").read_text().splitlines()
    assert curve[0] == "epoch,loss" and len(curve) == 1 + TINY["xe_epochs"]


def test_train_rerun_byte_identical(workdir, tmp_path):
    run2 = str(tmp_path / "xe2")
    assert cli.main(["train", "--data", workdir["data"], "--config",
                     workdir["cfg"], "--out", run2]) == 0
    for name in ("checkpoint.bin", "loss_curve.csv"):
        a = Path(workdir["run"], name).read_bytes()
        b = Path(run2, name).read_bytes()
        assert a == b, f"{name} differs between reruns"


def test_caption_and_eval_flow(workdir, tmp_path):
    pred = str(tmp_path / "pred.jsonl")
    assert cli.main(["caption", "--ckpt", workdir["ckpt"], "--data",
                     workdir["data"], "--beam", "2", "--out", pred]) == 0
    rows = [json.loads(l) for l in Path(pred).read_text().splitlines() if l.strip()]
    assert [r["id"] for r in rows] == [f"s{i:05d}" for i in range(6)]
    for r in rows:
        assert set(r) == {"id", "caption", "logprob"}
        assert isinstance(r["caption"], str) and r["logprob"] <= 0.0

    # rerun is byte-identical
    pred2 = str(tmp_path / "pred2.jsonl")
    cli.main(["caption", "--ckpt", workdir["ckpt"], "--data", workdir["data"],
              "--beam", "2", "--out", pred2])
    assert Path(pred).read_bytes() == Path(pred2).read_bytes()

    out = str(tmp_path / "metrics.json")
    assert cli.main(["eval", "--pred", pred, "--refs", workdir["data"],
                     "--out", out]) == 0
    report = json.loads(Path(out).read_text())
    assert set(report) == {"bleu1", "bleu2", "bleu3", "bleu4", "rouge_l",
                           "cider_d", "n"}
    assert report["n"] == 6


def test_caption_beam_zero_exits_one(workdir, tmp_path, capsys):
    code = cli.main(["caption", "--ckpt", workdir["ckpt"], "--data", workdir["data"],
                     "--beam", "0", "--out", str(tmp_path / "pred.jsonl")])
    assert code == 1
    assert "beam width must be >= 1" in capsys.readouterr().err


def test_eval_unknown_id_fails(workdir, tmp_path, capsys):
    pred = tmp_path / "bad.jsonl"
    pred.write_text(json.dumps({"id": "zzz", "caption": "a thing"}) + "\n")
    out = str(tmp_path / "m.json")
    assert cli.main(["eval", "--pred", str(pred), "--refs", workdir["data"],
                     "--out", out]) == 1
    assert "zzz" in capsys.readouterr().err


def test_scst_requires_init(workdir, tmp_path, capsys):
    code = cli.main(["train", "--data", workdir["data"], "--phase", "scst",
                     "--out", str(tmp_path / "s")])
    assert code == 1
    assert "requires --init" in capsys.readouterr().err


def test_rejected_config_leaves_no_output_directory(workdir, tmp_path, capsys):
    cfg = tmp_path / "heads0.json"
    cfg.write_text(json.dumps(dict(TINY, heads=0)))
    out = tmp_path / "runx"
    assert cli.main(["train", "--data", workdir["data"], "--config", str(cfg), "--out", str(out)]) == 1
    assert "heads" in capsys.readouterr().err
    assert not out.exists()


def test_scst_without_init_leaves_no_output_directory(workdir, tmp_path, capsys):
    out = tmp_path / "runx"
    assert cli.main(["train", "--data", workdir["data"], "--phase", "scst", "--out", str(out)]) == 1
    assert "requires --init" in capsys.readouterr().err
    assert not out.exists()


def test_empty_scene_file_exits_one_and_leaves_no_output_directory(workdir, tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    argvs = (["train", "--data", str(empty), "--config", workdir["cfg"], "--out", str(tmp_path / "xe")],
             ["train", "--data", str(empty), "--phase", "scst", "--init", workdir["ckpt"],
              "--out", str(tmp_path / "scst")])
    for argv in argvs:
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "no scenes to train on" in err, (argv, err)
    assert not (tmp_path / "xe").exists() and not (tmp_path / "scst").exists()


def test_ablate_on_empty_scene_file_exits_one_and_leaves_no_output_directory(workdir, tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    out = tmp_path / "abl"
    assert cli.main(["ablate", "--data", str(empty), "--axis", "gesa", "--config", workdir["cfg"],
                     "--epochs", "1", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "no scenes to train on" in err
    assert not out.exists()


def test_train_with_too_large_a_model_exits_one_and_leaves_no_output_directory(tmp_path, workdir, capsys):
    # The first parameter asks for 32 x 2**30 doubles (256 GiB): refused at
    # once, so nothing is allocated.
    cfg = tmp_path / "huge.json"
    cfg.write_text(json.dumps({"d_model": 1 << 30}))
    out = tmp_path / "xe"
    assert cli.main(["train", "--data", workdir["data"], "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config with d_model 1073741824 asks for a model too large to allocate")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["caption", "dump-attention"])
def test_checkpoint_of_too_large_a_model_exits_one_and_leaves_no_output(tmp_path, workdir, capsys, command):
    # A header naming a model whose first parameter is [4194304 x 4194304]
    # (128 TiB): refused at once, so nothing is allocated.
    with open(workdir["ckpt"], "rb") as f:
        header = json.loads(f.readline())
    header["config"].update(d_model=1 << 22, raw_feat_dim=1 << 22)
    ckpt = tmp_path / "huge.bin"
    ckpt.write_text(json.dumps(header) + "\n")
    out = tmp_path / "out"
    argv = [command, "--ckpt", str(ckpt), "--data", workdir["data"], "--out", str(out)]
    assert cli.main(argv + (["--sample-id", "s00002"] if command == "dump-attention" else [])) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config with d_model 4194304 asks for a model too large to allocate")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("field", ["d_model", "raw_feat_dim", "enc_width"])
def test_width_numpy_cannot_shape_exits_one(tmp_path, workdir, capsys, field):
    # Wider than any NumPy dimension: once a ValueError traceback from the
    # first draw (train) or the model build (caption).
    wide = 8000000000000000000000
    cfg = tmp_path / "wide.json"
    cfg.write_text(json.dumps({field: wide}))
    with open(workdir["ckpt"], "rb") as f:
        header = json.loads(f.readline())
    header["config"][field] = wide
    ckpt = tmp_path / "wide.bin"
    ckpt.write_text(json.dumps(header) + "\n")
    out = tmp_path / "out"
    for argv in (["train", "--data", workdir["data"], "--config", str(cfg)],
                 ["caption", "--ckpt", str(ckpt), "--data", workdir["data"]]):
        assert cli.main(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: config with {field} {wide} asks for a model too large to allocate")
        assert err.count("\n") == 1
        assert not out.exists()


NESTED = b"[" * 200000 + b"]" * 200000
NOT_UTF8 = b"\xff\xfe\xfa"


@pytest.mark.parametrize("bad", [NESTED, NOT_UTF8], ids=["nested", "not-utf8"])
@pytest.mark.parametrize("reader", ["train-data", "eval-pred", "train-config", "caption-ckpt"])
def test_unreadable_json_exits_one_with_one_error_line(tmp_path, workdir, capsys, reader, bad):
    """JSON nested too deeply to decode (once a RecursionError traceback) and
    bytes that are not UTF-8 (once a UnicodeDecodeError traceback) exit 1
    with each reader's own wording."""
    path, out = tmp_path / "bad", tmp_path / "out"
    with open(workdir["data"], "rb") as f:
        scene = f.readline()
    if reader == "train-data":
        path.write_bytes(scene + bad + b"\n")
        argv, message = ["train", "--data", str(path), "--config", workdir["cfg"]], "line 2: bad JSON"
    elif reader == "eval-pred":
        path.write_bytes(b'{"id": "s00000", "caption": "a red cube"}\n' + bad + b"\n")
        argv, message = ["eval", "--pred", str(path), "--refs", workdir["data"]], "line 2: bad JSON"
    elif reader == "train-config":
        path.write_bytes(bad)
        argv, message = ["train", "--data", workdir["data"], "--config", str(path)], f"config file {path}"
    else:
        path.write_bytes(bad + b"\n")
        argv, message = ["caption", "--ckpt", str(path), "--data", workdir["data"]], \
            "line 1: checkpoint header is not valid JSON"
    assert cli.main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and err.count("\n") == 1, err
    assert not out.exists()


def test_scst_from_checkpoint(workdir, tmp_path):
    run = str(tmp_path / "scst")
    assert cli.main(["train", "--data", workdir["data"], "--phase", "scst",
                     "--init", workdir["ckpt"], "--out", run]) == 0
    curve = Path(run, "reward_curve.csv").read_text().splitlines()
    assert curve[0] == "epoch,reward" and len(curve) == 2
    manifest = json.loads(Path(run, "manifest.json").read_text())
    assert manifest["command"] == "train-scst"


def test_scst_config_is_checkpoint_then_file_then_seed(workdir, tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"scst_lr": 1e-6, "seed": 5}))
    run = str(tmp_path / "scst")
    assert cli.main(["train", "--data", workdir["data"], "--phase", "scst", "--init", workdir["ckpt"],
                     "--config", str(cfg), "--seed", "9", "--out", run]) == 0
    manifest = json.loads(Path(run, "manifest.json").read_text())
    assert manifest["config"] == dict(load_checkpoint(workdir["ckpt"])[0].to_dict(), scst_lr=1e-6, seed=9)
    assert manifest["seed"] == 9


def test_xe_config_is_checkpoint_then_file_then_seed(workdir, tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"xe_epochs": 1, "lr_scale": 0.5, "seed": 5}))
    run = str(tmp_path / "xe")
    assert cli.main(["train", "--data", workdir["data"], "--init", workdir["ckpt"],
                     "--config", str(cfg), "--seed", "9", "--out", run]) == 0
    manifest = json.loads(Path(run, "manifest.json").read_text())
    assert manifest["config"] == dict(load_checkpoint(workdir["ckpt"])[0].to_dict(), xe_epochs=1, lr_scale=0.5, seed=9)
    assert manifest["seed"] == 9


@pytest.mark.parametrize("phase", ["xe", "scst"])
@pytest.mark.parametrize("change", [{"d_model": 32, "heads": 4}, {"branches": ["vv"]}], ids=["width", "branches"])
def test_train_init_with_a_config_the_checkpoint_does_not_fit_exits_one(workdir, tmp_path, capsys, phase, change):
    """A --config that changes the --init checkpoint's layout (its width or
    its branches) is refused before training, naming the first parameter
    that differs; a run that went on would write a checkpoint no reader
    loads."""
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(change))
    out = tmp_path / "out"
    assert cli.main(["train", "--data", workdir["data"], "--phase", phase, "--init", workdir["ckpt"],
                     "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    first = ("parameter 'vis_in.w': params shape [32, 16] != model shape [32, 32]" if "d_model" in change
             else "params names unknown parameter 'fusion_sv.0.content.s_proj.w'")
    assert err == f"error: config does not fit the given parameters: {first}\n"
    assert not out.exists()


def test_dump_attention_contents(workdir, tmp_path):
    out = str(tmp_path / "attn")
    assert cli.main(["dump-attention", "--ckpt", workdir["ckpt"], "--data",
                     workdir["data"], "--sample-id", "s00002", "--out", out]) == 0

    fusion_files = [f for f in os.listdir(out) if f.startswith("fusion_")]
    assert sorted(fusion_files) == ["fusion_sv_cell1_content.csv",
                                    "fusion_sv_cell1_geometry.csv",
                                    "fusion_vs_cell1_content.csv",
                                    "fusion_vs_cell1_geometry.csv"]
    # A vs map has one row per region over the dense captions; sv the reverse.
    (sample,) = [s for s in read_jsonl(workdir["data"]) if s.id == "s00002"]
    n_regions, n_captions = len(sample.regions), len(sample.dense_captions)
    assert n_regions != n_captions
    shapes = {"vs": (n_regions, n_captions), "sv": (n_captions, n_regions)}
    for name in fusion_files:
        rows = [[float(v) for v in line.split(",")]
                for line in Path(out, name).read_text().splitlines() if line.strip()]
        assert (len(rows), *{len(row) for row in rows}) == shapes[name.split("_")[1]], name
        for row in rows:
            assert abs(sum(row) - 1.0) < 1e-9

    for b in ("ss", "sv", "vs", "vv"):
        lines = Path(out, f"gesa_gates_{b}.csv").read_text().splitlines()
        assert lines[0] == "layer,c1,c2,c3"
        assert len(lines) == 1 + TINY["layers"]
        for line in lines[1:]:
            vals = [float(v) for v in line.split(",")[1:] if v != ""]
            assert abs(sum(vals) - 1.0) < 1e-9

    dec = Path(out, "decoder_gates.csv").read_text().splitlines()
    assert dec[0] == "step,ss,sv,vs,vv"
    assert len(dec) >= 2

    manifest = json.loads(Path(out, "manifest.json").read_text())
    assert len(manifest["outputs"]) == len(fusion_files) + 4 + 1


@pytest.mark.parametrize("base", ["c", "g"])
def test_dump_attention_single_map_base(workdir, tmp_path, base):
    cfg, vocab, _, _ = load_checkpoint(workdir["ckpt"])
    cfg = cfg.replaced(fusion_base=base)
    ckpt = str(tmp_path / f"{base}.bin")
    save_checkpoint(ckpt, cfg, vocab, init_model(cfg, len(vocab), np.random.default_rng(0)))
    out = str(tmp_path / "attn")
    assert cli.main(["dump-attention", "--ckpt", ckpt, "--data", workdir["data"],
                     "--sample-id", "s00002", "--out", out]) == 0
    kind = {"c": "content", "g": "geometry"}[base]
    assert sorted(f for f in os.listdir(out) if f.startswith("fusion_")) == [
        f"fusion_sv_cell1_{kind}.csv", f"fusion_vs_cell1_{kind}.csv"]
    manifest = json.loads(Path(out, "manifest.json").read_text())
    assert len(manifest["outputs"]) == 2 + 4 + 1


def test_dump_attention_unknown_sample(workdir, tmp_path, capsys):
    code = cli.main(["dump-attention", "--ckpt", workdir["ckpt"], "--data",
                     workdir["data"], "--sample-id", "nope", "--out",
                     str(tmp_path / "x")])
    assert code == 1
    assert "nope" in capsys.readouterr().err


def test_ablate_worker_count_does_not_change_bytes(workdir, tmp_path, monkeypatch, capsys):
    serial, parallel = str(tmp_path / "serial"), str(tmp_path / "parallel")
    args = ["ablate", "--data", workdir["data"], "--axis", "gesa", "--config",
            workdir["cfg"], "--epochs", "1"]
    monkeypatch.delenv("GEVST_THREADS", raising=False)
    assert cli.main(args + ["--out", serial]) == 0
    assert "direction check" in capsys.readouterr().out
    monkeypatch.setenv("GEVST_THREADS", "2")
    assert cli.main(args + ["--out", parallel]) == 0
    for name in ("table.csv", "table.md"):
        a = Path(serial, name).read_bytes()
        b = Path(parallel, name).read_bytes()
        assert a == b
    table = Path(serial, "table.csv").read_text().splitlines()
    assert len(table) == 4


def test_missing_file_fails_cleanly(tmp_path, capsys):
    assert cli.main(["train", "--data", str(tmp_path / "absent.jsonl"),
                     "--out", str(tmp_path / "o")]) == 1
    assert "error:" in capsys.readouterr().err


def test_repeated_scene_id_exits_one(workdir, tmp_path, capsys):
    lines = Path(workdir["data"]).read_text().splitlines()
    data = tmp_path / "twice.jsonl"
    data.write_text("\n".join(lines + lines[:1]) + "\n")
    pred = tmp_path / "pred.jsonl"
    pred.write_text('{"id": "s00000", "caption": "a red cube"}\n')
    argvs = (["caption", "--ckpt", workdir["ckpt"], "--data", str(data), "--out", str(tmp_path / "p.jsonl")],
             ["eval", "--pred", str(pred), "--refs", str(data), "--out", str(tmp_path / "m.json")],
             ["dump-attention", "--ckpt", workdir["ckpt"], "--data", str(data), "--sample-id", "s00000",
              "--out", str(tmp_path / "attn")])
    for argv in argvs:
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"line {len(lines) + 1}: scene id 's00000' repeats line 1" in err


def test_scene_without_captions_exits_one(workdir, tmp_path, capsys):
    """A scene with no ground-truth caption can be captioned, but training on
    it, validating on it or scoring against it exits 1 and names it."""
    rows = [json.loads(line) for line in Path(workdir["data"]).read_text().splitlines()]
    pred = tmp_path / "pred.jsonl"
    for bare in ("s00002", "s00005"):  # a training scene, then the validation scene
        data = tmp_path / f"no_caption_{bare}.jsonl"
        data.write_text("".join(json.dumps(dict(r, gt_captions=[] if r["id"] == bare else r["gt_captions"])) + "\n"
                                for r in rows))
        assert cli.main(["caption", "--ckpt", workdir["ckpt"], "--data", str(data), "--out", str(pred)]) == 0
        capsys.readouterr()
        argvs = (["train", "--data", str(data), "--config", workdir["cfg"], "--out", str(tmp_path / "xe")],
                 ["train", "--data", str(data), "--phase", "scst", "--init", workdir["ckpt"],
                  "--out", str(tmp_path / "scst")],
                 ["eval", "--pred", str(pred), "--refs", str(data), "--out", str(tmp_path / "m.json")])
        for argv in argvs:
            assert cli.main(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and repr(bare) in err, (argv, err)
    assert not (tmp_path / "xe" / "checkpoint.bin").exists() and not (tmp_path / "scst" / "checkpoint.bin").exists()


def test_usage_errors_exit_two(capsys):
    for argv in ([], ["train"], ["gen-data", "--seed", "1"],
                 ["ablate", "--data", "x", "--axis", "bogus", "--out", "y"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
    capsys.readouterr()


def test_ablate_rejects_non_integer_thread_count(workdir, tmp_path, monkeypatch, capsys):
    for value in ("abc", "0", "-2"):
        monkeypatch.setenv("GEVST_THREADS", value)
        code = cli.main(["ablate", "--data", workdir["data"], "--axis", "gesa",
                         "--config", workdir["cfg"], "--epochs", "1",
                         "--out", str(tmp_path / "a")])
        assert code == 1
        err = capsys.readouterr().err
        assert "GEVST_THREADS" in err and f"'{value}'" in err


def test_ablate_pool_is_no_larger_than_its_grid(workdir, tmp_path, monkeypatch, capsys):
    sizes = []

    class SerialPool:
        """Stands in for the process pool: notes its size, runs jobs in-process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    def fake_run_config(label, cfg, samples, out_dir, epochs=None):
        return {"config": label, "bleu4": 0.0, "rouge_l": 0.0, "cider_d": 0.0, "best_epoch": 1}

    monkeypatch.setattr(ablation.concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(ablation, "run_config", fake_run_config)
    monkeypatch.setenv("GEVST_THREADS", "64")
    assert cli.main(["ablate", "--data", workdir["data"], "--axis", "base",
                     "--config", workdir["cfg"], "--out", str(tmp_path / "a")]) == 0
    assert sizes == [3]
    capsys.readouterr()


def test_malformed_checkpoint_exits_one(workdir, tmp_path, capsys):
    raw = Path(workdir["ckpt"]).read_bytes()
    header_line, _, body = raw.partition(b"\n")
    header = json.loads(header_line)
    header["config"]["d_model"] = "abc"
    typed = json.dumps(header, separators=(",", ":")).encode() + b"\n" + body
    header = json.loads(header_line)
    header["config"]["gate_mode"] = "softmax"  # a model this code cannot compute
    retired = json.dumps(header, separators=(",", ":")).encode() + b"\n" + body
    header = json.loads(header_line)
    header["vocab"] = [t for t in header["vocab"] if t != "<unk>"] + ["unk"]  # once a KeyError
    no_unk = json.dumps(header, separators=(",", ":")).encode() + b"\n" + body
    header = json.loads(header_line)
    header["config"]["seed"] = -1  # once loaded, to die at the first seeded draw
    negative_seed = json.dumps(header, separators=(",", ":")).encode() + b"\n" + body
    for blob, message in ((raw + b"\0" * 8, "trailing bytes"),
                          (negative_seed, "seed must be >= 0, got -1"),
                          (typed, "'d_model' must be an integer"),
                          (retired, "'gate_mode' is retired"),
                          (no_unk, "checkpoint vocab must be distinct strings")):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(blob)
        code = cli.main(["caption", "--ckpt", str(bad), "--data", workdir["data"],
                         "--out", str(tmp_path / "pred.jsonl")])
        assert code == 1
        assert message in capsys.readouterr().err


def test_wrongly_typed_config_exits_one(workdir, tmp_path, capsys):
    cases = ({"d_model": "abc"}, {"renorm_fused_attention": "no"}, {"seed": "1"},
             {"lr_scale": True}, {"branches": ["ss", 1]}, {"lr_scale": float("nan")},
             {"grad_clip": float("inf")}, {"lr_scale": 10 ** 400}, {"scst_lr": 10 ** 400},
             {"warmup_epochs": 10 ** 400})
    for i, bad in enumerate(cases):
        cfg = tmp_path / f"bad{i}.json"
        cfg.write_text(json.dumps(dict(TINY, **bad)))
        code = cli.main(["train", "--data", workdir["data"], "--config", str(cfg),
                         "--out", str(tmp_path / f"o{i}")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and next(iter(bad)) in err
    for i, text in enumerate(("[1, 2]", "{not json")):
        cfg = tmp_path / f"shape{i}.json"
        cfg.write_text(text)
        code = cli.main(["train", "--data", workdir["data"], "--config", str(cfg),
                         "--out", str(tmp_path / f"s{i}")])
        assert code == 1
        assert "error: config file" in capsys.readouterr().err



CONFIG_FIELDS = sorted(f.name for f in dataclasses.fields(TrainConfig))
ODD_NUMBERS = st.sampled_from([float("nan"), float("inf"), float("-inf"), 2 ** 70, -2 ** 63, 10 ** 400,
                               0, -1, 0.5, 1e308, True, False])


def mutated_config(data):
    """TINY with one to three fields set to another type, a bool, a
    non-finite or huge number or a near miss; or with an unknown or retired
    key added, or a key dropped; or other JSON in place of the object."""
    cfg = dict(TINY)
    kind = data.draw(st.sampled_from(["field", "field", "field", "unknown", "retired", "drop", "whole"]))
    if kind == "field":
        branch_lists = st.lists(st.sampled_from(["ss", "sv", "vs", "vv", "x"]))
        value = ODD_NUMBERS | st.integers(-3, 600) | JSON_VALUES | branch_lists
        for _ in range(data.draw(st.integers(1, 3))):
            cfg[data.draw(st.sampled_from(CONFIG_FIELDS))] = data.draw(value)
    elif kind == "unknown":
        cfg[data.draw(st.text(max_size=8).filter(lambda k: k not in CONFIG_FIELDS))] = data.draw(JSON_VALUES)
    elif kind == "retired":
        value = st.sampled_from(["sigmoid", "softmax", False, True, 0]) | JSON_VALUES
        cfg[data.draw(st.sampled_from(["gate_mode", "renorm_fused_attention"]))] = data.draw(value)
    elif kind == "drop":
        del cfg[data.draw(st.sampled_from(sorted(cfg)))]
    else:
        return data.draw(JSON_VALUES)
    return cfg


def config_file(folder, obj):
    path = os.path.join(folder, "c.json")
    with open(path, "w") as f:
        json.dump(obj, f)  # NaN and Infinity as JSON's usual extension tokens
    return path


@given(data=st.data())
def test_config_reader_on_any_mutated_object_gives_a_config_or_config_error(data):
    """Whatever a --config file holds, reading it (`_read_config_file`, then
    `config_from_dict`) gives a valid TrainConfig, one that round-trips
    through its dict, or raises ConfigError, never anything else."""
    with tempfile.TemporaryDirectory() as tmp:
        path = config_file(tmp, mutated_config(data))
        try:
            cfg = config_from_dict(cli._read_config_file(path))
        except ConfigError:
            return
    assert isinstance(cfg, TrainConfig) and config_from_dict(cfg.to_dict()) == cfg


@settings(max_examples=10)
@given(data=st.data())
def test_train_with_a_rejected_mutated_config_exits_one(workdir, data):
    """A --config file that the reader rejects makes `gevst train` exit 1
    with one `error:` line and no output directory (a file it accepts would
    train, and is left to the test above)."""
    obj = mutated_config(data)
    with tempfile.TemporaryDirectory() as tmp:
        path = config_file(tmp, obj)
        try:
            config_from_dict(cli._read_config_file(path))
            return
        except ConfigError:
            pass
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(["train", "--data", workdir["data"], "--config", path, "--out", os.path.join(tmp, "run")])
        assert code == 1 and not os.path.exists(os.path.join(tmp, "run"))
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


def test_out_of_range_heads_seed_and_epochs_exit_one(workdir, tmp_path, capsys):
    """Head counts below 1 (once a ZeroDivisionError, or for negative counts a
    failure deep in the attention), negative seeds (once numpy's ValueError)
    and negative ablate epochs (once an empty sweep that exited 0) exit 1
    naming the field and write nothing."""
    argvs = []
    for i, bad in enumerate(({"heads": 0}, {"enc_heads": 0}, {"heads": -8}, {"enc_heads": -4}, {"seed": -1})):
        cfg = tmp_path / f"range{i}.json"
        cfg.write_text(json.dumps(dict(TINY, **bad)))
        argvs.append((["train", "--data", workdir["data"], "--config", str(cfg)], next(iter(bad))))
    argvs += [(["train", "--data", workdir["data"], "--config", workdir["cfg"], "--seed", "-1"], "seed"),
              (["train", "--data", workdir["data"], "--phase", "scst", "--init", workdir["ckpt"],
                "--seed", "-1"], "seed"),
              (["ablate", "--data", workdir["data"], "--axis", "gesa", "--config", workdir["cfg"],
                "--seed", "-1"], "seed"),
              (["ablate", "--data", workdir["data"], "--axis", "gesa", "--config", workdir["cfg"],
                "--epochs", "-3"], "epochs must be >= 0, got -3"),
              (["gen-data", "--seed", "-1", "--n", "2"], "seed must be >= 0, got -1")]
    for i, (argv, field) in enumerate(argvs):
        out = tmp_path / f"out{i}"
        assert cli.main(argv + ["--out", str(out)]) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err, (argv, err)
        assert not out.is_file() and not any(p.is_file() for p in out.rglob("*")), argv


@pytest.mark.parametrize("line, message", [
    ("{not json", "line 2: bad JSON"),
    ("[1]", "line 2: each line must be a JSON object"),
    ('{"id": "s00001"}', "line 2: field 'caption' must be a string"),
    ('{"id": "s00001", "caption": 5}', "line 2: field 'caption' must be a string"),
    ('{"caption": "a red cube"}', "line 2: field 'id' must be a string"),
    ('{"id": "s00000", "caption": "a blue cube"}', "line 2: prediction id 's00000' repeats line 1"),
])
def test_malformed_predictions_exit_one(workdir, tmp_path, capsys, line, message):
    pred = tmp_path / "pred.jsonl"
    pred.write_text('{"id": "s00000", "caption": "a red cube"}\n' + line + "\n")
    code = cli.main(["eval", "--pred", str(pred), "--refs", workdir["data"],
                     "--out", str(tmp_path / "m.json")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


JSON_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=12)
JSON_VALUES = st.recursive(JSON_SCALARS, lambda inner: st.lists(inner, max_size=3)
                           | st.dictionaries(st.text(max_size=6), inner, max_size=3), max_leaves=6)


def prediction_lines(ids):
    """Lines of a predictions file: well-formed rows with known, unknown and
    repeated ids, rows with wrongly typed fields, other JSON and raw bytes."""
    row = st.fixed_dictionaries(
        {"id": st.sampled_from(ids) | st.text(max_size=5) | JSON_SCALARS,
         "caption": st.text(max_size=30) | JSON_VALUES},
        optional={"logprob": JSON_SCALARS, "extra": JSON_VALUES})
    as_json = (row | JSON_VALUES).map(lambda obj: json.dumps(obj).encode())
    return st.lists(as_json | st.binary(max_size=20) | st.just(b"") | st.just(b"NaN"), max_size=6)


@pytest.fixture(scope="module")
def reference_ids(workdir):
    return [json.loads(line)["id"] for line in Path(workdir["data"]).read_text().splitlines()]


@given(data=st.data())
def test_eval_on_any_predictions_file_reports_or_exits_one(workdir, reference_ids, data):
    """Whatever the --pred file holds, `gevst eval` either writes a report or
    exits 1 with one `error:` line, never a traceback. (Warnings, such as
    CIDEr-D's over a one-scene corpus, are silenced: they are not the subject.)"""
    lines = data.draw(prediction_lines(reference_ids))
    with tempfile.TemporaryDirectory() as tmp:
        pred, out = os.path.join(tmp, "pred.jsonl"), os.path.join(tmp, "report.json")
        with open(pred, "wb") as f:
            f.write(b"\n".join(lines))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = cli.main(["eval", "--pred", pred, "--refs", workdir["data"], "--out", out])
        if code == 0:
            assert err.getvalue() == ""
            assert {"bleu4", "cider_d", "n"} <= set(json.loads(Path(out).read_text()))
        else:
            assert code == 1
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


def test_caption_from_a_v1_checkpoint_exits_one(workdir, tmp_path, capsys):
    """A checkpoint in the per-branch v1 layout exits 1 with one `error:` line
    that names its format."""
    cfg, vocab, params, steps = load_checkpoint(workdir["ckpt"])
    v1 = [(n, t.data) for n, t in named_parameters(U.per_branch(params))]
    path = tmp_path / "v1.ckpt"
    path.write_bytes(O.checkpoint_v2_bytes(cfg.to_dict(), vocab.id_to_token, v1, steps, fmt="gevst-checkpoint-v1"))
    code = cli.main(["caption", "--ckpt", str(path), "--data", workdir["data"], "--out", str(tmp_path / "p.jsonl")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1 and "'gevst-checkpoint-v1'" in err
    assert not (tmp_path / "p.jsonl").exists()


def mutated_header(header, data):
    """The header with one field, or one manifest entry's name, shape or
    offset, set to a drawn value: another type, or a near miss of its own."""
    header = json.loads(json.dumps(header))
    entries = header["params"]
    kind = data.draw(st.sampled_from(["field", "entry", "manifest", "data_bytes", "trained_steps"]))
    if kind == "field":
        header[data.draw(st.sampled_from(sorted(header)))] = data.draw(JSON_VALUES)
    elif kind == "entry":
        entry = entries[data.draw(st.integers(0, len(entries) - 1))]
        key = data.draw(st.sampled_from(["name", "shape", "offset"]))
        near = {"name": st.sampled_from([e["name"] for e in entries]) | st.text(max_size=12),
                "shape": st.lists(st.integers(-2, 130), max_size=3),
                "offset": st.integers(-8, 2 ** 40)}[key]
        if data.draw(st.booleans()):
            entry[key] = data.draw(near | JSON_VALUES)
        else:
            del entry[key]
    elif kind == "manifest":  # entries dropped, repeated or swapped
        i, j = data.draw(st.integers(0, len(entries) - 1)), data.draw(st.integers(0, len(entries) - 1))
        edit = data.draw(st.sampled_from(["drop", "repeat", "swap"]))
        if edit == "drop":
            del entries[i]
        elif edit == "repeat":
            entries.insert(j, dict(entries[i]))
        else:
            entries[i], entries[j] = entries[j], entries[i]
    else:
        own = header[kind]
        header[kind] = data.draw(st.integers(-1, own + 16) | st.just(float(own)) | st.just(2 ** 70) | JSON_VALUES)
    return header


@given(data=st.data())
def test_load_checkpoint_on_any_mutated_file_raises_a_gevst_error(workdir, data):
    """A v2 checkpoint with a mutated header and a truncated or extended body
    either loads (when the mutation left what is checked intact) or raises a
    GevstError, never anything else."""
    raw = Path(workdir["ckpt"]).read_bytes()
    header_line, _, body = raw.partition(b"\n")
    header = mutated_header(json.loads(header_line), data)
    cut = data.draw(st.integers(0, len(body)))
    body = data.draw(st.sampled_from([body, body[:cut], body + data.draw(st.binary(min_size=1, max_size=16))]))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.ckpt")
        with open(path, "wb") as f:
            f.write(json.dumps(header, separators=(",", ":")).encode() + b"\n" + body)
        try:
            load_checkpoint(path)
        except GevstError:
            pass
