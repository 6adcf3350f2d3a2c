import pytest

from gevst import ablation as A
from gevst.config import TrainConfig
from gevst.data import generate_dataset
from gevst.errors import ConfigError
from util import miniature_config

pytestmark = pytest.mark.filterwarnings(
    "ignore:CIDEr-D over a single-document corpus")

BASE = TrainConfig()


def test_m_grid():
    grid = A.axis_configs("m", BASE)
    assert [label for label, _ in grid] == ["m=1", "m=2", "m=3"]
    assert [cfg.fusion_cells for _, cfg in grid] == [1, 2, 3]


def test_base_grid():
    grid = A.axis_configs("base", BASE)
    assert [label for label, _ in grid] == ["C", "G", "CG"]
    assert [cfg.fusion_base for _, cfg in grid] == ["c", "g", "cg"]


def test_layers_grid():
    grid = A.axis_configs("layers", BASE)
    assert [label for label, _ in grid] == ["L=2", "L=3", "L=4", "L=5"]
    assert [cfg.layers for _, cfg in grid] == [2, 3, 4, 5]


def test_gesa_grid():
    grid = A.axis_configs("gesa", BASE)
    assert [label for label, _ in grid] == ["Con", "+Intra", "+Inter"]
    assert [cfg.gesa_variant for _, cfg in grid] == [
        "con", "con_intra", "con_intra_inter"]


def test_branches_grid():
    grid = A.axis_configs("branches", BASE)
    assert [label for label, _ in grid] == [
        "SS", "SV", "VS", "VV", "VV+VS", "VV+VS+SV", "VV+VS+SV+SS"]
    assert [cfg.branches for _, cfg in grid] == [
        ("ss",), ("sv",), ("vs",), ("vv",),
        ("vv", "vs"), ("vv", "vs", "sv"), ("vv", "vs", "sv", "ss")]


def test_non_swept_fields_stay_fixed():
    for axis in A.AXES:
        for _, cfg in A.axis_configs(axis, BASE):
            assert cfg.d_model == BASE.d_model
            assert cfg.seed == BASE.seed
            assert cfg.xe_epochs == BASE.xe_epochs


def test_unknown_axis():
    with pytest.raises(ConfigError):
        A.axis_configs("depth", BASE)


def test_tiny_gesa_sweep_writes_tables(tmp_path):
    samples = generate_dataset(2, 4)
    cfg = miniature_config(raw_feat_dim=32, min_count=1, batch_size=4,
                           val_every=1, max_len=10, enc_layers=1, seed=1)
    rows, notes = A.run_axis("gesa", samples, cfg, out_dir=str(tmp_path), epochs=1)
    assert [r["config"] for r in rows] == ["Con", "+Intra", "+Inter"]
    assert len(notes) == 1 and "direction check" in notes[0]
    assert ("holds" in notes[0]) or ("REVERSED" in notes[0])

    csv = (tmp_path / "table.csv").read_text().splitlines()
    assert csv[0] == "config,bleu4,rouge_l,cider_d,best_epoch"
    assert len(csv) == 4 and csv[1].startswith("Con,")
    md = (tmp_path / "table.md").read_text()
    assert md.startswith("| Config | BLEU-4 | ROUGE-L | CIDEr-D |")
    assert "direction check" in md
    for label in ("con", "-intra", "-inter"):
        assert (tmp_path / label / "checkpoint.bin").exists()
        assert (tmp_path / label / "loss_curve.csv").exists()


def test_run_config_restores_best_snapshot(tmp_path):
    samples = generate_dataset(3, 4)
    cfg = miniature_config(raw_feat_dim=32, min_count=1, batch_size=4,
                           val_every=1, max_len=10, enc_layers=1)
    row = A.run_config("m=1", cfg, samples, str(tmp_path / "one"), epochs=2)
    assert set(row) == {"config", "bleu4", "rouge_l", "cider_d", "best_epoch"}
    assert 1 <= row["best_epoch"] <= 2
