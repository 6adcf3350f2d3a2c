import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gevst import data as D
from gevst.errors import ConfigError, GevstError, ParseError, SchemaError
from gevst.geometry import BoundingBox, iou


def small_dataset():
    return D.generate_dataset(3, 6)


def test_generation_is_deterministic_and_serialization_byte_identical(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    D.write_jsonl(D.generate_dataset(5, 4), a)
    D.write_jsonl(D.generate_dataset(5, 4), b)
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != b""


def test_jsonl_round_trip_exact(tmp_path):
    path = tmp_path / "d.jsonl"
    samples = small_dataset()
    D.write_jsonl(samples, path)
    back = D.read_jsonl(path)
    assert len(back) == len(samples)
    for s, t in zip(samples, back):
        assert s.id == t.id
        assert s.gt_captions == t.gt_captions
        assert [d.text for d in s.dense_captions] == [d.text for d in t.dense_captions]
        for r, q in zip(s.regions, t.regions):
            assert (r.feat == q.feat).all()
            assert r.box == q.box
    # a second serialization of the parsed copy is byte-identical too
    path2 = tmp_path / "d2.jsonl"
    D.write_jsonl(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_scene_invariants():
    for s in D.generate_dataset(9, 10):
        assert 2 <= len(s.regions) <= 5
        for r in s.regions:
            assert r.feat.shape == (D.FEAT_DIM,)
            assert r.box.x_max <= s.image_wh[0] and r.box.y_max <= s.image_wh[1]
        for i, a in enumerate(s.regions):
            for b in s.regions[i + 1:]:
                assert iou(a.box, b.box) < 0.5
        # one attribute phrase per object, one relation per adjacent pair
        assert len(s.dense_captions) == 2 * len(s.regions) - 1
        for cap in s.gt_captions:
            assert len(D.tokenize(cap)) <= D.MAX_CAPTION_TOKENS


def test_gt_captions_differ_only_in_first_token():
    for s in D.generate_dataset(2, 12):
        t1, t2 = (D.tokenize(c) for c in s.gt_captions)
        assert t1[0] == "a" and t2[0] == "the"
        assert t1[1:] == t2[1:]


def test_gt_pair_is_diagonal_extremes():
    for s in D.generate_dataset(4, 12):
        sums = [r.box.center[0] + r.box.center[1] for r in s.regions]
        lo, hi = int(np.argmin(sums)), int(np.argmax(sums))
        toks = D.tokenize(s.gt_captions[0])
        # "a {color} {shape} sits {rel...} a {color} {shape}"
        mentioned = sorted([(toks[1], toks[2]), (toks[-2], toks[-1])])
        extremes = sorted(tuple(D.tokenize(s.dense_captions[i].text)[1:3]) for i in (lo, hi))
        assert mentioned == extremes


def box_at(cx, cy):
    return BoundingBox(cx - 5, cy - 5, cx + 5, cy + 5)


def test_relation_word_cases():
    assert D._relation_word(box_at(10, 50), box_at(40, 50)) == "left of"
    assert D._relation_word(box_at(40, 50), box_at(10, 50)) == "right of"
    assert D._relation_word(box_at(50, 10), box_at(50, 40)) == "above"
    assert D._relation_word(box_at(50, 40), box_at(50, 10)) == "below"
    # horizontal displacement wins ties
    assert D._relation_word(box_at(10, 10), box_at(40, 40)) == "left of"


@given(st.floats(5, 95), st.floats(5, 95), st.floats(5, 95), st.floats(5, 95))
def test_relation_word_antisymmetric(ax, ay, bx, by):
    a, b = box_at(ax, ay), box_at(bx, by)
    if a.center == b.center:
        # sub-ulp offsets can round to identical centers; such boxes are
        # near-identical and the overlap filter never lets them coexist
        return
    opposite = {"left of": "right of", "right of": "left of",
                "above": "below", "below": "above"}
    assert D._relation_word(b, a) == opposite[D._relation_word(a, b)]


def test_base_code_is_stable_and_distinct():
    c1 = D.base_code("circle", "red")
    c2 = D.base_code("circle", "red")
    assert (c1 == c2).all()
    assert not (c1 == D.base_code("square", "red")).all()
    assert not (c1 == D.base_code("circle", "blue")).all()


def test_generate_dataset_rejects_empty():
    with pytest.raises(ConfigError):
        D.generate_dataset(0, 0)


def test_split_train_val_boundaries():
    xs = list(range(50))
    tr, va = D.split_train_val(xs)
    assert (len(tr), len(va)) == (45, 5)
    assert tr + va == xs
    tr, va = D.split_train_val([1])
    assert (tr, va) == ([1], [])


def test_read_jsonl_error_taxonomy(tmp_path):
    ok = json.dumps(D.sample_to_dict(D.generate_sample(1, 0)))

    def load(text):
        p = tmp_path / "x.jsonl"
        p.write_text(text)
        return D.read_jsonl(p)

    with pytest.raises(ParseError):
        load(ok + "\n{not json\n")
    with pytest.raises(SchemaError):
        load("[1,2,3]\n")
    with pytest.raises(SchemaError, match="missing field"):
        obj = json.loads(ok)
        del obj["regions"]
        load(json.dumps(obj) + "\n")
    with pytest.raises(SchemaError, match="ragged"):
        obj = json.loads(ok)
        obj["regions"][1]["feat"] = obj["regions"][1]["feat"][:-1]
        load(json.dumps(obj) + "\n")
    with pytest.raises(SchemaError, match="no regions"):
        obj = json.loads(ok)
        obj["regions"] = []
        load(json.dumps(obj) + "\n")
    # every coordinate, feature and image size is a finite JSON number
    places = [("feat", lambda o: o["regions"][0]["feat"]), ("box", lambda o: o["regions"][1]["box"]),
              ("box", lambda o: o["dense_captions"][0]["box"]), ("image_wh", lambda o: o["image_wh"])]
    for name, where in places:
        for bad in ("1.5", True, "a", None, float("nan"), float("inf"), 10 ** 400):
            obj = json.loads(ok)
            where(obj)[0] = bad
            with pytest.raises(SchemaError, match=f"line 1: field '{name}'"):
                load(json.dumps(obj) + "\n")
    # blank lines are fine
    other = json.dumps(D.sample_to_dict(D.generate_sample(1, 1)))
    assert len(load(ok + "\n\n" + other + "\n")) == 2


def test_read_jsonl_rejects_a_repeated_scene_id(tmp_path):
    first, second = (json.dumps(D.sample_to_dict(D.generate_sample(1, i))) for i in (0, 1))
    p = tmp_path / "x.jsonl"
    p.write_text(first + "\n" + second + "\n\n" + first + "\n")
    with pytest.raises(SchemaError, match="line 4: scene id 's00000' repeats line 1"):
        D.read_jsonl(p)


def _scene_line(index):
    return json.dumps(D.sample_to_dict(D.generate_sample(1, index))).encode()


@given(st.lists(st.one_of(
    st.binary(max_size=40),
    st.recursive(st.none() | st.booleans() | st.floats() | st.integers() | st.text(max_size=8),
                 lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
                 max_leaves=12).map(lambda v: json.dumps(v).encode()),
    st.tuples(st.integers(0, 3), st.integers(0, 600), st.binary(max_size=3)).map(
        lambda t: _scene_line(t[0])[:t[1]] + t[2] + _scene_line(t[0])[t[1] + len(t[2]):]),
    st.integers(0, 3).map(_scene_line),
), max_size=4))
def test_read_jsonl_returns_samples_or_raises_a_typed_error(tmp_path_factory, lines):
    """Any bytes, split into lines: read_jsonl gives samples or a GevstError."""
    path = tmp_path_factory.mktemp("fuzz") / "x.jsonl"
    path.write_bytes(b"\n".join(lines))
    try:
        samples = D.read_jsonl(path)
    except GevstError:
        return
    assert all(isinstance(s, D.Sample) for s in samples)


def test_vocab_encode_decode_and_ordering():
    v = D.build_vocab(["b b b a a c", "a c"], min_count=2)
    # reserved first, then by frequency desc then lexicographic
    assert v.id_to_token == list(D.RESERVED_TOKENS) + ["a", "b", "c"]
    assert v.encode("a b zebra") == [4, 5, D.UNK_ID]
    assert v.decode([D.BOS_ID, 4, 5, D.EOS_ID, D.PAD_ID]) == "a b"
    assert v.decode([D.UNK_ID]) == "<unk>"
    with pytest.raises(SchemaError):
        v.decode([99])
    with pytest.raises(ConfigError):
        D.build_vocab(["a"], min_count=0)


def test_corpus_vocab_has_no_unknowns_at_min_count_one():
    samples = small_dataset()
    v = D.build_vocab(D.corpus_texts(samples), min_count=1)
    for s in samples:
        for cap in s.gt_captions:
            assert D.UNK_ID not in v.encode(cap)
