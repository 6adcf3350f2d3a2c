"""Deterministic synthetic scenes, captions, vocabulary and JSONL io.

Scenes are 2-5 colored shapes on a 100x100 canvas with pairwise IoU < 0.5.
Region features are a fixed per-(shape, color) 32-dim code plus seeded
Gaussian noise. Dense captions are one attribute phrase per object plus one
relational phrase per generation-adjacent pair (union box). The two ground
truth captions describe the top-left-most vs bottom-right-most object pair in
a seeded mention order and differ only in their first token, so a single
teacher-forcing target exists while metric references still number two.

All randomness flows through per-sample split streams of the dataset seed;
floats are rounded at generation time (boxes to 3 decimals, features to 9
significant digits) so serialization round-trips exactly and reruns are
byte-identical.
"""

from __future__ import annotations

import functools
import json
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InputError, ParseError, SchemaError
from .geometry import BoundingBox, iou, union_box

SHAPES = ("circle", "square", "triangle")
COLORS = ("red", "blue", "green", "yellow")
CANVAS = (100.0, 100.0)
FEAT_DIM = 32
NOISE_SIGMA = 0.05
MAX_CAPTION_TOKENS = 12

# Entropy stamp for the per-(shape, color) codes; independent of dataset seeds
# so the same pair always maps to the same base vector.
_CODE_SEED = 61203642

PAD_ID, BOS_ID, EOS_ID, UNK_ID = 0, 1, 2, 3
RESERVED_TOKENS = ("<pad>", "<bos>", "<eos>", "<unk>")


@dataclass
class Region:
    feat: np.ndarray
    box: BoundingBox


@dataclass
class DenseCaption:
    text: str
    box: BoundingBox


@dataclass
class Sample:
    id: str
    regions: list
    image_wh: tuple
    dense_captions: list
    gt_captions: list


@functools.cache
def base_code(shape, color):
    """Fixed 32-dim code for a (shape, color) pair; no learning involved.
    Drawn once per pair and cached as a read-only array."""
    si, ci = SHAPES.index(shape), COLORS.index(color)
    code = np.random.default_rng(np.random.SeedSequence([_CODE_SEED, si, ci])).standard_normal(FEAT_DIM)
    code.flags.writeable = False
    return code


def _relation_word(box_a: BoundingBox, box_b: BoundingBox):
    """Relation of a mentioned before b; y grows downward (image convention)."""
    ax, ay = box_a.center
    bx, by = box_b.center
    dx, dy = bx - ax, by - ay
    if abs(dx) >= abs(dy) and dx != 0:
        return "left of" if dx > 0 else "right of"
    if dy != 0:
        return "above" if dy > 0 else "below"
    return "left of" if dx > 0 else "right of"


def _place_objects(rng):
    """2-5 objects, rejection-sampled so every pairwise IoU stays < 0.5."""
    n = int(rng.integers(2, 6))
    objs = []
    attempts = 0
    while len(objs) < n:
        attempts += 1
        if attempts > 2000:
            raise InputError("could not place objects under the overlap limit")
        shape = SHAPES[rng.integers(0, len(SHAPES))]
        color = COLORS[rng.integers(0, len(COLORS))]
        w = round(float(rng.uniform(15.0, 40.0)), 3)
        h = round(float(rng.uniform(15.0, 40.0)), 3)
        x0 = round(float(rng.uniform(0.0, CANVAS[0] - w)), 3)
        y0 = round(float(rng.uniform(0.0, CANVAS[1] - h)), 3)
        box = BoundingBox(x0, y0, round(x0 + w, 3), round(y0 + h, 3))
        if any(iou(box, o[2]) >= 0.5 for o in objs):
            continue
        if any(box.center == o[2].center for o in objs):
            continue
        objs.append((shape, color, box))
    sums = [b.center[0] + b.center[1] for _, _, b in objs]
    if min(sums) == max(sums):
        # all diagonal sums tied; nudge by rejecting the whole scene
        return None
    return objs


def generate_sample(seed, index):
    rng = np.random.default_rng(np.random.SeedSequence([seed, index]))
    objs = None
    while objs is None:
        objs = _place_objects(rng)

    regions = []
    for shape, color, box in objs:
        noise = rng.normal(0.0, NOISE_SIGMA, FEAT_DIM)
        feat = np.array([float(f"{v:.9g}") for v in (base_code(shape, color) + noise).tolist()])
        regions.append(Region(feat, box))

    dense = []
    for shape, color, box in objs:
        dense.append(DenseCaption(f"a {color} {shape}", box))
    for i in range(len(objs) - 1):
        sa, _, ba = objs[i]
        sb, _, bb = objs[i + 1]
        dense.append(DenseCaption(f"{sa} {_relation_word(ba, bb)} {sb}", union_box(ba, bb)))

    sums = [b.center[0] + b.center[1] for _, _, b in objs]
    lo, hi = sums.index(min(sums)), sums.index(max(sums))
    first, second = (lo, hi) if rng.integers(0, 2) == 0 else (hi, lo)
    sa, ca, ba = objs[first]
    sb, cb, bb = objs[second]
    rel = _relation_word(ba, bb)
    cap1 = f"a {ca} {sa} sits {rel} a {cb} {sb}"
    cap2 = f"the {ca} {sa} sits {rel} a {cb} {sb}"

    return Sample(
        id=f"s{index:05d}",
        regions=regions,
        image_wh=CANVAS,
        dense_captions=dense,
        gt_captions=[cap1, cap2],
    )


def generate_dataset(seed, n):
    if seed < 0:
        raise ConfigError(f"dataset seed must be >= 0, got {seed}")
    if n < 1:
        raise ConfigError(f"dataset size must be >= 1, got {n}")
    return [generate_sample(seed, i) for i in range(n)]


def split_train_val(samples):
    """Last 10% by index (at least one training sample stays)."""
    n = len(samples)
    cut = max(1, int(n * 0.9))
    return samples[:cut], samples[cut:]


# ------------------------------------------------------------------- JSONL


def sample_to_dict(s: Sample):
    return {
        "id": s.id,
        "regions": [{"feat": r.feat.tolist(), "box": r.box.as_list()} for r in s.regions],
        "image_wh": [float(s.image_wh[0]), float(s.image_wh[1])],
        "dense_captions": [{"text": d.text, "box": d.box.as_list()} for d in s.dense_captions],
        "gt_captions": list(s.gt_captions),
    }


def write_jsonl(samples, path):
    with open(path, "w") as f:
        for s in samples:
            f.write(json.dumps(sample_to_dict(s), separators=(",", ":")))
            f.write("\n")


def _field(obj, name, typ, line):
    if name not in obj:
        raise SchemaError(f"line {line}: missing field {name!r}")
    v = obj[name]
    if not isinstance(v, typ):
        raise SchemaError(f"line {line}: field {name!r} should be {typ.__name__}, got {type(v).__name__}")
    return v


def _numbers(obj, name, line, n=None):
    """Field `name` as a list of floats: it must hold finite JSON numbers (not
    bools), `n` of them when given."""
    vals = _field(obj, name, list, line)
    try:
        if n in (None, len(vals)) and set(map(type, vals)) <= {int, float} and all(map(math.isfinite, vals)):
            return list(map(float, vals))
    except OverflowError:  # an integer beyond float range
        pass
    raise SchemaError(f"line {line}: field {name!r} should be a list of {n or 'only'} finite numbers")


def sample_from_dict(obj, line=1):
    sid = _field(obj, "id", str, line)
    raw_regions = _field(obj, "regions", list, line)
    if not raw_regions:
        raise SchemaError(f"line {line}: sample {sid!r} has no regions")
    regions = []
    feat_len = None
    for r in raw_regions:
        if not isinstance(r, dict):
            raise SchemaError(f"line {line}: region entries must be objects")
        feat = _numbers(r, "feat", line)
        if feat_len is None:
            feat_len = len(feat)
        elif len(feat) != feat_len:
            raise SchemaError(f"line {line}: ragged region feature lengths ({feat_len} vs {len(feat)})")
        regions.append(Region(np.array(feat), BoundingBox(*_numbers(r, "box", line, 4))))
    wh = _numbers(obj, "image_wh", line, 2)
    dense = []
    for d in _field(obj, "dense_captions", list, line):
        if not isinstance(d, dict):
            raise SchemaError(f"line {line}: dense caption entries must be objects")
        dense.append(DenseCaption(_field(d, "text", str, line), BoundingBox(*_numbers(d, "box", line, 4))))
    gts = _field(obj, "gt_captions", list, line)
    if not all(isinstance(c, str) for c in gts):
        raise SchemaError(f"line {line}: field 'gt_captions' should be a list of strings")
    return Sample(sid, regions, tuple(wh), dense, list(gts))


def parse_json(raw):
    """The value JSON bytes hold, decoded as UTF-8 whatever the locale; a ParseError
    for bytes that are not UTF-8, text that is not JSON, or nesting too deep to decode."""
    try:
        return json.loads(raw.decode("utf-8"))
    except json.JSONDecodeError as e:
        raise ParseError(f"{e.msg} at char {e.pos}") from None
    except (UnicodeDecodeError, RecursionError) as e:
        raise ParseError(str(e)) from None


def read_json_objects(path):
    """Yield (line number, object) for each non-blank line of a JSONL file."""
    with open(path, "rb") as f:
        for lineno, raw in enumerate(f, start=1):
            if raw.strip() == b"":
                continue
            try:
                obj = parse_json(raw)
            except ParseError as e:
                raise ParseError(f"bad JSON ({e})", line=lineno) from None
            if not isinstance(obj, dict):
                raise SchemaError(f"line {lineno}: each line must be a JSON object")
            yield lineno, obj


def read_jsonl(path):
    """Samples of a JSONL file, one per line; a repeated scene id is a SchemaError."""
    samples, first_line = [], {}
    for lineno, obj in read_json_objects(path):
        s = sample_from_dict(obj, lineno)
        if s.id in first_line:
            raise SchemaError(f"line {lineno}: scene id {s.id!r} repeats line {first_line[s.id]}")
        first_line[s.id] = lineno
        samples.append(s)
    return samples


# -------------------------------------------------------------- vocabulary


def tokenize(text):
    return text.lower().split()


def pad_ids(seqs):
    """Id sequences as one int64 array [len(seqs) x longest], PAD after each."""
    out = np.full((len(seqs), max(map(len, seqs))), PAD_ID, dtype=np.int64)
    for row, seq in zip(out, seqs):
        row[:len(seq)] = seq
    return out


@dataclass
class Vocabulary:
    id_to_token: list
    token_to_id: dict = field(default=None)

    def __post_init__(self):
        if self.token_to_id is None:
            self.token_to_id = {t: i for i, t in enumerate(self.id_to_token)}

    def __len__(self):
        return len(self.id_to_token)

    def encode(self, text):
        unk = self.token_to_id[RESERVED_TOKENS[UNK_ID]]
        return [self.token_to_id.get(tok, unk) for tok in tokenize(text)]

    def decode(self, ids):
        """Text for a generated id sequence; reserved ids other than UNK drop out."""
        toks = []
        for i in ids:
            if i in (PAD_ID, BOS_ID, EOS_ID):
                continue
            if not 0 <= i < len(self.id_to_token):
                raise SchemaError(f"id {i} outside vocabulary of size {len(self.id_to_token)}")
            toks.append(self.id_to_token[i])
        return " ".join(toks)


def build_vocab(texts, min_count=5):
    """Frequency-then-lexicographic ids after the 4 reserved slots."""
    if min_count < 1:
        raise ConfigError(f"min_count must be >= 1, got {min_count}")
    counts = Counter(tok for text in texts for tok in tokenize(text))
    kept = sorted((t for t, c in counts.items() if c >= min_count), key=lambda t: (-counts[t], t))
    return Vocabulary(list(RESERVED_TOKENS) + kept)


def corpus_texts(samples):
    """Every caption string a vocabulary should cover, in dataset order."""
    out = []
    for s in samples:
        out.extend(s.gt_captions)
        out.extend(d.text for d in s.dense_captions)
    return out
