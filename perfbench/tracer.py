"""Outside-in tracing of the gevst package, with no change to its source.

`Tracer` replaces public functions at the names their callers look them up
(`from . import` binds names into each calling module, so `encode_captions`
is wrapped in `gevst.model`, `stack_fusion` in `gevst.encoder`, and so on),
plus a few methods on their classes. Every wrapped call becomes one span
`[name, start, end, parent, step, sample, extra]` kept in memory:

* `parent` is the index of the enclosing span, or -1;
* `step` is the optimizer step, numbered at each `Tape.__enter__` and closed
  when `Adam.step` returns, so the spans of one step share it;
* `sample` is the id of the scene being encoded or captioned, so the spans
  of one caption share it;
* `extra` holds a count taken at the boundary: tape nodes for `backward`,
  prefix tokens for a decoder step, generated tokens for a decode call.

`per_layer` turns the spans into the per-layer metrics that BENCHMARK.json
lists. Layer times are inclusive span totals in ms unless the name says
`self`; nn primitives have no spans and count inside their callers.
"""

from __future__ import annotations

import json
import time

from gevst import data, encoder, metrics, model, tensor, training

NAME, START, END, PARENT, STEP, SAMPLE, EXTRA = range(7)


def _generated(args, result):
    """Tokens a decode call generated: the length of its first result."""
    return len(result[0])


def _tape_nodes(args, result):
    """Nodes the tape recorded; backward reads them and leaves the list as it was."""
    return len(args[0].nodes)


# Wrapped attributes: (module or class, attribute, span name, index of the
# positional `sample` argument or None, function of (args, result) giving `extra`).
_FUNCTIONS = (
    (data, "generate_dataset", "data.generate", None, None),
    (data, "write_jsonl", "data.write_jsonl", None, None),
    (data, "read_jsonl", "data.read_jsonl", None, None),
    (training, "save_checkpoint", "training.save_checkpoint", None, None),
    (training, "load_checkpoint", "training.load_checkpoint", None, None),
    (training, "train_xe", "training.train_xe", None, None),
    (training, "train_scst", "training.train_scst", None, None),
    (training, "corpus_cider", "training.validation", None, None),
    (training, "clip_gradients", "training.clip", None, None),
    (training, "reinforce_loss", "training.reinforce_loss", None, None),
    (training, "greedy_caption", "training.greedy_caption", 3, None),
    (training, "beam_caption", "training.beam_caption", 3, None),
    (training, "scst_rollouts", "training.scst_rollouts", 3, _generated),
    (training, "greedy_decode", "decoder.greedy_decode", None, _generated),
    (training, "beam_search", "decoder.beam_search", None, _generated),
    (model, "encode_captions", "caption_encoder.encode", None, None),
    (model, "embed_geometry", "geometry.embed", None, None),
    (model, "encode_all", "encoder.encode_all", None, None),
    (model, "decoder_forward", "decoder.forward", None, None),
    (metrics, "evaluate", "metrics.evaluate", None, None),
    (metrics, "cider_d", "metrics.cider_d", None, None),
    (metrics.CiderScorer, "sentence", "metrics.cider_sentence", None, None),
    (tensor.Tape, "backward", "tensor.backward", None, _tape_nodes),
)

# Calls that produce one caption; `extra` is its generated-token count.
_CAPTION_SPANS = ("decoder.greedy_decode", "decoder.beam_search", "training.scst_rollouts")


class Tracer:
    """Installs the wrappers on `__enter__` and restores the originals on `__exit__`."""

    def __init__(self):
        self.spans = []
        self._open = []
        self._samples = []
        self._step = None
        self._steps = 0
        self._saved = []
        self._layer_of = {}  # id(parameter list) -> fusion direction or GESA branch

    # ------------------------------------------------------------ spans

    def _begin(self, name, extra=None):
        parent = self._open[-1] if self._open else -1
        sample = self._samples[-1] if self._samples else None
        self.spans.append([name, time.perf_counter(), None, parent, self._step, sample, extra])
        self._open.append(len(self.spans) - 1)
        return self.spans[-1]

    def _end(self, span):
        span[END] = time.perf_counter()
        self._open.pop()

    def _wrap(self, fn, name, sample_arg=None, name_of=None, extra_of=None):
        def traced(*args, **kwargs):
            if sample_arg is not None:
                self._samples.append(args[sample_arg].id)
            span = self._begin(name_of(args) if name_of else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(span)
                if sample_arg is not None:
                    self._samples.pop()
            if extra_of is not None:
                span[EXTRA] = extra_of(args, result)
            return result

        return traced

    # ------------------------------------------------------ installation

    def _patch(self, owner, attr, replacement):
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def __enter__(self):
        for owner, attr, name, sample_arg, extra_of in _FUNCTIONS:
            self._patch(owner, attr, self._wrap(getattr(owner, attr), name, sample_arg, extra_of=extra_of))

        def layer(default):
            return lambda args: self._layer_of.get(id(args[0]), default)

        encode_sample = self._mapping_encode(training.encode_sample)
        self._patch(training, "encode_sample", self._wrap(encode_sample, "model.encode_sample", 2))
        self._patch(encoder, "stack_fusion", self._wrap(encoder.stack_fusion, None, name_of=layer("fusion.other")))
        self._patch(encoder, "branch_forward", self._wrap(encoder.branch_forward, None, name_of=layer("encoder.other")))
        self._patch(training, "make_step_fn", self._step_fn_maker(training.make_step_fn))
        self._patch(tensor.Tape, "__enter__", self._tape_enter(tensor.Tape.__enter__))
        self._patch(training.Adam, "step", self._adam_step(training.Adam.step))
        return self

    def __exit__(self, exc_type, exc, tb):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def _mapping_encode(self, encode_sample):
        def encode(params, *args, **kwargs):
            fusions = ((params.fusion_vs, "fusion.vs"), (params.fusion_sv, "fusion.sv"))
            self._layer_of = {id(p): name for p, name in fusions if p is not None}
            self._layer_of.update({id(layers): f"encoder.{b}" for b, layers in params.branches.items()})
            return encode_sample(params, *args, **kwargs)

        return encode

    def _step_fn_maker(self, make_step_fn):
        def make(*args, **kwargs):
            step_fn = make_step_fn(*args, **kwargs)

            def step(prefix_ids):
                span = self._begin("decoder.step", len(prefix_ids))
                try:
                    return step_fn(prefix_ids)
                finally:
                    self._end(span)

            return step

        return make

    def _tape_enter(self, enter):
        def traced_enter(tape):
            self._step = self._steps
            self._steps += 1
            return enter(tape)

        return traced_enter

    def _adam_step(self, step):
        def traced_step(opt, lr):
            span = self._begin("training.adam_step")
            try:
                return step(opt, lr)
            finally:
                self._end(span)
                self._step = None

        return traced_step

    # ----------------------------------------------------------- output

    def write(self, path):
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(span, separators=(",", ":")) + "\n")


def span_table(spans):
    """Span name -> calls, inclusive and self ms, and summed `extra` counts."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += s[END] - s[START]
    table = {}
    for s, below in zip(spans, child_time):
        row = table.setdefault(s[NAME], {"calls": 0, "total_ms": 0.0, "self_ms": 0.0, "extra": 0})
        took = 1000.0 * (s[END] - s[START])
        row["calls"] += 1
        row["total_ms"] += took
        row["self_ms"] += took - 1000.0 * below
        row["extra"] += s[EXTRA] or 0
    return table


def per_layer(spans):
    table = span_table(spans)
    teacher_forced = sum(s[END] - s[START] for s in spans if s[NAME] == "decoder.forward"
                         and (s[PARENT] < 0 or spans[s[PARENT]][NAME] != "decoder.step"))

    def ms(name):
        return table.get(name, {}).get("total_ms", 0.0)

    def calls(name):
        return table.get(name, {}).get("calls", 0)

    def extra(name):
        return table.get(name, {}).get("extra", 0)

    def ratio(num, den):
        return num / den if den else 0.0

    step_samples = samples_per_step(spans)
    backward_samples = sum(len(step_samples.get(s[STEP], ())) for s in spans if s[NAME] == "tensor.backward")
    captions = sum(calls(n) for n in _CAPTION_SPANS)
    step_calls = calls("decoder.step")
    prefix_tokens = extra("decoder.step")
    rollouts = calls("training.scst_rollouts")
    return {
        "tensor.backward_ms": ms("tensor.backward"),
        "tensor.backward_calls": calls("tensor.backward"),
        "tensor.tape_nodes_per_sample": ratio(extra("tensor.backward"), backward_samples),
        "caption_encoder.encode_ms": ms("caption_encoder.encode"),
        "geometry.embed_ms": ms("geometry.embed"),
        "fusion.vs_ms": ms("fusion.vs"),
        "fusion.sv_ms": ms("fusion.sv"),
        "encoder.ss_ms": ms("encoder.ss"),
        "encoder.sv_ms": ms("encoder.sv"),
        "encoder.vs_ms": ms("encoder.vs"),
        "encoder.vv_ms": ms("encoder.vv"),
        "model.encode_sample_ms": ms("model.encode_sample"),
        "decoder.teacher_forced_ms": 1000.0 * teacher_forced,
        "decoder.step_ms": ms("decoder.step"),
        "decoder.step_calls_per_caption": ratio(step_calls, captions),
        "decoder.step_prefix_tokens": ratio(prefix_tokens, captions),
        "decoder.tokens_per_caption": ratio(sum(extra(n) for n in _CAPTION_SPANS), captions),
        "decoder.step_useful_row_share": ratio(step_calls, prefix_tokens),
        "decoder.beam_search_self_ms": table.get("decoder.beam_search", {}).get("self_ms", 0.0),
        "training.adam_step_ms": ms("training.adam_step"),
        "training.clip_ms": ms("training.clip"),
        "training.scst_rollouts_ms": ms("training.scst_rollouts"),
        "training.scst_useful_share": ratio(calls("training.reinforce_loss"), rollouts),
        "training.validation_ms": ms("training.validation"),
        "training.save_checkpoint_ms": ms("training.save_checkpoint"),
        "training.load_checkpoint_ms": ms("training.load_checkpoint"),
        "data.generate_ms": ms("data.generate"),
        "data.read_jsonl_ms": ms("data.read_jsonl"),
        "metrics.cider_sentence_ms": ms("metrics.cider_sentence"),
        "metrics.cider_sentence_calls": calls("metrics.cider_sentence"),
        "metrics.evaluate_ms": ms("metrics.evaluate"),
    }


def samples_per_step(spans):
    """Optimizer step -> ids of the scenes encoded under its tape."""
    per_step = {}
    for s in spans:
        if s[NAME] == "model.encode_sample" and s[STEP] is not None:
            per_step.setdefault(s[STEP], set()).add(s[SAMPLE])
    return per_step
