"""Converters from parameter dataclasses to the plain-list oracle inputs,
plus small helpers shared across test modules."""

import numpy as np

import oracles as O
from gevst import tensor as T
from gevst.errors import ContractError
from gevst.nn import named_parameters


def lin(p):
    return (O.mat(p.w.data), O.vec(p.b.data))


def additive6(att):
    """AdditiveAttention -> (wq, bq, wk, bk, wo, bo) for the oracle."""
    return (*lin(att.v_proj), *lin(att.s_proj), O.mat(att.out.w.data), O.vec(att.out.b.data))


def ln2(p):
    return (O.vec(p.gain.data), O.vec(p.bias.data))


def ffn4(p):
    return (O.mat(p.inner.w.data), O.vec(p.inner.b.data),
            O.mat(p.outer.w.data), O.vec(p.outer.b.data))


def fusion_oracle_params(cell):
    return {
        "content": additive6(cell.content) if cell.content is not None else None,
        "geometry": additive6(cell.geometry) if cell.geometry is not None else None,
        "v_exp": lin(cell.v_exp),
        "s_exp": lin(cell.s_exp),
    }


def gesa_oracle_params(lp):
    return {
        "q_c": lin(lp.q_c), "k_c": lin(lp.k_c), "v_c": lin(lp.v_c),
        "q_intra": lin(lp.q_intra) if lp.q_intra is not None else None,
        "k_intra": lin(lp.k_intra) if lp.k_intra is not None else None,
        "q_inter": lin(lp.q_inter) if lp.q_inter is not None else None,
        "k_inter": lin(lp.k_inter) if lp.k_inter is not None else None,
        "gate": lin(lp.gate), "ln1": ln2(lp.ln1), "ln2": ln2(lp.ln2), "ffn": ffn4(lp.ffn),
    }


def decoder_oracle_layers(layers):
    out = []
    for lp in layers:
        out.append({
            "self_q": lin(lp.self_q), "self_k": lin(lp.self_k), "self_v": lin(lp.self_v),
            "ln1": ln2(lp.ln1), "ln2": ln2(lp.ln2), "ln3": ln2(lp.ln3), "ffn": ffn4(lp.ffn),
            "cross": {b: (*lin(c.q), *lin(c.k), *lin(c.v)) for b, c in lp.cross.items()},
            "mod": {b: lin(m) for b, m in lp.mod.items()},
        })
    return out


def randomize(params_obj, rng, scale=0.4):
    """Replace every parameter (biases included) with random values so the
    zero-init biases don't mask missing terms in a comparison."""
    for _, t in named_parameters(params_obj):
        t.data = rng.normal(0.0, scale, size=t.data.shape)


def max_abs_delta(a, b):
    return float(np.abs(np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)).max())


def batched(step):
    """A per-prefix rig `step(prefix) -> log-prob row` as the batched
    `step(prefixes) -> [len(prefixes) x V]` call that decoding makes."""
    return lambda prefixes: np.stack([step(list(p)) for p in prefixes])


def grad_check(f, x, eps=1e-5, max_coords=None, rng=None, floor=1e-8):
    """Compare reverse-mode d f/d x against central differences.

    f maps the Tensor x (and whatever it closes over) to a scalar Tensor.
    Relative error per coordinate is |a - n| / max(|a|, |n|, floor); the max
    over checked coordinates is returned. max_coords samples that many
    coordinates with rng instead of sweeping all of them.

    floor turns the ratio into an absolute comparison for coordinates whose
    gradient is near zero (an attention key bias, say, cancels inside softmax
    and backs an exactly-zero gradient): there the difference |a - n| is pure
    finite-difference noise and dividing by it would measure nothing.
    """
    if not x.requires_grad:
        raise ContractError("grad_check target must require grad")
    x.grad = None
    with T.Tape() as tape:
        y = f(x)
        if y.data.size != 1:
            raise ContractError(f"grad_check needs a scalar-valued f, got shape {y.data.shape}")
        tape.backward(y)
    analytic = np.zeros_like(x.data) if x.grad is None else x.grad
    aflat = analytic.reshape(-1)
    flat = x.data.reshape(-1)
    n = flat.size
    if max_coords is not None and max_coords < n:
        if rng is None:
            rng = np.random.default_rng(0)
        coords = rng.choice(n, size=max_coords, replace=False)
    else:
        coords = range(n)
    worst = 0.0
    with T.no_grad():
        for i in coords:
            orig = flat[i]
            flat[i] = orig + eps
            fp = float(f(x).data)
            flat[i] = orig - eps
            fm = float(f(x).data)
            flat[i] = orig
            numeric = (fp - fm) / (2.0 * eps)
            a = aflat[i]
            rel = abs(a - numeric) / max(abs(a), abs(numeric), floor)
            if rel > worst:
                worst = rel
    return worst
