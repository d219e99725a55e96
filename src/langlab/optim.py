"""Adam optimizer over named parameter dicts.

One AdamState tracks first/second moments per parameter name, so a
single state can drive parameter groups with different learning rates
(encoder vs. classifier heads) by passing a per-name rate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

BETA1 = 0.9
BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    t: int = 0


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
              state: AdamState, lr) -> None:
    """One in-place Adam update over every name in grads.

    lr is a float, or a callable name -> float for per-group rates.
    Non-finite gradients abort: silent NaN propagation would poison the
    moment buffers for every later step.
    """
    rate = lr if callable(lr) else (lambda name: lr)
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise FloatingPointError(f"non-finite gradient for {name!r}")
    state.t += 1
    t = state.t
    bias1 = 1.0 - BETA1 ** t
    bias2 = 1.0 - BETA2 ** t
    for name, g in grads.items():
        if name not in state.m:
            state.m[name] = np.zeros_like(g)
            state.v[name] = np.zeros_like(g)
        m = state.m[name]
        v = state.v[name]
        # m += (1-b1)(g-m); v += (1-b2)(g*g-v);
        # p -= lr * (m/bias1) / (sqrt(v/bias2) + eps)
        # evaluated in this order, in place, in two scratch arrays
        tmp = np.subtract(g, m)
        tmp *= 1.0 - BETA1
        m += tmp
        np.multiply(g, g, out=tmp)
        tmp -= v
        tmp *= 1.0 - BETA2
        v += tmp
        np.divide(v, bias2, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += ADAM_EPS
        step = np.divide(m, bias1)
        step *= rate(name)
        step /= tmp
        params[name] -= step
