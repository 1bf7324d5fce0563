"""Numeric substrate: the sigmoid, initializers and Adam.

Matrices and vectors are plain float64 numpy arrays; a "parameter set" is a
dict mapping tensor names to arrays. All randomness flows through explicitly
seeded numpy Generators so every caller is reproducible from one seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Dict

import numpy as np

from .errors import NumericError, ShapeError

ParamSet = Dict[str, np.ndarray]


def sigmoid(x):
    """Logistic function, elementwise, as 0.5 * (1 + tanh(x / 2)).

    tanh saturates at +/-1 instead of overflowing, so no sign split is needed.
    """
    out = 0.5 * (1.0 + np.tanh(0.5 * np.asarray(x, dtype=np.float64)))
    return out if out.ndim else float(out)


def orthogonal_init(rows: int, cols: int, seed: int) -> np.ndarray:
    """Seeded orthogonal matrix via QR of a standard-normal draw.

    Signs are fixed so the diagonal of R is positive, making the result a
    deterministic function of (rows, cols, seed).
    """
    if rows < 1 or cols < 1:
        raise ShapeError(f"orthogonal_init needs positive dims, got ({rows}, {cols})")
    rng = np.random.default_rng(seed)
    flat = rng.standard_normal((max(rows, cols), min(rows, cols)))
    q, r = np.linalg.qr(flat)
    q = q * np.sign(np.diag(r))
    if rows < cols:
        q = q.T
    return np.ascontiguousarray(q[:rows, :cols])


def xavier_init(rows: int, cols: int, seed: int) -> np.ndarray:
    """Seeded Glorot-uniform matrix in +/- sqrt(6 / (rows + cols))."""
    if rows < 1 or cols < 1:
        raise ShapeError(f"xavier_init needs positive dims, got ({rows}, {cols})")
    bound = np.sqrt(6.0 / (rows + cols))
    rng = np.random.default_rng(seed)
    return rng.uniform(-bound, bound, size=(rows, cols))


@dataclass
class AdamState:
    """Optimizer state for one parameter set. train() sets alpha each epoch;
    beta1, beta2 and epsilon are Kingma & Ba's defaults, fixed."""

    beta1: ClassVar[float] = 0.9
    beta2: ClassVar[float] = 0.999
    epsilon: ClassVar[float] = 1e-8
    alpha: float = 1e-3
    step: int = 0
    first_moment: ParamSet = field(default_factory=dict)
    second_moment: ParamSet = field(default_factory=dict)

    def _ensure_moments(self, params: ParamSet) -> None:
        if not self.first_moment:
            self.first_moment = {k: np.zeros_like(v) for k, v in params.items()}
            self.second_moment = {k: np.zeros_like(v) for k, v in params.items()}


def adam_step(params: ParamSet, grads: ParamSet, state: AdamState) -> ParamSet:
    """One Adam update with bias correction; mutates state, returns new params.

    NumericError if a gradient is not finite, or if the update leaves a
    weight that is not (an infinite rate, say)."""
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient for parameter '{name}'")
        if g.shape != params[name].shape:
            raise ShapeError(
                f"gradient shape {g.shape} != parameter shape "
                f"{params[name].shape} for '{name}'"
            )
    state._ensure_moments(params)
    state.step += 1
    t = state.step
    b1, b2 = state.beta1, state.beta2
    out: ParamSet = {}
    for name, p in params.items():
        g = grads[name]
        m = state.first_moment[name]
        v = state.second_moment[name]
        m[:] = b1 * m + (1.0 - b1) * g
        v[:] = b2 * v + (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1**t)
        v_hat = v / (1.0 - b2**t)
        # an infinite rate times a zero moment is NaN: refused below, not warned of
        with np.errstate(over="ignore", invalid="ignore"):
            out[name] = p - state.alpha * m_hat / (np.sqrt(v_hat) + state.epsilon)
        if not np.all(np.isfinite(out[name])):
            raise NumericError(f"the update left a non-finite weight in parameter '{name}'")
    return out

