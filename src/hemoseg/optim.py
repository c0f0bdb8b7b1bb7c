"""AdamW with decoupled weight decay and cosine annealing with warm restarts."""
from __future__ import annotations

import math

import numpy as np

ADAM_BETAS = (0.9, 0.999)  # decay rates of the first and second moment estimates
ADAM_EPS = 1e-8  # added to the root of the second moment before dividing


class MissingGradient(RuntimeError):
    """A trainable parameter reached the optimizer without a gradient."""


class AdamW:
    """Decoupled-decay Adam over named parameter tensors.

    Weight decay multiplies parameters by (1 - lr*wd) before the
    bias-corrected moment update; it never flows through the moments.  The
    moments decay at ``ADAM_BETAS`` and ``ADAM_EPS`` guards the division.
    """

    def __init__(self, named_params, lr=1e-2, weight_decay=1e-4):
        self.named_params = list(named_params)
        names = [n for n, _ in self.named_params]
        if len(set(names)) != len(names):
            raise ValueError("duplicate parameter names")
        self.lr = float(lr)
        self.weight_decay = float(weight_decay)
        self.step_count = 0
        self.m = {n: np.zeros_like(p.data) for n, p in self.named_params}
        self.v = {n: np.zeros_like(p.data) for n, p in self.named_params}

    def zero_grad(self) -> None:
        for _, p in self.named_params:
            p.zero_grad()

    def step(self) -> None:
        self.step_count += 1
        b1, b2 = ADAM_BETAS
        c1 = 1.0 - b1**self.step_count
        c2 = 1.0 - b2**self.step_count
        for name, p in self.named_params:
            if p.grad is None:
                raise MissingGradient(f"no gradient on {name}")
            g = p.grad
            if self.weight_decay != 0.0:
                p.data *= 1.0 - self.lr * self.weight_decay
            m = self.m[name]
            v = self.v[name]
            m += (1.0 - b1) * (g - m)
            v += (1.0 - b2) * (g * g - v)
            p.data -= self.lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)

    def state_arrays(self) -> dict[str, np.ndarray]:
        out = {"optim.step": np.array([self.step_count], dtype=np.int64)}
        for name in self.m:
            out[f"optim.{name}.m"] = self.m[name]
            out[f"optim.{name}.v"] = self.v[name]
        return out

    def load_state_arrays(self, items: dict[str, np.ndarray]) -> None:
        self.step_count = int(items["optim.step"][0])
        for name in self.m:
            self.m[name][...] = items[f"optim.{name}.m"]
            self.v[name][...] = items[f"optim.{name}.v"]


class CosineWarmRestarts:
    """lr(t) = eta_min + (eta_max - eta_min)/2 * (1 + cos(pi * T_cur / T_i)).

    Cycle i lasts T_0 * T_mult**i epochs; t counts epochs and may be
    fractional.  lr(0) = eta_max, and the schedule returns to eta_max at
    the start of every cycle.
    """

    def __init__(self, eta_max=1e-2, eta_min=1e-5, t_0=10, t_mult=2):
        if t_0 <= 0 or t_mult < 1:
            raise ValueError(f"need t_0 > 0 and t_mult >= 1, got {t_0}, {t_mult}")
        if not 0 <= eta_min <= eta_max:
            raise ValueError(f"need 0 <= eta_min <= eta_max, got {eta_min}, {eta_max}")
        self.eta_max = float(eta_max)
        self.eta_min = float(eta_min)
        self.t_0 = float(t_0)
        self.t_mult = float(t_mult)

    def cycle_position(self, t: float) -> tuple[float, float]:
        """(T_cur, T_i): progress within the cycle containing epoch t."""
        if t < 0:
            raise ValueError(f"t must be >= 0, got {t}")
        start = 0.0
        t_i = self.t_0
        while t >= start + t_i:
            start += t_i
            t_i *= self.t_mult
        return t - start, t_i

    def lr_at(self, t: float) -> float:
        t_cur, t_i = self.cycle_position(t)
        return self.eta_min + 0.5 * (self.eta_max - self.eta_min) * (1.0 + math.cos(math.pi * t_cur / t_i))

    def restart_times(self, horizon: float) -> list[float]:
        """Epoch indices where a new cycle begins, up to the horizon."""
        out = []
        start = 0.0
        t_i = self.t_0
        while start + t_i <= horizon:
            start += t_i
            out.append(start)
            t_i *= self.t_mult
        return out
