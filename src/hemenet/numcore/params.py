"""Named parameter storage, the Adam optimizer and gradient checking."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError, ShapeError
from .tensor import Tensor, no_grad


class ParamStore:
    """Flat mapping from dotted names to trainable tensors.

    Also carries non-trainable state arrays (normalization running
    statistics) and per-parameter optimizer state.  Names are unique
    across both namespaces.
    """

    def __init__(self, dtype=np.float32):
        self.dtype = np.dtype(dtype)
        self.params: dict[str, Tensor] = {}
        self.state: dict[str, np.ndarray] = {}
        self.opt_state: dict[str, dict] = {}

    def add(self, name: str, values) -> Tensor:
        if name in self.params or name in self.state:
            raise ConfigError(f"duplicate parameter name {name!r}")
        t = Tensor(np.asarray(values), requires_grad=True, dtype=self.dtype)
        self.params[name] = t
        return t

    def add_state(self, name: str, values) -> np.ndarray:
        if name in self.params or name in self.state:
            raise ConfigError(f"duplicate state name {name!r}")
        self.state[name] = np.asarray(values, dtype=self.dtype).copy()
        return self.state[name]

    def __getitem__(self, name: str) -> Tensor:
        return self.params[name]

    def __contains__(self, name: str) -> bool:
        return name in self.params

    def names(self):
        return sorted(self.params)

    def items(self):
        return ((k, self.params[k]) for k in self.names())

    def clip_global_norm(self, grads: dict, max_norm: float) -> float:
        """Scale the gradients in ``grads`` (parameter Tensor -> array)
        so their joint L2 norm is <= max_norm.

        Returns the pre-clip norm, summed in name order; an absent
        parameter counts as a zero gradient.  ``max_norm`` must be > 0;
        ``inf`` never clips.
        """
        if not max_norm > 0:
            raise ConfigError(f"gradient clip norm must be > 0, got {max_norm}")
        total = 0.0
        for _, t in self.items():
            if t in grads:
                total += float(np.sum(np.asarray(grads[t], dtype=np.float64) ** 2))
        norm = float(np.sqrt(total))
        if norm > max_norm:
            scale = max_norm / norm
            for t in self.params.values():
                if t in grads:
                    # not in place: Tensor.backward stores a leaf's first
                    # gradient as the op returned it, which may alias another
                    # leaf's gradient, and scaling a shared buffer twice
                    # would clip that leaf twice
                    grads[t] = grads[t] * scale
        return norm


# -- initializers ---------------------------------------------------------


def glorot_uniform(rng: np.random.Generator, shape, dtype) -> np.ndarray:
    """Uniform Glorot over the trailing two dims (leading dims batch)."""
    fan_in, fan_out = shape[-2], shape[-1]
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


def unit_rows(rng: np.random.Generator, shape, dtype) -> np.ndarray:
    """Gaussian rows rescaled to unit L2 norm along the last axis."""
    x = rng.standard_normal(shape)
    norms = np.linalg.norm(x, axis=-1, keepdims=True)
    return (x / np.where(norms > 0, norms, 1.0)).astype(dtype)


# -- optimizer ------------------------------------------------------------


ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8


@dataclass
class OptimConfig:
    lr: float = 1e-3

    def validate(self):
        if not self.lr > 0:  # NaN fails too
            raise ConfigError(f"learning rate must be positive, got {self.lr}")


def optimizer_step(store: ParamStore, config: OptimConfig, grads: dict):
    """Apply one Adam update from ``grads`` (parameter Tensor -> array).

    ``grads`` is left untouched.  Parameters absent from it are treated
    as having a zero gradient (their optimizer state still advances).

    ``m`` and ``v`` are updated in place, with one scratch array per
    parameter besides the new values.  Each step is the ufunc, operand
    order and dtype of ``m = b1*m + (1-b1)*g``, ``v = b2*v + (1-b2)*g*g``,
    ``p - lr * (m/c1) / (sqrt(v/c2) + eps)``, so the result is bitwise
    that expression's.
    """
    config.validate()
    b1, b2 = ADAM_BETAS
    for name in store.names():
        t = store.params[name]
        g = grads[t] if t in grads else np.zeros_like(t.data)
        st = store.opt_state.setdefault(
            name, {"m": np.zeros_like(t.data), "v": np.zeros_like(t.data), "step": 0}
        )
        st["step"] += 1
        m, v = st["m"], st["v"]
        tmp, new = np.empty_like(m), np.empty_like(m)
        np.multiply(1.0 - b1, g, out=tmp)
        np.multiply(b1, m, out=m)
        np.add(m, tmp, out=m)
        np.multiply(1.0 - b2, g, out=tmp)
        np.multiply(tmp, g, out=tmp)
        np.multiply(b2, v, out=v)
        np.add(v, tmp, out=v)
        np.divide(v, 1.0 - b2 ** st["step"], out=tmp)
        np.sqrt(tmp, out=tmp)
        np.add(tmp, ADAM_EPS, out=tmp)
        np.divide(m, 1.0 - b1 ** st["step"], out=new)
        np.multiply(config.lr, new, out=new)
        np.divide(new, tmp, out=new)
        np.subtract(t.data, new, out=new)
        new.flags.writeable = False
        t.data = new


# -- gradient checking ------------------------------------------------------


@dataclass
class GradCheckReport:
    eps: float
    tol: float
    per_param: dict[str, float] = field(default_factory=dict)
    flagged: list[str] = field(default_factory=list)

    @property
    def max_rel_error(self) -> float:
        return max(self.per_param.values(), default=0.0)

    @property
    def ok(self) -> bool:
        return not self.flagged


def grad_check(fn, store: ParamStore, eps: float = 1e-5, tol: float = 1e-5,
               zero_floor: float = 1e-7) -> GradCheckReport:
    """Compare analytic gradients of ``fn()`` against central finite
    differences, parameter by parameter.

    ``fn`` must rebuild its forward graph on every call and return a
    scalar Tensor.  Entries where both the analytic and numeric value
    are below ``zero_floor`` count as zero error (the parameter is
    unused and both sides are pure roundoff).
    """
    if store.dtype != np.float64:
        raise ConfigError("grad_check requires a float64 ParamStore")
    grads = {}
    fn().backward(grads)

    report = GradCheckReport(eps=eps, tol=tol)
    for name in store.names():
        t = store.params[name]
        frozen = t.data
        work = np.array(frozen)  # writable scratch copy
        t.data = work
        a = np.array(grads[t] if t in grads else np.zeros(t.shape), dtype=np.float64).reshape(-1)
        worst = 0.0
        flat = work.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            with no_grad():
                flat[i] = orig + eps
                f_plus = fn().item()
                flat[i] = orig - eps
                f_minus = fn().item()
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * eps)
            scale = max(abs(a[i]), abs(numeric))
            if scale <= zero_floor:
                continue
            worst = max(worst, abs(a[i] - numeric) / scale)
        t.data = frozen
        report.per_param[name] = worst
        if worst > tol:
            report.flagged.append(name)
    return report
