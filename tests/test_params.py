"""Parameter store, optimizers, gradient clipping, and the
finite-difference gradient checker."""

import numpy as np
import pytest

from hemenet.errors import ConfigError
from hemenet.numcore import (
    OptimConfig,
    ParamStore,
    Tensor,
    glorot_uniform,
    grad_check,
    matmul,
    optimizer_step,
    tsum,
    unit_rows,
)
from hemenet.numcore.params import ADAM_BETAS, ADAM_EPS
from hemenet.numcore.tensor import grad_enabled


def store_with(name="w", value=(1.0,), dtype=np.float64):
    store = ParamStore(dtype=dtype)
    store.add(name, np.asarray(value, dtype=dtype))
    return store


def set_grad(grads, store, name, g):
    grads[store.params[name]] = np.asarray(g, dtype=store.dtype)


def test_adam_zero_grad_is_noop():
    store, grads = store_with(value=[1.5, -2.5]), {}
    set_grad(grads, store, "w", [0.0, 0.0])
    optimizer_step(store, OptimConfig(lr=0.3), grads)
    np.testing.assert_array_equal(store["w"].data, [1.5, -2.5])


def test_adam_first_step_sign():
    store, grads = store_with(value=[1.0, 1.0, 1.0]), {}
    set_grad(grads, store, "w", [0.5, -3.0, 1e-4])
    before = store["w"].data.copy()
    optimizer_step(store, OptimConfig(lr=1e-2), grads)
    delta = store["w"].data - before
    assert np.all(np.sign(delta) == -np.sign([0.5, -3.0, 1e-4]))


def test_lr_nonpositive_rejected():
    store, grads = store_with(), {}
    set_grad(grads, store, "w", [1.0])
    with pytest.raises(ConfigError):
        optimizer_step(store, OptimConfig(lr=0.0), grads)
    with pytest.raises(ConfigError):
        optimizer_step(store, OptimConfig(lr=-1e-3), grads)


def test_optimizer_leaves_grads_alone():
    store, grads = store_with(value=[2.0]), {}
    set_grad(grads, store, "w", [3.0])
    optimizer_step(store, OptimConfig(lr=0.1), grads)
    np.testing.assert_array_equal(grads[store["w"]], [3.0])


def test_adam_state_advances():
    store, grads = store_with(value=[1.0]), {}
    set_grad(grads, store, "w", [1.0])
    optimizer_step(store, OptimConfig(lr=1e-3), grads)
    optimizer_step(store, OptimConfig(lr=1e-3), grads)
    slots = store.opt_state["w"]
    assert slots["step"] == 2
    assert "m" in slots and "v" in slots


def test_missing_grad_treated_as_zero():
    store = ParamStore(dtype=np.float64)
    store.add("a", [1.0])
    store.add("b", [2.0])
    grads = {}
    set_grad(grads, store, "a", [1.0])
    optimizer_step(store, OptimConfig(lr=0.5), grads)
    np.testing.assert_array_equal(store["b"].data, [2.0])
    assert store["a"].data[0] == pytest.approx(0.5)  # Adam's first step moves by lr
    assert store.opt_state["b"]["step"] == 1


def reference_adam_step(store, config, grads):
    """Adam as one allocating expression per slot: the oracle for the
    in-place update."""
    b1, b2 = ADAM_BETAS
    for name in store.names():
        t = store.params[name]
        g = grads[t] if t in grads else np.zeros_like(t.data)
        st = store.opt_state.setdefault(
            name, {"m": np.zeros_like(t.data), "v": np.zeros_like(t.data), "step": 0})
        st["step"] += 1
        st["m"] = b1 * st["m"] + (1.0 - b1) * g
        st["v"] = b2 * st["v"] + (1.0 - b2) * g * g
        mhat = st["m"] / (1.0 - b1 ** st["step"])
        vhat = st["v"] / (1.0 - b2 ** st["step"])
        new = np.asarray(t.data - config.lr * mhat / (np.sqrt(vhat) + ADAM_EPS),
                         dtype=store.dtype, order="C")
        new.flags.writeable = False
        t.data = new


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_in_place_adam_is_bitwise_the_reference(dtype):
    """Several steps over a matrix, a scalar and a parameter that never
    gets a gradient: values and both moments match bit for bit."""
    stores = []
    for _ in range(2):
        rng = np.random.default_rng(5)
        store = ParamStore(dtype=dtype)
        store.add("w", rng.normal(size=(6, 5)))
        store.add("s", rng.normal(size=()))
        store.add("unused", rng.normal(size=(3,)))
        stores.append(store)
    rng = np.random.default_rng(6)
    for step in range(5):
        grads = {name: rng.normal(size=stores[0][name].shape) * 10.0 ** (step - 2)
                 for name in ("w", "s")}
        config = OptimConfig(lr=1e-2 * (step + 1))
        for store, update in zip(stores, (optimizer_step, reference_adam_step)):
            step_grads = {}
            for name, g in grads.items():
                set_grad(step_grads, store, name, g)
            update(store, config, step_grads)
    ours, ref = stores
    for name in ref.names():
        assert ours[name].data.dtype == ref[name].data.dtype == np.dtype(dtype)
        assert ours[name].data.tobytes() == ref[name].data.tobytes(), name
        assert not ours[name].data.flags.writeable
        for key in ("m", "v"):
            assert ours.opt_state[name][key].tobytes() == ref.opt_state[name][key].tobytes()
        assert ours.opt_state[name]["step"] == ref.opt_state[name]["step"] == 5


def test_duplicate_name_rejected():
    store = store_with()
    with pytest.raises(ConfigError):
        store.add("w", [0.0])
    store.add_state("running", [0.0])
    with pytest.raises(ConfigError):
        store.add("running", [0.0])


def test_clip_global_norm():
    store = ParamStore(dtype=np.float64)
    store.add("a", np.zeros(3))
    store.add("b", np.zeros(4))
    a, b = store.params["a"], store.params["b"]
    grads = {a: np.full(3, 3.0), b: np.full(4, 4.0)}
    norm = np.sqrt(27.0 + 64.0)
    returned = store.clip_global_norm(grads, 1.0)
    assert returned == pytest.approx(norm)
    total = np.sqrt(sum(float((g ** 2).sum()) for g in grads.values()))
    assert total == pytest.approx(1.0)
    # below the threshold nothing changes
    grads[a] = np.array([0.1, 0.0, 0.0])
    grads[b] = np.zeros(4)
    store.clip_global_norm(grads, 1.0)
    np.testing.assert_array_equal(grads[a], [0.1, 0.0, 0.0])
    store.clip_global_norm(grads, float("inf"))  # inf never clips
    np.testing.assert_array_equal(grads[a], [0.1, 0.0, 0.0])
    # a negative bound used to flip every gradient, and 0 to zero them
    grads[a] = np.array([3.0, 4.0, 0.0])
    for max_norm in (0.0, -1.0, float("nan")):
        with pytest.raises(ConfigError, match="clip"):
            store.clip_global_norm(grads, max_norm)
    np.testing.assert_array_equal(grads[a], [3.0, 4.0, 0.0])


def test_init_shapes_and_spread():
    rng = np.random.default_rng(0)
    w = glorot_uniform(rng, (64, 32), np.float64)
    bound = np.sqrt(6.0 / (64 + 32))
    assert w.shape == (64, 32) and np.max(np.abs(w)) <= bound
    q = unit_rows(rng, (7, 16), np.float64)
    np.testing.assert_allclose(np.linalg.norm(q, axis=1), 1.0, atol=1e-12)


# -- grad_check ---------------------------------------------------------------


def test_grad_check_quadratic_form():
    rng = np.random.default_rng(1)
    store = ParamStore(dtype=np.float64)
    store.add("W", rng.normal(size=(4, 3)))
    x = Tensor(rng.normal(size=(3, 1)))

    def fn():
        y = matmul(store["W"], x)
        return tsum(y * y)

    report = grad_check(fn, store, eps=1e-5, tol=1e-6)
    assert report.ok, report.flagged
    assert report.max_rel_error <= 1e-6


def test_grad_check_constant_function():
    store = store_with(value=[1.0, 2.0])

    def fn():
        return tsum(store["w"] * 0.0)

    report = grad_check(fn, store, eps=1e-5, tol=1e-6)
    assert report.ok and report.max_rel_error == 0.0


def test_grad_check_requires_float64():
    store = store_with(dtype=np.float32)
    with pytest.raises(ConfigError):
        grad_check(lambda: tsum(store["w"]), store)


def test_grad_check_flags_wrong_gradient():
    store = store_with(value=[2.0])

    def fn():
        return tsum(store["w"] * store["w"])

    assert grad_check(fn, store, eps=1e-5, tol=1e-6).ok

    def fn_bad():
        y = fn()
        return y + y if grad_enabled() else y  # the recorded graph doubles the gradient

    report = grad_check(fn_bad, store, eps=1e-5, tol=1e-6)
    assert not report.ok and "w" in report.flagged
