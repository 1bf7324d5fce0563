import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import finite_diff_grad
from phishdefense.errors import NumericError, ShapeError
from phishdefense.tensor import AdamState, adam_step, orthogonal_init, sigmoid, xavier_init


class TestActivations:
    def test_sigmoid_zero(self):
        assert sigmoid(0.0) == 0.5

    def test_sigmoid_closed_form(self):
        assert sigmoid(1.0) == pytest.approx(0.7310585786, abs=1e-10)

    def test_sigmoid_saturation_no_nan(self):
        lo = sigmoid(-1000.0)
        assert 0.0 <= lo <= 1e-300
        assert sigmoid(1000.0) == 1.0

    @given(st.floats(min_value=-700, max_value=700))
    def test_sigmoid_symmetry(self, x):
        assert sigmoid(x) + sigmoid(-x) == pytest.approx(1.0, abs=1e-12)


class TestInitializers:
    def test_orthogonal_square_property(self):
        q = orthogonal_init(4, 4, seed=7)
        assert np.max(np.abs(q.T @ q - np.eye(4))) < 1e-6

    def test_orthogonal_deterministic(self):
        np.testing.assert_array_equal(
            orthogonal_init(5, 3, seed=11), orthogonal_init(5, 3, seed=11)
        )

    def test_orthogonal_1x1(self):
        q = orthogonal_init(1, 1, seed=0)
        assert abs(abs(q[0, 0]) - 1.0) < 1e-12

    def test_orthogonal_gram_property_many_shapes(self, rng):
        for _ in range(100):
            r = int(rng.integers(1, 12))
            c = int(rng.integers(1, 12))
            seed = int(rng.integers(0, 2**31))
            q = orthogonal_init(r, c, seed)
            gram = q.T @ q if r >= c else q @ q.T
            assert np.max(np.abs(gram - np.eye(min(r, c)))) < 1e-6, (r, c, seed)

    def test_xavier_bounds_and_determinism(self):
        m = xavier_init(8, 8, seed=5)
        bound = math.sqrt(6 / 16)
        assert np.all(np.abs(m) <= bound)
        np.testing.assert_array_equal(m, xavier_init(8, 8, seed=5))

    def test_xavier_2x2_bound(self):
        m = xavier_init(2, 2, seed=3)
        assert np.all(np.abs(m) <= math.sqrt(6 / 4))  # 1.2247...


class TestAdam:
    def test_zero_gradient_is_noop(self, rng):
        params = {"w": rng.standard_normal((3, 3)), "b": rng.standard_normal(3)}
        state = AdamState(alpha=0.1)
        out = adam_step(params, {k: np.zeros_like(v) for k, v in params.items()}, state)
        for k in params:
            np.testing.assert_array_equal(out[k], params[k])
            assert np.all(state.first_moment[k] == 0)

    def test_first_step_moves_by_alpha_sign(self):
        params = {"w": np.array([1.0, -2.0, 3.0])}
        grads = {"w": np.array([0.5, -0.25, 4.0])}
        state = AdamState(alpha=1e-3)
        out = adam_step(params, grads, state)
        # bias-corrected first step: delta ~= -alpha * sign(g)
        delta = out["w"] - params["w"]
        np.testing.assert_allclose(delta, -1e-3 * np.sign(grads["w"]), rtol=1e-4)
        assert state.step == 1

    def test_nan_grad_names_parameter(self):
        params = {"w": np.zeros(2)}
        with pytest.raises(NumericError, match="'w'"):
            adam_step(params, {"w": np.array([np.nan, 0.0])}, AdamState())

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            adam_step({"w": np.zeros(2)}, {"w": np.zeros(3)}, AdamState())


class TestFiniteDiff:
    def test_quadratic(self, rng):
        params = {"p": rng.standard_normal(5)}
        grad = finite_diff_grad(lambda ps: float(np.sum(ps["p"] ** 2)), params)
        np.testing.assert_allclose(grad["p"], 2 * params["p"], atol=1e-8)

    def test_constant(self):
        grad = finite_diff_grad(lambda ps: 3.0, {"p": np.ones(4)})
        np.testing.assert_array_equal(grad["p"], np.zeros(4))

    def test_linear_exact(self, rng):
        c = rng.standard_normal(6)
        params = {"p": rng.standard_normal(6)}
        grad = finite_diff_grad(lambda ps: float(c @ ps["p"]), params)
        np.testing.assert_allclose(grad["p"], c, atol=1e-10)
