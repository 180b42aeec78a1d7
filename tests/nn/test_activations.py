"""Tests for activation layers."""
import numpy as np
import pytest

from repro.nn import Identity, LeakyReLU, ReLU, Sigmoid, Softplus, Tanh, get_activation
from repro.nn.layers.activations import stable_sigmoid

from tests.gradcheck import check_layer_gradients


@pytest.fixture()
def gen():
    return np.random.default_rng(7)


def test_relu_forward():
    layer = ReLU()
    output = layer.forward(np.array([-2.0, -0.5, 0.0, 0.5, 2.0]))
    assert np.allclose(output, [0.0, 0.0, 0.0, 0.5, 2.0])


def test_relu_backward_masks_negative():
    layer = ReLU()
    layer.forward(np.array([-1.0, 1.0]))
    grad = layer.backward(np.array([5.0, 5.0]))
    assert np.allclose(grad, [0.0, 5.0])


def test_leaky_relu_forward_and_backward():
    layer = LeakyReLU(negative_slope=0.1)
    output = layer.forward(np.array([-2.0, 3.0]))
    assert np.allclose(output, [-0.2, 3.0])
    grad = layer.backward(np.array([1.0, 1.0]))
    assert np.allclose(grad, [0.1, 1.0])


def test_leaky_relu_rejects_negative_slope():
    with pytest.raises(ValueError):
        LeakyReLU(negative_slope=-0.1)


def test_sigmoid_range_and_midpoint():
    layer = Sigmoid()
    output = layer.forward(np.array([-100.0, 0.0, 100.0]))
    assert output[0] == pytest.approx(0.0, abs=1e-30)
    assert output[1] == pytest.approx(0.5)
    assert output[2] == pytest.approx(1.0)


def test_stable_sigmoid_no_overflow():
    values = stable_sigmoid(np.array([-1000.0, 1000.0]))
    assert np.all(np.isfinite(values))
    assert values[0] == pytest.approx(0.0, abs=1e-12)
    assert values[1] == pytest.approx(1.0, abs=1e-12)


def two_branch_sigmoid(x):
    """The boolean-mask formulation ``stable_sigmoid`` must match bitwise."""
    out = np.empty_like(x, dtype=np.float64)
    positive = x >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-x[positive]))
    exp_x = np.exp(x[~positive])
    out[~positive] = exp_x / (1.0 + exp_x)
    return out


def test_stable_sigmoid_is_bitwise_the_two_branch_formula(gen):
    nans = np.array(
        [0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000123],
        dtype=np.uint64,
    ).view(np.float64)
    special = np.array(
        [0.0, -0.0, np.inf, -np.inf, 800.0, -800.0, 709.8, -745.2, 1e-300, -1e-300]
    )
    values = np.concatenate([nans, special, gen.normal(scale=20.0, size=5000)])
    expected = two_branch_sigmoid(values).view(np.uint64)
    assert np.array_equal(stable_sigmoid(values).view(np.uint64), expected)
    grid = values[-4000:].reshape(40, 100)
    assert np.array_equal(
        stable_sigmoid(grid).view(np.uint64), two_branch_sigmoid(grid).view(np.uint64)
    )


def test_sigmoid_backward_keeps_the_multiply_order(gen):
    layer = Sigmoid()
    output = layer.forward(gen.normal(scale=4.0, size=(6, 7)))
    grad_output = gen.normal(size=(6, 7))
    expected = grad_output * output * (1.0 - output)
    grad = layer.backward(grad_output)
    assert np.array_equal(grad.view(np.uint64), expected.view(np.uint64))


def test_tanh_matches_numpy(gen):
    layer = Tanh()
    inputs = gen.normal(size=(4, 5))
    assert np.allclose(layer.forward(inputs), np.tanh(inputs))


def test_softplus_positive_and_asymptotic(gen):
    layer = Softplus()
    inputs = np.array([-50.0, 0.0, 50.0])
    output = layer.forward(inputs)
    assert np.all(output > 0)
    assert output[2] == pytest.approx(50.0, rel=1e-6)


def test_identity_passthrough(gen):
    layer = Identity()
    inputs = gen.normal(size=(3, 3))
    assert np.allclose(layer.forward(inputs), inputs)
    assert np.allclose(layer.backward(inputs), inputs)


@pytest.mark.parametrize("cls", [ReLU, LeakyReLU, Sigmoid, Tanh, Softplus])
def test_gradients_match_numerical(cls, gen):
    layer = cls()
    # Avoid the ReLU kink at exactly zero by shifting inputs away from it.
    inputs = gen.normal(size=(4, 6)) + 0.05
    check_layer_gradients(layer, inputs, (4, 6), gen, atol=1e-5)


def test_get_activation_registry():
    assert isinstance(get_activation("relu"), ReLU)
    assert isinstance(get_activation("TANH"), Tanh)
    with pytest.raises(KeyError):
        get_activation("swishy")


def test_backward_before_forward_raises():
    with pytest.raises(RuntimeError):
        ReLU().backward(np.ones(3))
