"""Gradient correctness tests for the autograd engine.

Every differentiable operation is checked against central finite differences
via :func:`repro.tensor.check_gradients`.
"""

import numpy as np
import pytest

from repro.tensor import Tensor, check_gradients, no_grad, is_grad_enabled
from repro.tensor.random import RandomState


@pytest.fixture
def rng():
    return RandomState(42)


def _leaf(rng, *shape):
    return Tensor(rng.normal(size=shape), requires_grad=True)


class TestBasicGradients:
    def test_add_mul(self, rng):
        a, b = _leaf(rng, 3, 4), _leaf(rng, 3, 4)
        check_gradients(lambda: ((a + b) * (a * 2.0)).sum(), [a, b])

    def test_sub_div(self, rng):
        a, b = _leaf(rng, 5), _leaf(rng, 5)
        b.data = np.abs(b.data) + 1.0
        check_gradients(lambda: ((a - b) / b).sum(), [a, b])

    def test_pow_sqrt(self, rng):
        a = _leaf(rng, 4)
        a.data = np.abs(a.data) + 0.5
        check_gradients(lambda: ((a ** 3) + a.sqrt()).sum(), [a])

    def test_exp_log(self, rng):
        a = _leaf(rng, 6)
        a.data = np.abs(a.data) + 0.5
        check_gradients(lambda: (a.exp() + a.log()).sum(), [a])

    def test_tanh_sigmoid_relu(self, rng):
        a = _leaf(rng, 3, 3)
        check_gradients(lambda: (a.tanh() + a.sigmoid() + a.relu()).sum(), [a])

    def test_abs_away_from_zero(self, rng):
        a = _leaf(rng, 5)
        a.data = a.data + np.sign(a.data) * 0.5
        check_gradients(lambda: a.abs().sum(), [a])

    def test_clip_interior(self, rng):
        a = Tensor(np.array([-0.5, 0.2, 0.7]), requires_grad=True)
        check_gradients(lambda: (a.clip(-1.0, 1.0) * 2.0).sum(), [a])

    def test_neg(self, rng):
        a = _leaf(rng, 4)
        check_gradients(lambda: (-a).sum(), [a])


class TestMatmulGradients:
    def test_matmul_2d(self, rng):
        a, b = _leaf(rng, 3, 4), _leaf(rng, 4, 2)
        check_gradients(lambda: a.matmul(b).sum(), [a, b])

    def test_matmul_chained(self, rng):
        a, b, c = _leaf(rng, 2, 3), _leaf(rng, 3, 3), _leaf(rng, 3, 2)
        check_gradients(lambda: (a @ b @ c).tanh().sum(), [a, b, c])


class TestReductionGradients:
    def test_sum_axis(self, rng):
        a = _leaf(rng, 3, 4)
        check_gradients(lambda: (a.sum(axis=1) ** 2).sum(), [a])

    def test_mean_axes(self, rng):
        a = _leaf(rng, 2, 3, 4)
        check_gradients(lambda: (a.mean(axis=(0, 2)) ** 2).sum(), [a])

    def test_var(self, rng):
        a = _leaf(rng, 4, 5)
        check_gradients(lambda: a.var(axis=0).sum(), [a])

    def test_max(self, rng):
        a = _leaf(rng, 4, 5)
        check_gradients(lambda: a.max(axis=1).sum(), [a])


class TestShapeGradients:
    def test_reshape_transpose(self, rng):
        a = _leaf(rng, 2, 6)
        check_gradients(lambda: (a.reshape(3, 4).transpose() * 2.0).sum(), [a])

    def test_getitem(self, rng):
        a = _leaf(rng, 4, 4)
        check_gradients(lambda: (a[1:3, :2] ** 2).sum(), [a])

    def test_pad2d(self, rng):
        a = _leaf(rng, 1, 2, 3, 3)
        check_gradients(lambda: (a.pad2d(1) ** 2).sum(), [a])

    def test_stack_concat(self, rng):
        a, b = _leaf(rng, 2, 3), _leaf(rng, 2, 3)
        check_gradients(lambda: (Tensor.stack([a, b]) ** 2).sum(), [a, b])
        check_gradients(lambda: (Tensor.concatenate([a, b], axis=1) ** 2).sum(), [a, b])


class TestBroadcastGradients:
    def test_broadcast_add(self, rng):
        a = _leaf(rng, 3, 4)
        b = _leaf(rng, 4)
        check_gradients(lambda: (a + b).sum(), [a, b])

    def test_broadcast_mul_column(self, rng):
        a = _leaf(rng, 3, 4)
        b = _leaf(rng, 3, 1)
        check_gradients(lambda: (a * b).tanh().sum(), [a, b])

    def test_broadcast_scalar_tensor(self, rng):
        a = _leaf(rng, 1)
        b = _leaf(rng, 5, 2)
        check_gradients(lambda: (a * b).sum(), [a, b])


class TestGraphMechanics:
    def test_gradient_accumulates_across_uses(self):
        a = Tensor([2.0], requires_grad=True)
        out = a * a + a * 3.0
        out.backward()
        # d/da (a^2 + 3a) = 2a + 3 = 7
        assert a.grad[0] == pytest.approx(7.0)

    def test_backward_requires_scalar(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError):
            (a * 2).backward()

    def test_backward_with_explicit_gradient(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        (a * 2).backward(np.array([1.0, 1.0]))
        assert np.allclose(a.grad, [2.0, 2.0])

    def test_zero_grad(self):
        a = Tensor([1.0], requires_grad=True)
        (a * 2).backward()
        a.zero_grad()
        assert a.grad is None

    def test_no_grad_blocks_graph(self):
        a = Tensor([1.0], requires_grad=True)
        with no_grad():
            out = a * 2
        assert not out.requires_grad
        assert out._backward_fn is None

    def test_no_grad_restores_state(self):
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_with_data_is_straight_through(self):
        a = Tensor([0.3, -0.7], requires_grad=True)
        quantised = a.with_data(np.sign(a.data))
        assert np.allclose(quantised.data, [1.0, -1.0])
        (quantised * 3.0).sum().backward()
        assert np.allclose(a.grad, [3.0, 3.0])

    def test_diamond_graph(self):
        a = Tensor([1.5], requires_grad=True)
        left = a * 2.0
        right = a * 3.0
        out = (left * right).sum()  # 6 a^2 -> d/da = 12 a = 18
        out.backward()
        assert a.grad[0] == pytest.approx(18.0)

    def test_deep_chain(self, rng):
        a = Tensor([0.5], requires_grad=True)
        out = a
        for _ in range(50):
            out = out * 1.01 + 0.001
        out.sum().backward()
        assert a.grad is not None
        assert np.isfinite(a.grad).all()


def _retaining_backward(root):
    """Reverse-mode pass that keeps every intermediate ``.grad`` — the
    propagation rule of ``Tensor.backward`` before it released them."""
    ordered = root._topological_order()
    grads = {id(root): np.ones_like(root.data)}
    root._accumulate(grads[id(root)])
    for node in ordered:
        node_grad = grads.pop(id(node), None)
        if node_grad is None or node._backward_fn is None:
            continue
        node._backward_fn(node_grad)
        for parent in node._parents:
            if parent.requires_grad and parent.grad is not None:
                grads[id(parent)] = parent.grad


class TestGradientRelease:
    """``backward()`` frees each intermediate gradient once it is pushed on."""

    @staticmethod
    def _lenet_loss():
        from repro.models import CrossbarLeNet
        from repro.tensor import functional as F

        model = CrossbarLeNet(num_classes=4, image_size=8, rng=RandomState(3))
        inputs = Tensor(RandomState(4).normal(size=(6, 3, 8, 8)))
        loss = F.cross_entropy(model(inputs), np.array([0, 1, 2, 3, 0, 1]))
        return model, loss

    def test_intermediate_grads_are_released(self, rng):
        a, b = _leaf(rng, 3, 4), _leaf(rng, 4)
        hidden = (a * b).exp()
        shared = hidden + hidden * 2.0
        loss = (shared * a).sum()
        loss.backward()
        assert hidden.grad is None and shared.grad is None and loss.grad is None
        assert a.grad is not None and b.grad is not None

    def test_leaf_grads_match_retaining_pass(self):
        model, loss = self._lenet_loss()
        loss.backward()
        released = [np.array(param.grad, copy=True) for param in model.parameters()]
        model, loss = self._lenet_loss()
        _retaining_backward(loss)
        retained = [param.grad for param in model.parameters()]
        assert len(released) == len(retained) > 0
        for got, want in zip(released, retained):
            np.testing.assert_array_equal(got, want)

    def test_leaf_grads_still_accumulate_across_calls(self, rng):
        # Two passes through one intermediate: each adds d/da = 3 to the
        # leaf.  (Retaining the intermediate's gradient re-propagated the
        # first pass's share in the second, giving 9.)
        a = _leaf(rng, 5)
        hidden = a * 3.0
        hidden.sum().backward()
        hidden.sum().backward()
        np.testing.assert_array_equal(a.grad, np.full(5, 6.0))

    def test_grad_check_still_passes(self, rng):
        a, b = _leaf(rng, 3, 4), _leaf(rng, 4, 2)
        assert check_gradients(lambda: ((a @ b).tanh() * (a @ b)).sum(), [a, b])
