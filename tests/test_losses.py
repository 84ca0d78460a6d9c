"""Loss tests: closed forms, identities, and the finite-difference gradient oracle."""

import math

import numpy as np
import pytest

from defkt.errors import InputError
from defkt.losses import (
    cross_entropy,
    cross_entropy_grad_logits,
    kl_divergence,
    mutual_loss_1,
    mutual_loss_grad_logits,
    one_hot,
    softmax,
)

from oracles import relative_error


class TestSoftmax:
    def test_zero_row_is_uniform(self):
        probs = softmax(np.zeros((1, 10)))
        np.testing.assert_allclose(probs, 0.1, rtol=0, atol=1e-15)

    def test_large_shifted_closed_form(self):
        # exp(0) : exp(ln 2) = 1 : 2 regardless of the common offset 1000
        probs = softmax(np.array([[1000.0, 1000.0 + math.log(2.0)]]))
        np.testing.assert_allclose(probs, [[1.0 / 3.0, 2.0 / 3.0]], rtol=0, atol=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(0)
        logits = rng.standard_normal((5, 7))
        np.testing.assert_allclose(softmax(logits + 3.25), softmax(logits), atol=1e-14)

    def test_rows_sum_to_one_and_positive(self):
        rng = np.random.default_rng(1)
        logits = rng.standard_normal((100, 6)) * 500.0
        probs = softmax(logits)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(probs >= 0.0)
        assert np.all(probs.max(axis=1) > 0.0)


class TestOneHot:
    def test_first_position(self):
        np.testing.assert_array_equal(one_hot(1, 3), [1.0, 0.0, 0.0])

    def test_last_position(self):
        np.testing.assert_array_equal(one_hot(3, 3), [0.0, 0.0, 1.0])

    def test_sums_to_one(self):
        for c in range(1, 8):
            assert one_hot(c, 7).sum() == 1.0

    def test_out_of_range_rejected(self):
        with pytest.raises(InputError):
            one_hot(0, 3)
        with pytest.raises(InputError):
            one_hot(4, 3)


class TestCrossEntropy:
    def test_perfect_prediction_is_zero(self):
        probs = np.array([[0.0, 1.0, 0.0]])
        assert cross_entropy(probs, np.array([2])) == 0.0

    def test_uniform_ten_classes_is_log_ten(self):
        probs = np.full((1, 10), 0.1)
        assert abs(cross_entropy(probs, np.array([4])) - math.log(10.0)) < 1e-12

    def test_reduction_semantics(self):
        probs = np.array([[0.5, 0.5], [0.25, 0.75]])
        labels = np.array([1, 2])
        a = -math.log(0.5)
        b = -math.log(0.75)
        assert abs(cross_entropy(probs, labels, "sum") - (a + b)) < 1e-12
        assert abs(cross_entropy(probs, labels, "mean") - (a + b) / 2) < 1e-12

    def test_nonnegative(self):
        rng = np.random.default_rng(2)
        probs = softmax(rng.standard_normal((50, 5)))
        labels = rng.integers(1, 6, 50)
        assert cross_entropy(probs, labels, "sum") >= 0.0

    def test_unknown_reduction_rejected(self):
        with pytest.raises(ValueError):
            cross_entropy(np.array([[1.0, 0.0]]), np.array([1]), "median")


class TestKlDivergence:
    def test_identical_distributions_give_exact_zero(self):
        probs = softmax(np.random.default_rng(3).standard_normal((8, 4)))
        assert kl_divergence(probs, probs) == 0.0

    def test_closed_form(self):
        target = np.array([[0.5, 0.5]])
        probs = np.array([[0.25, 0.75]])
        expected = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)  # ~0.14384
        assert abs(kl_divergence(target, probs) - expected) < 1e-12

    def test_nonnegative_on_random_pairs(self):
        rng = np.random.default_rng(4)
        for _ in range(1000):
            p = softmax(rng.standard_normal((1, 6)) * 3)
            q = softmax(rng.standard_normal((1, 6)) * 3)
            assert kl_divergence(p, q) >= -1e-12


class TestMutualLosses:
    def test_equal_predictions_reduce_to_cross_entropy(self):
        probs = softmax(np.random.default_rng(5).standard_normal((4, 3)))
        labels = np.array([1, 2, 3, 1])
        assert mutual_loss_1(probs, probs, labels) == pytest.approx(
            cross_entropy(probs, labels), abs=1e-15
        )

    def test_closed_form_at_uniform(self):
        probs = np.array([[0.5, 0.5]])
        assert abs(mutual_loss_1(probs, probs, np.array([1])) - math.log(2.0)) < 1e-12

    def test_additivity(self):
        rng = np.random.default_rng(6)
        p1 = softmax(rng.standard_normal((5, 4)))
        p2 = softmax(rng.standard_normal((5, 4)))
        labels = rng.integers(1, 5, 5)
        expected = cross_entropy(p1, labels) + kl_divergence(p2, p1)
        assert abs(mutual_loss_1(p1, p2, labels) - expected) < 1e-12

    def test_mirror_closed_form(self):
        probs = np.array([[0.25, 0.75]])
        assert abs(mutual_loss_1(probs, probs, np.array([2])) - (-math.log(0.75))) < 1e-12

    def test_pair_sum_dominates_cross_entropies(self):
        rng = np.random.default_rng(8)
        p1 = softmax(rng.standard_normal((6, 5)))
        p2 = softmax(rng.standard_normal((6, 5)))
        labels = rng.integers(1, 6, 6)
        lhs = mutual_loss_1(p1, p2, labels) + mutual_loss_1(p2, p1, labels)
        rhs = cross_entropy(p1, labels) + cross_entropy(p2, labels)
        assert lhs >= rhs - 1e-12

    def test_batch_permutation_equivariance(self):
        rng = np.random.default_rng(9)
        p1 = softmax(rng.standard_normal((7, 4)))
        p2 = softmax(rng.standard_normal((7, 4)))
        labels = rng.integers(1, 5, 7)
        perm = rng.permutation(7)
        for reduction in ("sum", "mean"):
            assert mutual_loss_1(p1, p2, labels, reduction) == pytest.approx(
                mutual_loss_1(p1[perm], p2[perm], labels[perm], reduction), abs=1e-12
            )


class TestMutualLossGradient:
    def test_zero_at_joint_optimum(self):
        # p_self = p_other = one-hot(label) makes 2p - h - q vanish
        probs = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
        labels = np.array([2, 1])
        np.testing.assert_array_equal(mutual_loss_grad_logits(probs, probs, labels), 0.0)

    def test_row_sums_are_zero(self):
        rng = np.random.default_rng(10)
        p1 = softmax(rng.standard_normal((6, 5)))
        p2 = softmax(rng.standard_normal((6, 5)))
        labels = rng.integers(1, 6, 6)
        grad = mutual_loss_grad_logits(p1, p2, labels, "sum")
        np.testing.assert_allclose(grad.sum(axis=1), 0.0, atol=1e-12)

    @pytest.mark.parametrize("reduction", ["sum", "mean"])
    def test_matches_finite_differences_through_softmax(self, reduction):
        rng = np.random.default_rng(11)
        logits = rng.standard_normal((4, 5))
        p_other = softmax(rng.standard_normal((4, 5)))
        labels = rng.integers(1, 6, 4)
        grad = mutual_loss_grad_logits(softmax(logits), p_other, labels, reduction)
        h = 1e-6
        for i in range(4):
            for j in range(5):
                zp = logits.copy()
                zm = logits.copy()
                zp[i, j] += h
                zm[i, j] -= h
                fd = (
                    mutual_loss_1(softmax(zp), p_other, labels, reduction)
                    - mutual_loss_1(softmax(zm), p_other, labels, reduction)
                ) / (2 * h)
                assert relative_error(grad[i, j], fd) < 1e-4


class TestCrossEntropyGradient:
    def test_matches_finite_differences_through_softmax(self):
        rng = np.random.default_rng(12)
        logits = rng.standard_normal((3, 4))
        labels = rng.integers(1, 5, 3)
        grad = cross_entropy_grad_logits(softmax(logits), labels, "mean")
        h = 1e-6
        for i in range(3):
            for j in range(4):
                zp = logits.copy()
                zm = logits.copy()
                zp[i, j] += h
                zm[i, j] -= h
                fd = (
                    cross_entropy(softmax(zp), labels, "mean")
                    - cross_entropy(softmax(zm), labels, "mean")
                ) / (2 * h)
                assert relative_error(grad[i, j], fd) < 1e-4
