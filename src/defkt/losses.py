"""Soft predictions, cross-entropy, KL divergence, and the mutual-transfer loss.

Probability matrices are (B, C) float64 arrays with rows summing to 1;
labels are (B,) integers in 1..C. Every loss supports "sum" and "mean"
batch reduction; mean is the package default. Log arguments are clamped
below at 1e-12 so saturated softmax outputs never produce -inf.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError

LOG_CLAMP = 1e-12


def _batch_divisor(reduction: str, batch_size: int) -> int:
    """Divisor of a batch-summed loss and of its logit gradient: 1 for "sum", B for "mean"."""
    if reduction == "sum":
        return 1
    if reduction == "mean":
        return batch_size
    raise ValueError(f"unknown reduction {reduction!r}; expected 'sum' or 'mean'")


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax, stabilized by subtracting each row's maximum."""
    logits = np.asarray(logits, dtype=np.float64)
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def _label_columns(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """0-based column of each label; a label outside 1..C would silently wrap, so it is rejected."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.min() < 1 or labels.max() > num_classes:
        raise ConfigurationError(f"labels must lie in 1..{num_classes}")
    return labels - 1


def _one_hot_rows(labels: np.ndarray, num_classes: int) -> np.ndarray:
    columns = _label_columns(labels, num_classes)
    rows = np.zeros((columns.shape[0], num_classes), dtype=np.float64)
    rows[np.arange(columns.shape[0]), columns] = 1.0
    return rows


def cross_entropy(probs: np.ndarray, labels: np.ndarray, reduction: str = "mean") -> float:
    """-sum_z log p_z[y_z], reduced over the batch."""
    probs = np.asarray(probs, dtype=np.float64)
    picked = probs[np.arange(probs.shape[0]), _label_columns(labels, probs.shape[1])]
    per_sample = -np.log(np.maximum(picked, LOG_CLAMP))
    return float(per_sample.sum() / _batch_divisor(reduction, per_sample.shape[0]))


def kl_divergence(target_probs: np.ndarray, probs: np.ndarray, reduction: str = "mean") -> float:
    """D_KL(target || probs) per sample, reduced over the batch.

    The target distribution is a constant: no gradient is ever taken
    through it.
    """
    target_probs = np.asarray(target_probs, dtype=np.float64)
    probs = np.asarray(probs, dtype=np.float64)
    log_ratio = np.log(np.maximum(target_probs, LOG_CLAMP)) - np.log(np.maximum(probs, LOG_CLAMP))
    per_sample = (target_probs * log_ratio).sum(axis=1)
    return float(per_sample.sum() / _batch_divisor(reduction, per_sample.shape[0]))


def mutual_loss_1(
    p_self: np.ndarray, p_other: np.ndarray, labels: np.ndarray, reduction: str = "mean"
) -> float:
    """Cross-entropy of p_self against labels plus D_KL(p_other || p_self).

    p_other is a detached target: the model that produced it receives no
    gradient from this loss.
    """
    return cross_entropy(p_self, labels, reduction) + kl_divergence(p_other, p_self, reduction)


def mutual_loss_grad_logits(
    p_self: np.ndarray, p_other: np.ndarray, labels: np.ndarray, reduction: str = "mean"
) -> np.ndarray:
    """Gradient of mutual_loss_1 with respect to the logits behind p_self.

    Closed form per sample: 2*p_self - h(y) - p_other, scaled by 1/B under
    mean reduction. Verified against finite differences in the test suite.
    """
    p_self = np.asarray(p_self, dtype=np.float64)
    p_other = np.asarray(p_other, dtype=np.float64)
    grad = 2.0 * p_self - _one_hot_rows(labels, p_self.shape[1]) - p_other
    return grad / _batch_divisor(reduction, grad.shape[0])


def cross_entropy_grad_logits(
    probs: np.ndarray, labels: np.ndarray, reduction: str = "mean"
) -> np.ndarray:
    """Gradient of cross_entropy with respect to the logits behind probs: p - h(y)."""
    probs = np.asarray(probs, dtype=np.float64)
    grad = probs - _one_hot_rows(labels, probs.shape[1])
    return grad / _batch_divisor(reduction, grad.shape[0])
