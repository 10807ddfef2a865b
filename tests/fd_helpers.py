"""Adapters and a reference for ``verification.numerical_gradient``,
whose ``f`` takes a stack of inputs and returns one value per row."""

import numpy as np


def per_row(f):
    """Lift a scalar function of one array to a stack of arrays, one call
    per row."""
    return lambda stack: np.array([f(x) for x in stack])


def numerical_gradient_per_entry(f, x0, h):
    """Central differences with one scalar call of ``f`` per perturbed
    input, two per entry: the form ``numerical_gradient`` batches, kept to
    check that it returns the same bits."""
    g = np.zeros_like(x0, dtype=np.float64)
    flat = x0.ravel()
    for k in range(flat.size):
        xp = x0.copy()
        xm = x0.copy()
        xp.ravel()[k] += h
        xm.ravel()[k] -= h
        g.ravel()[k] = (f(xp) - f(xm)) / (2.0 * h)
    return g
