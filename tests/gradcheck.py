"""Finite-difference gradient oracle for the tape, shared by the test modules."""

import numpy as np

from ktnext import autodiff as ad


def check_gradients(build_loss, leaves, rng, samples: int = 8, step: float = 1e-6) -> float:
    """Central finite differences on a random coordinate subsample.

    build_loss must rebuild the graph from the leaves' current values.
    Returns the worst relative error over all probed coordinates; complex
    leaves are probed on real and imaginary parts separately.  A central
    difference of a loss L carries ~eps*|L|/step of cancellation noise, so
    coordinates where analytic and numeric values agree within that
    resolution count as exact (a hard data-consistency layer makes some
    directions genuinely dead, with both values at roundoff level).

    Leaves must be float64 or complex128: at step 1e-6 a float32 difference
    is mostly roundoff, so a single-precision leaf raises TypeError.
    """
    for leaf in leaves:
        if leaf.value.dtype not in (np.float64, np.complex128):
            raise TypeError(f"finite differences need float64 leaves, got {leaf.value.dtype}")
        leaf.grad = None
    loss = build_loss()
    ad.backward(loss)
    fd_floor = 50.0 * np.finfo(float).eps * max(1.0, abs(float(loss.value))) / step
    analytic = []
    for leaf in leaves:
        g = leaf.grad if leaf.grad is not None else np.zeros_like(leaf.value)
        analytic.append(g.copy())

    def probe(value, idx, unit):
        orig = value[idx]
        value[idx] = orig + step * unit
        up = float(build_loss().value)
        value[idx] = orig - step * unit
        down = float(build_loss().value)
        value[idx] = orig
        return (up - down) / (2.0 * step)

    worst = 0.0
    for leaf, ana in zip(leaves, analytic):
        flat_n = leaf.value.size
        count = min(samples, flat_n)
        chosen = rng.choice(flat_n, size=count, replace=False)
        for flat_idx in chosen:
            idx = np.unravel_index(int(flat_idx), leaf.value.shape)
            if np.iscomplexobj(leaf.value):
                num = probe(leaf.value, idx, 1.0) + 1j * probe(leaf.value, idx, 1.0j)
            else:
                num = probe(leaf.value, idx, 1.0)
            a = ana[idx]
            if abs(num - a) <= fd_floor:
                continue
            rel = abs(num - a) / max(abs(a), abs(num), 1e-6)
            worst = max(worst, rel)
    return worst
