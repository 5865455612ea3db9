"""Finite-difference gradient oracle for the tape, shared by the test modules."""

import numpy as np

from ktnext import autodiff as ad


def check_gradients(build_loss, leaves, rng, samples: int = 8, step: float = 1e-6):
    """Central finite differences on a random coordinate subsample.

    build_loss must rebuild the graph from the leaves' current values.
    Complex leaves are probed on real and imaginary parts separately.  A
    central difference of a loss L carries ~eps*|L|/step of cancellation
    noise, so coordinates where analytic and numeric values agree within
    that resolution (fd_floor) count as exact (a hard data-consistency layer
    makes some directions genuinely dead, with both values at roundoff level).

    Returns (worst, resolved), two relative errors.  worst is the pass
    figure: the largest over all probed coordinates, with those that agree
    within fd_floor counted as 0.  resolved is the figure to report: the
    largest over the coordinates whose analytic or numeric value exceeds
    fd_floor, however closely they agree, so it shows the margin to a
    tolerance; it is 0 when no probed value exceeds the floor.

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

    worst = resolved = 0.0
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
            rel = abs(num - a) / max(abs(a), abs(num), 1e-6)
            if max(abs(a), abs(num)) > fd_floor:
                resolved = max(resolved, rel)
            if abs(num - a) > fd_floor:
                worst = max(worst, rel)
    return worst, resolved
