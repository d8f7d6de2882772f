"""Finite differences across ReLU kinks, and a negative control.

At these seeds a +-1e-5 probe of one bias straddles a ReLU kink: the central
difference then measures the mean slope across the kink and disagrees with
the tape by up to 3.4e-4. The suite re-probes exactly those coordinates with
a smaller step; the tolerance stays 1e-4.
"""

import numpy as np
import pytest

from grapy import gradcheck
from grapy.gradcheck import (FD_STEP, TOLERANCE, end_to_end_problem, fd_error,
                             tape_grads)

KINK_LEAVES = {22: "backbone.conv2.bias", 112: "backbone.conv1.bias",
               204: "backbone.conv2.bias"}


@pytest.mark.parametrize("seed", sorted(KINK_LEAVES))
def test_end_to_end_passes_where_a_probe_straddles_a_kink(seed, monkeypatch):
    build, named = end_to_end_problem(seed)
    leaves = list(named.values())
    grads = tape_grads(build, leaves)
    assert fd_error(build, leaves, grads) < TOLERANCE

    i = list(named).index(KINK_LEAVES[seed])
    kinked = ([leaves[i]], [grads[i]])
    # without the re-probe the fixed step reports the kink as a gradient error
    with monkeypatch.context() as m:
        m.setattr(gradcheck, "MIN_FD_STEP", FD_STEP)
        assert fd_error(build, *kinked) >= TOLERANCE

    # negative control: a tape gradient off by 1e-3 still fails
    for j in range(grads[i].size):
        wrong = grads[i].copy()
        wrong.flat[j] += 1e-3
        assert fd_error(build, [leaves[i]], [wrong]) >= TOLERANCE


def test_reprobe_stops_at_the_smallest_step():
    # a kink exactly at the point: every step straddles it, so the last
    # (smallest) step's central difference is the mean of the two slopes
    from grapy.tensor import Tensor, relu, weighted_sum

    x = Tensor(np.zeros(1), requires_grad=True)
    fd = gradcheck.central_diff(lambda: float(weighted_sum(relu(x), np.ones(1)).data), x.data)
    assert np.allclose(fd, 0.5)
