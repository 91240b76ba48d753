"""Peak allocations of the bulk kernels, measured with tracemalloc.

Wide sums are evaluated chunk by chunk, so their temporaries stay a few
chunks in size whatever the input size; a kernel that builds even one
temporary as large as its 8 MiB input fails these bounds.
"""

import tracemalloc

import numpy as np
import pytest

from entrokit import DeformParams, conditional_entropy, divergence, fd_hessian
from entrokit import make_distribution, make_joint2

PARAMS = DeformParams(0.25, 1.0)
MIB = 1 << 20


def _peak_mib(f) -> float:
    """MiB allocated at the peak of f(), beyond what was allocated before."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        f()
        return (tracemalloc.get_traced_memory()[1] - base) / MIB
    finally:
        tracemalloc.stop()


def _simplex(rng, *shape):
    e = rng.exponential(size=shape)
    return e / e.sum()


@pytest.mark.parametrize("k", [0.25, 0.5])
def test_divergence_of_a_million_cells_stays_below_4_mib(k):
    rng = np.random.default_rng(1)
    p, q = make_distribution(_simplex(rng, 1 << 20)), make_distribution(_simplex(rng, 1 << 20))
    assert _peak_mib(lambda: divergence(p, q, DeformParams(k, 1.0))) < 4


def test_conditional_entropy_of_a_1024_square_joint_stays_below_4_mib():
    j = make_joint2(_simplex(np.random.default_rng(2), 1024, 1024))
    assert _peak_mib(lambda: conditional_entropy(j, PARAMS, "Y_given_X")) < 4


def test_fd_hessian_memory_is_bounded_by_its_blocks():
    # n = 48 has 4609 stencil rows of 48 cells: built at once, their terms
    # and the list math.fsum reads take about 12.5 MiB
    e = np.random.default_rng(3).exponential(size=48)
    p = make_distribution(0.5 * e / e.sum() + 0.5 / 48)
    assert _peak_mib(lambda: fd_hessian(p, PARAMS)) < 10
