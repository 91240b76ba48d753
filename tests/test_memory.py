"""Peak allocations of the bulk kernels, measured with tracemalloc.

Wide sums are evaluated chunk by chunk, so their temporaries stay a few
chunks in size whatever the input size; a kernel that builds even one
temporary as large as its input fails these bounds. A Distribution the
library builds is its one full-size allocation.
"""

import tracemalloc

import numpy as np
import pytest

from entrokit import DeformParams, Distribution, conditional_entropy, conditional_entropy3
from entrokit import divergence, fd_hessian, make_channel, make_distribution, make_joint2
from entrokit import make_joint3, mutual_divergence, product

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


def test_conditional_entropy_that_moves_an_axis_stays_below_4_mib():
    # the (T, X, Z, Y) view of a C-ordered joint cannot be reshaped to
    # (T, XZ, Y) without a copy: only one block at a time is copied
    t = make_joint3(_simplex(np.random.default_rng(4), 128, 128, 128))
    assert _peak_mib(lambda: conditional_entropy3(t, PARAMS, "Y_given_XZ")) < 4


@pytest.fixture(scope="module")
def joint_1024():
    return make_joint2(_simplex(np.random.default_rng(5), 1024, 1024))


@pytest.mark.parametrize("build", [
    lambda j: product(j.marginal(0), j.marginal(1)),
    lambda j: make_joint2(j.p, normalize=True),
    lambda j: make_channel(j.p, normalize=True),
], ids=["product", "make_joint2", "make_channel"])
def test_a_built_result_is_allocated_once(joint_1024, build):
    # the 8 MiB array built is frozen in place, not copied again
    assert _peak_mib(lambda: build(joint_1024)) < 9


def test_mutual_divergence_stays_below_12_mib(joint_1024):
    # the 8 MiB product of the marginals, and the divergence's chunks
    assert _peak_mib(lambda: mutual_divergence(joint_1024, PARAMS)) < 12


def _read_only(a):
    a.setflags(write=False)
    return a


@pytest.mark.parametrize("make", [
    lambda: np.full(4, 0.25),
    lambda: _read_only(np.full(8, 0.25)[::2]),
    lambda: _read_only(np.full(4, 0.25)),
], ids=["writeable", "read-only-view", "read-only-owner"])
def test_distribution_never_shares_a_callers_array(make):
    a = make()
    d = Distribution(a)
    assert not np.shares_memory(d.p, a) and not d.p.flags.writeable


def test_fd_hessian_memory_is_bounded_by_its_blocks():
    # n = 48 has 4609 stencil rows of 48 cells: built at once, their terms
    # and the list math.fsum reads take about 12.5 MiB
    e = np.random.default_rng(3).exponential(size=48)
    p = make_distribution(0.5 * e / e.sum() + 0.5 / 48)
    assert _peak_mib(lambda: fd_hessian(p, PARAMS)) < 10
