"""Peak allocations of the bulk kernels, measured with tracemalloc.

Wide sums are evaluated run by run, so their temporaries stay a few runs
in size whatever the input size or layout; a kernel that builds even one
temporary as large as its input fails these bounds. A Distribution, the
copy of a caller's array or an array the library builds, and the output of
a deformed logarithm are their one full-size allocation.
"""

import tracemalloc

import numpy as np
import pytest

from entrokit import Channel, DeformParams, Distribution, conditional_entropy
from entrokit import conditional_entropy3
from entrokit import divergence, divergence_literal, entropy, entropy_literal, fd_hessian
from entrokit import kl_divergence, legacy_Ln, ln_kr, ln_q, make_channel, make_distribution
from entrokit import make_joint2, make_joint3, mutual_divergence, product, shannon_entropy
from entrokit import tsallis_divergence, tsallis_entropy

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


@pytest.mark.parametrize("kernel", [
    lambda p, q: divergence(p, q, PARAMS),
    kl_divergence,
    lambda p, q: divergence_literal(p, q, PARAMS),
    lambda p, q: tsallis_divergence(p, q, 0.5),
], ids=["divergence", "kl", "literal", "tsallis"])
def test_divergence_of_a_fortran_ordered_pair_stays_below_4_mib(kernel):
    # the pair is stored in C order, so each run of cells is a view
    rng = np.random.default_rng(12)
    p, q = (make_joint2(np.asfortranarray(_simplex(rng, 1024, 1024))) for _ in range(2))
    assert _peak_mib(lambda: kernel(p, q)) < 4


@pytest.mark.parametrize("spec", ["Y_given_X", "X_given_Y"])
def test_conditional_entropy_of_a_1024_square_joint_stays_below_4_mib(spec):
    # X_given_Y's rows are strided: each block of them is copied alone
    j = make_joint2(_simplex(np.random.default_rng(2), 1024, 1024))
    assert _peak_mib(lambda: conditional_entropy(j, PARAMS, spec)) < 4


def test_conditional_entropy_that_moves_an_axis_stays_below_4_mib():
    # the (T, X, Z, Y) view of a C-ordered joint cannot be reshaped to
    # (T, XZ, Y) without a copy: only one block at a time is copied
    t = make_joint3(_simplex(np.random.default_rng(4), 128, 128, 128))
    assert _peak_mib(lambda: conditional_entropy3(t, PARAMS, "Y_given_XZ")) < 4


@pytest.fixture(scope="module")
def joint_1024():
    return make_joint2(_simplex(np.random.default_rng(5), 1024, 1024))


@pytest.fixture(scope="module")
def fortran_1024(joint_1024):
    return np.asfortranarray(joint_1024.p)


@pytest.mark.parametrize("build", [
    lambda j, f: product(j.marginal(0), j.marginal(1)),
    lambda j, f: make_joint2(j.p, normalize=True),
    lambda j, f: make_channel(j.p, normalize=True),
    lambda j, f: j.marginal(1, 0),
    lambda j, f: make_joint2(f, normalize=True),
    lambda j, f: make_channel(f, normalize=True),
], ids=["product", "make_joint2", "make_channel", "marginal-transposed", "make_joint2-fortran",
        "make_channel-fortran"])
def test_a_built_result_is_allocated_once(joint_1024, fortran_1024, build):
    # the 8 MiB array is built C-ordered and frozen in place, not copied again
    built = []
    assert _peak_mib(lambda: built.append(build(joint_1024, fortran_1024))) < 9
    assert (built[0].w if isinstance(built[0], Channel) else built[0].p).flags.c_contiguous


def test_mutual_divergence_stays_below_4_mib(joint_1024):
    # the product of the marginals is made one run at a time, never whole
    assert _peak_mib(lambda: mutual_divergence(joint_1024, PARAMS)) < 4


ENTROPIES = [
    lambda p: entropy(p, PARAMS),
    shannon_entropy,
    lambda p: entropy_literal(p, PARAMS),
]


@pytest.mark.parametrize("kernel", ENTROPIES, ids=["entropy", "shannon", "literal"])
def test_entropy_of_a_million_positive_cells_stays_below_1_mib(kernel):
    p = make_distribution(_simplex(np.random.default_rng(6), 1 << 20))
    assert _peak_mib(lambda: kernel(p)) < 1


def test_tsallis_entropy_of_a_million_cells_stays_below_2_mib():
    p = make_distribution(_simplex(np.random.default_rng(6), 1 << 20))
    assert _peak_mib(lambda: tsallis_entropy(p, 1.5)) < 2


@pytest.mark.parametrize("kernel", ENTROPIES, ids=["entropy", "shannon", "literal"])
def test_entropy_with_zero_cells_allocates_one_compressed_copy(kernel):
    w = _simplex(np.random.default_rng(7), 1 << 20)
    w[::5] = 0.0
    p = make_distribution(w / w.sum())
    copy = np.count_nonzero(p.p) * 8 / MIB  # the positive cells, in C order
    assert _peak_mib(lambda: kernel(p)) < copy + 2


@pytest.mark.parametrize("spec", ["YZ_given_X", "ZY_given_X"])
def test_conditional_entropy_of_long_rows_stays_below_1_mib(spec):
    # each row has 2^18 cells: it is summed run by run, as a view
    # (YZ_given_X) or as copies of one run at a time (ZY_given_X)
    t = make_joint3(_simplex(np.random.default_rng(8), 2, 512, 512))
    assert _peak_mib(lambda: conditional_entropy(t, PARAMS, spec)) < 1


def test_ln_kr_of_a_million_points_allocates_its_output_and_under_1_mib():
    x = np.exp(np.random.default_rng(9).uniform(-12.0, 12.0, 1 << 20))
    assert _peak_mib(lambda: ln_kr(x, PARAMS)) < 8 + 1


@pytest.mark.parametrize("log", [
    lambda x: ln_q(x, 1.5),
    lambda x: legacy_Ln(x, PARAMS, warn_outside_region=False),
], ids=["ln_q", "legacy_Ln"])
def test_every_deformed_log_of_a_million_points_allocates_its_output_and_under_1_mib(log):
    # ln_q and legacy_Ln go through ln_kr's evaluator, one block at a time
    x = np.exp(np.random.default_rng(9).uniform(-12.0, 12.0, 1 << 20))
    assert _peak_mib(lambda: log(x)) < 8 + 1


def test_a_million_cells_are_copied_and_checked_in_one_allocation():
    a = _simplex(np.random.default_rng(10), 1 << 20)
    assert _peak_mib(lambda: make_distribution(a)) < 8 + 1


@pytest.mark.parametrize("layout", [lambda a: np.asfortranarray(a[:, ::2]), lambda a: a[:, ::2].T],
                         ids=["fortran", "strided-transposed"])
def test_a_distribution_of_a_non_c_array_is_copied_once(layout):
    # the array is copied once into C order, whose rows the check sums as views
    w = np.random.default_rng(11).exponential(size=(1024, 2048))
    a = layout(w / w[:, ::2].sum())
    assert _peak_mib(lambda: make_joint2(a)) < 8 + 1


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


def test_fd_hessian_memory_is_a_few_times_its_output():
    # at n = 256 the Hessian is 0.5 MiB; its two term vectors and the
    # n(n - 1)/2 pair sums add a few times that, never n^2 rows of terms
    e = np.random.default_rng(3).exponential(size=256)
    p = make_distribution(0.5 * e / e.sum() + 0.5 / 256)
    assert _peak_mib(lambda: fd_hessian(p, PARAMS)) < 4
