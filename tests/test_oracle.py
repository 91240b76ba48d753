"""The closed-form kernels against a 50-digit mpmath oracle.

Errors are counted in units in the last place (ulps) of the exact value,
over k log-uniform in [1e-4, 1/2] and probabilities log-uniform in
[1e-300, 1], the range the accuracy claims cover.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from entrokit import DeformParams, divergence, divergence_literal, entropy, entropy_literal, ln_kr
from entrokit import make_distribution, make_joint2, mutual_divergence, tsallis_divergence
from entrokit import tsallis_entropy
from entrokit.divergence import _divergence_rows, _positive_terms
from entrokit.entropy import _entropy_terms

DRAWS = 3000


def _draws(seed):
    rng = np.random.default_rng(seed)
    k = np.exp(rng.uniform(np.log(1e-4), np.log(0.5), DRAWS))
    p = 10.0 ** rng.uniform(-300.0, 0.0, DRAWS)
    return rng, k, p


def _ulps(computed: float, exact) -> float:
    return float(abs(mp.mpf(float(computed)) - exact) / np.spacing(abs(float(exact))))


def _exact_divergence_term(p, q, k):
    p, q, k = mp.mpf(float(p)), mp.mpf(float(q)), mp.mpf(float(k))
    return -p * mp.expm1(2 * k * (mp.log(q) - mp.log(p))) / (2 * k)


def test_entropy_term_within_3_ulps():
    _, k, p = _draws(0)
    terms = _entropy_terms(p, k)
    with mp.workdps(50):
        worst = max(
            _ulps(t, -mp.mpf(pi) * mp.expm1(2 * mp.mpf(ki) * mp.log(pi)) / (2 * mp.mpf(ki)))
            for t, pi, ki in zip(terms, p, k)
        )
    assert worst <= 3.0


def test_ln_kr_error_scales_with_exponent():
    # exp(-(r+k) ln x) is off by about (r+k)|ln x| ulps of its argument,
    # which over x in [1e-12, 1e12] reaches about 70 ulps
    rng, k, _ = _draws(1)
    x = 10.0 ** rng.uniform(-12.0, 12.0, DRAWS)
    r = rng.uniform(0.1, 2.0, DRAWS)
    with mp.workdps(50):
        for xi, ki, ri in zip(x, k, r):
            got = ln_kr(float(xi), DeformParams(float(ki), float(ri)))
            kk, rr, lx = mp.mpf(float(ki)), mp.mpf(float(ri)), mp.log(float(xi))
            exact = mp.expm1(2 * kk * lx) * mp.exp(-(rr + kk) * lx) / (2 * kk)
            assert _ulps(got, exact) <= 3.0 * (1.0 + (ri + ki) * abs(np.log(xi)))


# Below, a power underflows or overflows inside a closed form whose value is
# finite; the bound scales as above, with the largest exponent formed.


def test_ln_kr_where_its_power_underflows_and_its_factor_overflows():
    # e^{a ln x} underflows to 0 while expm1(b ln x) overflows: 0 * inf was
    # nan, with overflow and invalid warnings (errors under this suite)
    x, a, b = 1e300, -5.0, 6.0  # k = 3, r = 2
    got = ln_kr(x, DeformParams(3.0, 2.0, relaxed=True))
    with mp.workdps(50):
        lx = mp.log(x)
        exact = (mp.exp((a + b) * lx) - mp.exp(a * lx)) / b
        assert _ulps(got, exact) <= 3.0 * (1.0 + abs(a + b) * math.log(x))


def test_tsallis_entropy_where_a_power_underflows_and_its_factor_overflows():
    # at p = 1/4, p^600 underflows to 0 while expm1(-599 ln p) overflows
    q, cells = 600.0, (0.25, 0.75)
    got = tsallis_entropy(make_distribution(cells), q)
    with mp.workdps(50):
        exact = sum((mp.mpf(p) - mp.mpf(p) ** q) / (q - 1) for p in cells)
        assert _ulps(got, exact) <= 3.0 * (1.0 + max(q * abs(math.log(p)) for p in cells))


def test_entropy_where_p_to_the_2k_overflows():
    # at relaxed k = -0.49, expm1(2k ln p) overflows for p = 1e-320 though
    # p^{1+2k} is finite: the sum was inf, with an overflow warning
    k, p = -0.49, 1e-320
    got = entropy(make_distribution([p, 1.0 - p]), DeformParams(k, 1.0, relaxed=True)).value
    with mp.workdps(50):
        kk = mp.mpf(k)
        exact = sum(-mp.mpf(c) * mp.expm1(2 * kk * mp.log(c)) / (2 * kk) for c in (p, 1.0 - p))
        assert _ulps(got, exact) <= 3.0 * (1.0 + abs((1.0 + 2.0 * k) * math.log(p)))


def test_entropy_literal_where_its_power_underflows_under_an_infinite_logarithm():
    # at relaxed k = -0.49, p^{r+k+1} underflows to 0 for p = 1e-320 while
    # ln_{k,r}(p) overflows: the cell was 0 * inf, so the sum was nan
    k, p = -0.49, 1e-320
    got = entropy_literal(make_distribution([p, 1.0 - p]), DeformParams(k, 1.0, relaxed=True))
    with mp.workdps(50):
        kk = mp.mpf(k)
        exact = sum(-mp.mpf(c) * mp.expm1(2 * kk * mp.log(c)) / (2 * kk) for c in (p, 1.0 - p))
        assert _ulps(got, exact) <= 3.0 * (1.0 + abs((1.0 + 2.0 * k) * math.log(p)))


def test_tsallis_divergence_where_the_power_of_q_over_p_overflows():
    # at q = -1, (q/p)^2 overflows for p = 1e-300 though p ln_q(q/p) is
    # q^2 / (2p): the sum was -inf, with an overflow warning
    p = make_distribution([1e-300, 0.25, 0.75 - 1e-300])
    q = make_distribution([0.3, 0.3, 0.4])
    got = tsallis_divergence(p, q, -1.0)
    with mp.workdps(50):
        exact = sum(_exact_divergence_term(a, b, 1.0) for a, b in zip(p.p, q.p))
        largest = max(abs(2.0 * math.log(b) - math.log(a)) for a, b in zip(p.p, q.p))
        assert _ulps(got, exact) <= 3.0 * (1.0 + largest)


@pytest.mark.xfail(
    strict=True,
    reason="known defect: at q = p(1 + 1e-12) log(q) - log(p) cancels, and the "
    "divergence term is off by up to 8.1e14 ulps (9.1e-2 relative, median 1.3e14 "
    "ulps) over these draws; the kernel fix is left to its own change",
)
def test_divergence_term_near_coincidence():
    _, k, p = _draws(3)
    q = p * (1.0 + 1e-12)
    terms = _positive_terms(p, q, 2.0 * k)
    with mp.workdps(50):
        worst = max(
            _ulps(t, _exact_divergence_term(pi, qi, ki))
            for t, pi, qi, ki in zip(terms, p, q, k)
        )
    assert worst <= 3.0


@pytest.mark.parametrize("k", [0.5, 0.49, 0.4999])
def test_divergence_where_q_over_p_overflows_its_power(k):
    # (q/p)^{2k} of the cell p = 1e-320, q = 1/2 overflows at k near 1/2: the
    # sum was -inf, with an overflow warning (an error under this suite)
    p, q = make_distribution([1e-320, 1.0 - 1e-320]), make_distribution([0.5, 0.5])
    got = divergence(p, q, DeformParams(k, 1.0)).value
    j = make_joint2([[1e-320, 0.5 - 1e-320], [0.5, 0.0]])  # its product of marginals is q x q
    mutual = mutual_divergence(j, DeformParams(k, 1.0)).value
    if k == 0.5:  # the sum of p - q: 0, less than 1e-320 from the exact sum of these floats
        assert got == 0.0 and mutual == 0.0
        return
    with mp.workdps(50):
        exact = sum(_exact_divergence_term(a, b, k) for a, b in zip(p.p, q.p))
        assert _ulps(got, exact) <= 3.0
        exact = sum(_exact_divergence_term(a, 0.25, k) for a in j.p.ravel() if a > 0)
        assert _ulps(mutual, exact) <= 3.0


def test_a_batch_with_an_overflowing_row_is_summed_again_whole():
    # a batch with a non-finite sum is summed again whole: the ordinary row
    # keeps the bits it has in a batch of one, the overflowing row is exact
    p = np.array([[1e-320, 1.0 - 1e-320], [0.3, 0.7]])
    q = np.array([[0.5, 0.5], [0.6, 0.4]])
    k = 0.49
    got = _divergence_rows(p, q, k)[:, 0]
    assert got[1].hex() == _divergence_rows(p[1:], q[1:], k)[0, 0].hex()
    with mp.workdps(50):
        exact = sum(_exact_divergence_term(a, b, k) for a, b in zip(p[0], q[0]))
        assert _ulps(got[0], exact) <= 3.0


@pytest.mark.parametrize("k", [0.5, 0.49])
@pytest.mark.parametrize("form", ["pq", "qp", "tsallis"])
def test_literal_and_tsallis_where_q_over_p_overflows(form, k):
    # the inputs divergence takes since it forms overflowing terms from
    # logarithms: the defining sum and the Tsallis reference at q = 1 - 2k
    p, q = make_distribution([1e-320, 1.0 - 1e-320]), make_distribution([0.5, 0.5])
    if form == "tsallis":
        got = tsallis_divergence(p, q, 1.0 - 2.0 * k)
    else:
        got = divergence_literal(p, q, DeformParams(k, 1.0), form)
    with mp.workdps(50):
        exact = float(sum(_exact_divergence_term(a, b, k) for a, b in zip(p.p, q.p)))
    assert abs(got - exact) <= 1e-12 * abs(exact) + 1e-15
