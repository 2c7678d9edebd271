"""Independent high-precision reference evaluators used only by tests.

Every formula here is computed with mpmath at 40 significant digits,
written from the closed forms directly, sharing no code with the package.
"""

from fractions import Fraction

import mpmath as mp

mp.mp.dps = 40


def _as_mpf(value):
    if isinstance(value, Fraction):
        return mp.mpf(value.numerator) / mp.mpf(value.denominator)
    return mp.mpf(value)


def ref_root(n):
    """sqrt(2 ln n / ln ln n) at high precision."""
    return mp.sqrt(2 * mp.log(n) / mp.log(mp.log(n)))


def ref_threshold_L(n):
    return int(mp.ceil(ref_root(n)))


def ref_lower_ell(n):
    return int(mp.floor(ref_root(n)))


def ref_target_maxload(n):
    return mp.sqrt(8 * mp.log(n) / mp.log(mp.log(n)))


def ref_lemma22(theta, a, s_size):
    theta = mp.mpf(theta)
    return 2 * mp.exp(-(theta**a) * s_size / (mp.e * mp.factorial(a)))


def ref_lemma23(theta, s_size):
    theta = mp.mpf(theta)
    return 2 * mp.exp(-(theta**2) * s_size / (2 * mp.e**2))


def ref_prop41(n, eta):
    eta = mp.mpf(eta)
    exponent = -eta / 4 + 2 * mp.log(mp.log(mp.log(n))) / mp.log(mp.log(n))
    return 2 * mp.power(n, exponent) + 2 * mp.exp(-mp.sqrt(n))


def ref_prop41_exponent(n, eta):
    eta = mp.mpf(eta)
    return -eta / 4 + 2 * mp.log(mp.log(mp.log(n))) / mp.log(mp.log(n))


def ref_prop51(n, epsilon):
    return mp.exp(-mp.power(n, mp.mpf(epsilon) / 5))


def ref_stage_params(n, rho, epsilon):
    ell = ref_lower_ell(n)
    s = int(mp.ceil((2 - _as_mpf(epsilon)) * ell))
    w = int(mp.ceil(_as_mpf(rho) * n / (2 * ell)))
    zeta = _as_mpf(rho) / (8 * mp.e * ell)
    return ell, s, w, zeta


def ref_rejection_budget(n):
    return 2 * mp.mpf(n) / mp.factorial(ref_threshold_L(n))


def ref_poisson_tail(lam, level):
    """P(Poisson(lam) >= level) at high precision."""
    lam = mp.mpf(lam)
    if level <= 0:
        return mp.mpf(1)
    # 1 - CDF(level - 1) is the regularized lower incomplete gamma.  Its
    # series does not converge near a large lam (10^6), where the two forms,
    # which agree to 1e-42 at lam = 10^5, give it as 1 minus the upper one.
    try:
        return mp.gammainc(level, 0, lam, regularized=True)
    except mp.libmp.NoConvergence:
        return 1 - mp.gammainc(level, lam, mp.inf, regularized=True)


def rel_err(value, reference):
    reference = mp.mpf(reference)
    if reference == 0:
        return float(mp.fabs(value))
    return float(mp.fabs((mp.mpf(value) - reference) / reference))


def ref_poisson_empties_ge(n, lam, k):
    """P(at least k of n iid Poisson(lam) bins are empty) at high precision."""
    p = mp.exp(-mp.mpf(lam))
    return mp.fsum(mp.binomial(n, j) * p**j * (1 - p) ** (n - j) for j in range(k, n + 1))
