"""Tests for the exact oracles: the state pass, power recurrence, and Poisson routines."""

import hashlib
import math
import time
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_bounds as ref
from reference_enumeration import enumerated_maxload_distribution
from reference_placements import binned_capped_placements, binned_one_choice_maxload
from thinlab import oracle
from thinlab.engine import run_summary_batch
from thinlab.errors import ConfigurationError, StateSpaceLimitError
from thinlab.oracle import (
    STATISTICS,
    Pmf,
    exact_maxload_distribution,
    exact_one_choice_maxload,
    pmf_from_counts,
    poisson_excess_mean,
    poisson_tail,
    poissonization_check,
    tv_distance,
)
from thinlab.strategies import StrategySpec

ONE_CHOICE = StrategySpec("always_accept")
ALWAYS_REJECT = StrategySpec("always_reject")
THRESHOLD_1 = StrategySpec("threshold", ell=1)

SMALL_INSTANCES = [(2, 2), (2, 3), (3, 2), (3, 3)]

KINDS = ["one-choice", "always-reject", "threshold:1", "threshold:2", "threshold:1,k=2",
         "threshold:1,k=3", "threshold:2,k=2", "two-choices"]
# (3, 3, threshold:1,k=3) is left out: its 3^12 joint draws enumerate for 9 s.
CROSS_CHECKED = [
    (n, t, strategy)
    for n, t in [(2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (4, 2)]
    for strategy in KINDS
    if (n, t, strategy) != (3, 3, "threshold:1,k=3")
]


def test_pmf_validation():
    pmf = Pmf((1, 2), (Fraction(3, 4), Fraction(1, 4)))
    assert pmf.prob_of(1) == Fraction(3, 4)
    assert pmf.prob_of(7) == 0
    assert pmf.tail(2) == Fraction(1, 4)
    assert pmf.mean() == Fraction(5, 4)
    assert pmf.as_floats() == {1: 0.75, 2: 0.25}
    with pytest.raises(ConfigurationError):
        Pmf((2, 1), (Fraction(1, 2), Fraction(1, 2)))  # unsorted support
    with pytest.raises(ConfigurationError):
        Pmf((1, 2), (Fraction(2, 3), Fraction(1, 2)))  # sums above 1
    with pytest.raises(ConfigurationError):
        Pmf((1,), (Fraction(-1, 2),))
    # Float probabilities are allowed within the 1e-12 sum tolerance.
    assert Pmf((0, 1), (0.25, 0.75)).tail(1) == 0.75


def test_enumeration_two_balls_two_bins():
    pmf = exact_maxload_distribution(2, 2, ONE_CHOICE)
    assert pmf.support == (1, 2)
    assert pmf.probs == (Fraction(1, 2), Fraction(1, 2))

    pmf = exact_maxload_distribution(2, 2, THRESHOLD_1)
    assert pmf.support == (1, 2)
    assert pmf.probs == (Fraction(3, 4), Fraction(1, 4))

    pmf = exact_maxload_distribution(2, 2, ALWAYS_REJECT)
    assert pmf.probs == (Fraction(1, 2), Fraction(1, 2))


@pytest.mark.parametrize("n,t", SMALL_INSTANCES)
def test_enumeration_identities(n, t):
    accept_pmf = exact_maxload_distribution(n, t, ONE_CHOICE)
    reject_pmf = exact_maxload_distribution(n, t, ALWAYS_REJECT)
    dp_pmf = exact_one_choice_maxload(n, t)
    assert accept_pmf == reject_pmf
    assert accept_pmf == dp_pmf


@pytest.mark.parametrize("n,t", SMALL_INSTANCES)
def test_threshold_dominates_one_choice(n, t):
    threshold_pmf = exact_maxload_distribution(n, t, THRESHOLD_1)
    one_choice_pmf = exact_one_choice_maxload(n, t)
    strict = False
    for level in range(2, t + 1):
        gap = one_choice_pmf.tail(level) - threshold_pmf.tail(level)
        assert gap >= 0
        strict = strict or gap > 0
    assert strict  # thinning must beat one-choice somewhere on these instances


def test_enumeration_with_retry_budget_two():
    spec = StrategySpec("threshold", ell=1, retry_budget=2)
    pmf = exact_maxload_distribution(2, 2, spec)
    # Max load 2 needs primary collision, then two pool draws on the full bin.
    assert pmf.support == (1, 2)
    assert pmf.probs == (Fraction(7, 8), Fraction(1, 8))


def test_enumeration_two_choices():
    pmf = exact_maxload_distribution(2, 2, StrategySpec("two_choices_greedy"))
    assert pmf.probs == (Fraction(3, 4), Fraction(1, 4))


def test_enumeration_accepts_grammar_strings():
    pmf = exact_maxload_distribution(2, 2, "threshold:1")
    assert pmf.probs == (Fraction(3, 4), Fraction(1, 4))


@pytest.mark.parametrize("n,t,strategy", CROSS_CHECKED)
def test_state_pass_matches_enumeration(n, t, strategy):
    expected = enumerated_maxload_distribution(n, t, strategy)
    assert exact_maxload_distribution(n, t, strategy) == expected


@pytest.mark.parametrize("n", [8, 10])
def test_state_pass_matches_the_one_choice_dp(n):
    dp = exact_one_choice_maxload(n, n)
    assert exact_maxload_distribution(n, n, ONE_CHOICE) == dp
    assert exact_maxload_distribution(n, n, ALWAYS_REJECT) == dp


# The exact max-load law at n = t = 8, as (b, c): P(max load = m) is
# c[m - 1] / 2^b for m = 1..8.  A faster state pass must give it unchanged.
EXACT_AT_EIGHT = {
    "one-choice": (21, [5040, 1045170, 858480, 167825, 19208, 1372, 56, 1]),
    "always-reject": (21, [5040, 1045170, 858480, 167825, 19208, 1372, 56, 1]),
    "threshold:1": (42, [117875646000, 3452639789970, 782814007920, 43679162625, 1029459032,
                         8431276, 14280, 1]),
    "threshold:2": (39, [1321205760, 464937422670, 81149540304, 2316668767, 30777138, 198758,
                         490, 1]),
    "threshold:auto": (36, [165150720, 34248130560, 33398349390, 895466551, 12278189, 100842,
                            483, 1]),
    "threshold:1,k=2": (63, [556736572195256880, 7528515687478040850, 1093143828504603120,
                             44322102825979265, 651637509674648, 2207878207276, 463013768, 1]),
    "threshold:2,k=2": (57, [346346162749440, 134028666903754350, 9612892702812336,
                             126499484769119, 780475527650, 2346239014, 3962, 1]),
    "threshold:2,k=3": (75, [90792568487789199360, 35874844470913174869870,
                             1789318484563964868528, 23825602861855850335,
                             150273136693587810, 462993683301926, 31738, 1]),
    "threshold:1,k=3": (84, [1705780077893225807442480, 15488081528264492506497810,
                             2059750743485522316978672, 87901764474977836915329,
                             1294994628585462625688, 4004400793558748716, 686469306090120, 1]),
    "two-choices": (42, [163459296000, 3987452353500, 243927936000, 3177829557, 28919646,
                         175770, 630, 1]),
}


@pytest.mark.parametrize("strategy", sorted(EXACT_AT_EIGHT))
def test_state_pass_at_eight_bins(strategy):
    bits, counts = EXACT_AT_EIGHT[strategy]
    expected = Pmf(tuple(range(1, 9)), tuple(Fraction(c, 2**bits) for c in counts))
    assert exact_maxload_distribution(8, 8, strategy) == expected


# The exact max-load law at n = t = 10, as the sha256 of "m:P(max load = m)"
# over its support, joined by spaces.  These were recorded from the pass that
# stepped every primary and every pool value, before it stepped one bin a class.
EXACT_AT_TEN = {
    "one-choice": "4d0db1bb8b30b81589071419e580040995469ae0d20752fc310ad5f46fb2c0f1",
    "always-reject": "4d0db1bb8b30b81589071419e580040995469ae0d20752fc310ad5f46fb2c0f1",
    "threshold:1": "85a045103f3b51fd13a9a5107812669429359541ff67c55a8c1a1cd9b32c6921",
    "threshold:2": "e356fb98b5414c3a8161054f32e2f88bf1b9fad44adb88c8a743b1bb4ac1f018",
    "threshold:auto": "1d98ced88509c570290801deeb7c71a4544bc25aabecdda55f89cb277445e95e",
    "threshold:1,k=2": "c7d00a6618b382ef2bd31c917564ea31e937b8b616ef38857ae6adefd30c0774",
    "threshold:2,k=2": "6d7d985b3773e948533317290083b7b29398fbb7993e6147476febd554354558",
    "threshold:2,k=3": "7cd305044f522568322a69a857f89d695db170738e808988852e44bf7a5fd98a",
    "threshold:1,k=3": "740cdddea27801a6ba207e3dc246d2387611d1020bce4931be824a0dc36fa7c4",
    "two-choices": "7185dde16378833b9257916d3d0e150810b1396053868c7795cd1c79e94c736a",
}


@pytest.mark.parametrize("strategy", sorted(EXACT_AT_TEN))
def test_state_pass_at_ten_bins(strategy):
    pmf = exact_maxload_distribution(10, 10, strategy)
    text = " ".join(f"{m}:{p}" for m, p in zip(pmf.support, pmf.probs))
    assert hashlib.sha256(text.encode()).hexdigest() == EXACT_AT_TEN[strategy]


# The counting kinds, whose summaries share one kernel, and the others.
COUNTING = ["one-choice", "always-reject", "threshold:1", "threshold:2", "threshold:auto"]
LAW_GATE = [(8, 8, kind) for kind in COUNTING + ["threshold:1,k=2", "threshold:2,k=3",
                                                  "threshold:1,k=3", "two-choices"]]
LAW_GATE += [(4, 8, kind) for kind in COUNTING + ["two-choices"]]
LAW_GATE += [(12, 12, "threshold:1,k=3")]


def _assert_summary_law(n, t, strategy):
    trials, eps = 20_000, 0.02
    counts = Counter(maxload for maxload, _ in run_summary_batch(n, t, strategy, range(trials)))
    exact = exact_maxload_distribution(n, t, strategy)
    assert tv_distance(pmf_from_counts(counts), exact) <= eps


@pytest.mark.parametrize("n,t,strategy", LAW_GATE)
def test_summary_law_matches_the_state_pass(n, t, strategy):
    # Bit-identity with step shows that the kernels follow the reference;
    # this checks the law of the max load itself.  By the Bretagnolle-
    # Huber-Carol inequality an empirical pmf of N runs over K support
    # points has P(TV >= eps) <= 2^K exp(-2 N eps^2): about 2.9e-5 for
    # K = 8, N = 2*10^4 and eps = 0.02, and 2^12 e^-16 = 4.6e-4 for the
    # K = 12 points of n = t = 12: the chance that a correct kernel
    # fails on a set of seeds drawn at random.  A kernel whose level is off by one
    # fails it for every threshold kind here, and one whose retry budget is
    # off by one for all but threshold:2,k=3 read as k=4, whose exact law
    # is 0.005 from it in TV.
    _assert_summary_law(n, t, strategy)


@settings(max_examples=25, derandomize=True, deadline=None)
@given(n=st.integers(1, 6), t=st.integers(1, 8), strategy=st.one_of(
    st.just("one-choice"), st.integers(1, 3).map("threshold:{}".format)))
def test_counting_laws_match_the_state_pass(n, t, strategy):
    # The counting kinds at small sizes, at LAW_GATE's N and eps.  The max load
    # takes K <= t <= 8 values, so by the Bretagnolle-Huber-Carol inequality a
    # correct kernel fails an example with probability at most
    # 2^K exp(-2 N eps^2) <= 2^8 e^-16, about 2.9e-5.
    _assert_summary_law(n, t, strategy)


def test_step_limit_counts_n_bins_a_step(monkeypatch):
    # Each step counts its n bins and the _STEP_BINS that stand for its fixed
    # cost; only a step over 1024 bins or more is charged above that.
    assert [oracle._step_units(n) for n in range(1, 1025)] == [
        n + oracle._STEP_BINS for n in range(1, 1024)] + [(1024 + oracle._STEP_BINS) * 11 // 10]
    unit = 4 + oracle._STEP_BINS
    steps = []
    stepped = oracle.step
    monkeypatch.setattr(oracle, "step", lambda *args: steps.append(1) or stepped(*args))
    expected = exact_maxload_distribution(4, 6, "threshold:1,k=2")
    needed = unit * len(steps)
    monkeypatch.setattr(oracle, "STEP_LIMIT", needed)
    assert exact_maxload_distribution(4, 6, "threshold:1,k=2") == expected
    monkeypatch.setattr(oracle, "STEP_LIMIT", needed - 1)
    with pytest.raises(StateSpaceLimitError, match="ball 6 passes"):
        exact_maxload_distribution(4, 6, "threshold:1,k=2")
    # One state per ball, stepped once, is the least a pass takes.
    monkeypatch.setattr(oracle, "STEP_LIMIT", 6 * unit - 1)
    with pytest.raises(StateSpaceLimitError, match="6 balls in 4 bins"):
        exact_maxload_distribution(4, 6, "threshold:1,k=2")


@pytest.mark.parametrize("n,t,strategy", [(3, 12, "threshold:1,k=3"),
    (8, 8, "threshold:1,k=3"), (12, 12, "threshold:2,k=2"), (100, 10, "threshold:1"),
    (10**4, 3, "threshold:1"), (10**5, 2, "threshold:1")])
def test_state_pass_keeps_the_step_rate_in_one_process(monkeypatch, n, t, strategy):
    # STEP_LIMIT's comment gives 0.39-0.64 us a bin step, _step_units(n) of
    # them a step, at every n; 6 us is about ten times the slower, so a pass
    # ten times slower fails.  Every step restores the pass's one process.
    steps, processes = [], []
    stepped, built = oracle.step, oracle.new_process
    monkeypatch.setattr(oracle, "step", lambda *args: steps.append(1) or stepped(*args))
    monkeypatch.setattr(oracle, "new_process", lambda *args: processes.append(1) or built(*args))
    start = time.perf_counter()
    exact_maxload_distribution(n, t, strategy)
    assert time.perf_counter() - start <= 6e-6 * oracle._step_units(n) * len(steps)
    assert len(processes) == 1


def test_one_choice_dp_examples():
    pmf = exact_one_choice_maxload(2, 3)
    assert pmf.support == (2, 3)
    assert pmf.probs == (Fraction(3, 4), Fraction(1, 4))
    assert exact_one_choice_maxload(3, 1).probs == (Fraction(1),)
    assert exact_one_choice_maxload(5, 0).support == (0,)


def test_one_choice_dp_larger_instance():
    # All probabilities exact and summing to 1 at a scale enumeration
    # cannot reach (10^40 joint outcomes).
    pmf = exact_one_choice_maxload(10, 40)
    assert sum(pmf.probs) == 1
    assert pmf.support[0] == 4  # 40 balls in 10 bins force a max of 4+
    assert pmf.support[-1] == 40
    assert 6.0 < float(pmf.mean()) < 9.0


def test_power_recurrence_matches_the_bin_recurrence():
    for n in range(1, 9):
        for t in range(13):
            for cap in range(t + 2):
                assert oracle._capped_placements(n, t, cap) == binned_capped_placements(n, t, cap)


@pytest.mark.parametrize("n,t", [(20, 20), (30, 45), (7, 60), (60, 60), (10, 40), (1, 5), (3, 1)])
def test_one_choice_pmf_matches_the_bin_recurrence(n, t):
    assert exact_one_choice_maxload(n, t) == binned_one_choice_maxload(n, t)


@pytest.mark.parametrize("n,t,call,inner,terms", [
    # caps 2..5 of 6 balls in 4 bins, min(m, cap) terms at each m <= 6
    (4, 6, lambda: exact_one_choice_maxload(4, 6), "_capped_placements",
     sum(min(m, cap) for cap in range(2, 6) for m in range(1, 7))),
    # P(max >= 3) counts placements under cap 2
    (4, 6, lambda: poissonization_check(4, 6, "max_ge_a", 3), "_capped_placements",
     sum(min(m, 2) for m in range(1, 7))),
    # 3 balls leave 2..5 of 5 bins empty: n - j + 1 powers for each j
    (5, 3, lambda: poissonization_check(5, 3, "empties_ge_k", 1), "_surjections",
     sum(5 - j + 1 for j in range(2, 6))),
], ids=["one-choice-pmf", "max_ge_a", "empties_ge_k"])
def test_term_bit_limit_counts_the_work(monkeypatch, n, t, call, inner, terms):
    work = (terms + t) * t * n.bit_length()
    expected = call()
    monkeypatch.setattr(oracle, "TERM_BIT_LIMIT", work)
    assert call() == expected
    monkeypatch.setattr(oracle, "TERM_BIT_LIMIT", work - 1)
    monkeypatch.setattr(oracle, inner, None)  # refused before the first term
    with pytest.raises(StateSpaceLimitError, match=f"need {work} term-bits"):
        call()


@pytest.mark.parametrize("call", [
    lambda: exact_one_choice_maxload(100, 100),
    lambda: poissonization_check(10, 700, "max_ge_a", 200),
    lambda: poissonization_check(300, 300, "empties_ge_k", 1),
], ids=["one-choice-pmf", "max_ge_a", "empties_ge_k"])
def test_term_bit_limit_keeps_its_rate(monkeypatch, call):
    # TERM_BIT_LIMIT's comment gives at most 3.8 s per 10^9 term-bits.  These
    # sides took 0.08-0.21 s, at 0.22-1.7 s per 10^9, so a side ten times
    # slower than the slowest rate fails.
    works = []
    checked = oracle._check_work
    monkeypatch.setattr(oracle, "_check_work", lambda n, t, terms: works.append(
        (terms + t) * t * n.bit_length()) or checked(n, t, terms))
    start = time.perf_counter()
    call()
    assert time.perf_counter() - start <= 10 * 3.8e-9 * sum(works)


def test_size_guards(monkeypatch):
    monkeypatch.setattr(oracle, "new_process", None)  # refused before any step
    monkeypatch.setattr(oracle, "_capped_placements", None)
    monkeypatch.setattr(oracle, "_surjections", None)
    for n in (10**7, 5 * 10**6):  # a step over 5 * 10^6 bins is charged 2.3 times n
        with pytest.raises(StateSpaceLimitError):
            exact_maxload_distribution(n, 1, ONE_CHOICE)
    for n, t in ((2000, 1000), (10, 3000), (10, 10**5)):
        with pytest.raises(StateSpaceLimitError):
            exact_one_choice_maxload(n, t)
    with pytest.raises(StateSpaceLimitError):
        poissonization_check(10, 10**5, "max_ge_a", 3)
    # Few terms, but n^t has 3 * 10^6 bits to reduce a count over.
    with pytest.raises(StateSpaceLimitError):
        poissonization_check(3, 2 * 10**6, "empties_ge_k", 1)


def test_poisson_tail_examples():
    assert poisson_tail(1.0, 0) == pytest.approx(1 - 2.718281828459045**-1, rel=1e-14)
    assert poisson_tail(0.5, 1) == pytest.approx(0.09020401043104986, rel=1e-12)
    assert poisson_tail(1.0, 4) == pytest.approx(0.003659846827343713, rel=1e-12)


@pytest.mark.parametrize(
    "lam,a",
    [
        (1.0, 0), (1.0, 3), (1.0, 10), (0.5, 1), (0.001, 0), (0.001, 3),
        (2.0, 25), (3.5, 2), (10.0, 0), (10.0, 40), (25.0, 80),
    ] + [(lam, round(lam + d * lam**0.5)) for lam in (100, 300, 10**3, 10**4, 10**5, 10**6)
         for d in (-2, 0, 2)],
)
def test_poisson_tail_against_high_precision(lam, a):
    reference = float(ref.ref_poisson_tail(lam, a + 1))  # P(Y > a) = P(Y >= a+1)
    assert abs(poisson_tail(lam, a) - reference) < 1e-14


def test_poisson_tail_far_level_is_quick():
    start = time.perf_counter()
    assert poisson_tail(1.0, 10**8) == 0.0
    assert poissonization_check(3, 3, "max_ge_a", 10**6).rhs == 0.0
    assert time.perf_counter() - start < 0.05
    # A large rate sums only the terms near its mode: O(sqrt(lam)) of them.
    start = time.perf_counter()
    assert poisson_tail(1e8, 10**8) == pytest.approx(0.5, abs=1e-4)
    assert time.perf_counter() - start < 1.0


def test_poisson_tail_validation():
    with pytest.raises(ConfigurationError):
        poisson_tail(0.0, 1)
    with pytest.raises(ConfigurationError):
        poisson_tail(math.inf, 1)
    with pytest.raises(ConfigurationError):
        poisson_tail(1.0, -1)
    with pytest.raises(ConfigurationError):
        poisson_tail(1.0, 2.5)


def test_poisson_excess_mean():
    # Independent eight-term direct sum at lam=1, level=4.
    direct = sum(
        (j - 4) * float(ref.ref_poisson_tail(1, j) - ref.ref_poisson_tail(1, j + 1))
        for j in range(5, 40)
    )
    assert poisson_excess_mean(1.0, 4) == pytest.approx(direct, rel=1e-10)
    assert poisson_excess_mean(2.5, 0) == 2.5


def test_poissonization_check_examples():
    result = poissonization_check(2, 2, "max_ge_a", 2)
    assert result.lhs == pytest.approx(0.5)
    assert result.rhs == pytest.approx(2 * (1 - (2 / 2.718281828459045) ** 2), rel=1e-12)
    assert result.holds

    result = poissonization_check(3, 2, "max_ge_a", 0)
    assert result.lhs == 1.0 and result.rhs == 2.0 and result.holds

    assert poissonization_check(3, 3, "empties_ge_k", 1).holds


def test_poissonization_check_battery():
    # The factor-2 comparison holds across the whole small grid, every level.
    for n in (2, 3, 4):
        for t in (1, 2, 3, 4):
            for a in range(0, t + 2):
                assert poissonization_check(n, t, "max_ge_a", a).holds
            for k in range(0, n + 2):
                assert poissonization_check(n, t, "empties_ge_k", k).holds


def test_exact_empties_sum_matches_every_term():
    # The sum skips terms n - j > t, which are zero: t balls fill at most t bins.
    def onto(t, m):
        return sum((-1) ** i * math.comb(m, i) * (m - i) ** t for i in range(m + 1))

    for n in range(1, 9):
        for t in range(1, 9):
            for k in range(0, n + 2):
                full = sum(math.comb(n, j) * onto(t, n - j) for j in range(k, n + 1))
                assert oracle._multinomial_empties_ge(n, t, k) == Fraction(full, n**t)


def test_exact_empties_side_is_quick_for_few_balls():
    start = time.perf_counter()
    result = poissonization_check(1000, 1, "empties_ge_k", 1)
    assert time.perf_counter() - start < 0.5
    assert result.lhs == 1.0 and result.holds


@pytest.mark.parametrize("level,rhs", [(0, 2.0), (10**9 - 1, 4 / math.e), (10**9, 2 / math.e)])
def test_poisson_empties_side_holds_no_weight_per_bin(level, rhs):
    # The exact side is a few terms; the Poisson side walks only the weights
    # that do not underflow, not a list of n + 1.
    tracemalloc.start()
    start = time.perf_counter()
    try:
        result = poissonization_check(10**9, 1, "empties_ge_k", level)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 0.5 and peak < 10**6
    assert result.holds and result.rhs == pytest.approx(rhs, rel=1e-6)


def _listed_poisson_empties_ge(n, lam, k):
    """The Poisson empties side over a list of all n + 1 weights."""
    p_empty = math.exp(-lam)
    odds = p_empty / -math.expm1(-lam)
    mode = min(n, int((n + 1) * p_empty))
    weights = [0.0] * (n + 1)
    weights[mode] = 1.0
    for j in range(mode, n):
        weights[j + 1] = weights[j] * (n - j) / (j + 1) * odds
    for j in range(mode, 0, -1):
        weights[j - 1] = weights[j] * j / ((n - j + 1) * odds)
    return math.fsum(weights[k:]) / math.fsum(weights)


@pytest.mark.parametrize("n", [1, 2, 7, 60, 700, 5000])
@pytest.mark.parametrize("lam", [1e-6, 0.01, 0.5, 1.0, 3.0, 20.0, 300.0])
def test_poisson_empties_walk_equals_the_full_list(n, lam):
    # Weights past the first underflow are 0.0 and fsum is exact, so the
    # walk from the mode gives the same float at every level.
    for k in sorted({0, 1, n // 3, n // 2, n - 1, n, n + 1, int(n * math.exp(-lam))}):
        assert oracle._poisson_empties_ge(n, lam, k) == _listed_poisson_empties_ge(n, lam, k)


def test_poissonization_check_refuses_a_rate_below_float_range():
    assert poissonization_check(10**299, 1, "empties_ge_k", 1).holds
    for statistic in STATISTICS:
        with pytest.raises(ConfigurationError, match="below 1e-300"):
            poissonization_check(10**400, 1, statistic, 1)


@pytest.mark.parametrize("a", [18, 20, 22])
def test_poisson_max_side_keeps_a_tiny_tail(a):
    # 1 - (1 - tail)^200 with a tail below 1e-16: the naive form gives 0.
    tail = ref.ref_poisson_tail(1, a)
    expected = 2 * (1 - (1 - tail) ** 200)
    rhs = poissonization_check(200, 200, "max_ge_a", a).rhs
    assert abs(rhs - expected) <= 1e-10 * expected


@pytest.mark.parametrize("n, t", [(2, 100), (2, 30_000)])
def test_poisson_max_side_at_a_tail_of_one(n, t):
    # P(Poisson(t/n) > 1) rounds to 1.0, whose log1p(-1.0) is undefined.
    assert poisson_tail(t / n, 1) == 1.0
    assert poissonization_check(n, t, "max_ge_a", 2) == (1.0, 2.0, True)


@pytest.mark.parametrize("n, lam, k", [
    (4, 0.5, 1), (100, 1.0, 37), (1000, 1.0, 400), (2000, 0.0005, 1), (2000, 1.0, 800),
])
def test_poisson_empties_side_against_high_precision(n, lam, k):
    expected = ref.ref_poisson_empties_ge(n, lam, k)
    assert abs(oracle._poisson_empties_ge(n, lam, k) - expected) <= 1e-13 * expected


@pytest.mark.parametrize("statistic", STATISTICS)
def test_poisson_sides_stay_finite_at_2000_bins(statistic):
    result = poissonization_check(2000, 1, statistic, 1)
    assert math.isfinite(result.lhs) and math.isfinite(result.rhs) and result.holds


def test_poissonization_check_validation():
    with pytest.raises(ConfigurationError):
        poissonization_check(3, 3, "median_ge", 1)
    with pytest.raises(ConfigurationError):
        poissonization_check(3, 0, "max_ge_a", 1)


def test_empirical_pmf_and_tv_distance():
    empirical = pmf_from_counts({1: 750, 2: 250})
    assert empirical.probs == (Fraction(3, 4), Fraction(1, 4))
    exact = Pmf((1, 2), (Fraction(1, 2), Fraction(1, 2)))
    assert tv_distance(empirical, exact) == pytest.approx(0.25)
    assert tv_distance(exact, exact) == 0.0
    disjoint = Pmf((5,), (Fraction(1),))
    assert tv_distance(exact, disjoint) == 1.0
    with pytest.raises(ConfigurationError):
        pmf_from_counts({})
