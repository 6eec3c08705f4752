"""DataLps: every model's CCR LPs, solved from a dataset's bounds.

The alpha-cuts, crisp CCR at level 1 and the mo model's z* and probes
all solve a DMU's LP at a data level from one ccr.DataLps per dataset,
self policy and favor_p, which keeps the dataset's low, modal and high
arrays as they are; the kernel picks each DMU's ends from them.  Its LP
for DMU p at level beta must give what ccr_efficiency gives on
reduce_at(data, p, beta, favor_p), bit for bit, on either kernel and
with either favor_p, whichever DMUs the store served before.
"""

import numpy as np
import pytest

from _datagen import crisp_dataset, random_dataset
from fuzzydea import ccr
from fuzzydea._speedups import fast_mo_solve, pure_mo_solve
from fuzzydea.alphacut import reduce_at
from fuzzydea.ccr import DataLps, SelfPolicy, ccr_efficiency
from fuzzydea.dataio import FuzzyDataset
from fuzzydea.errors import DataError, NumericalBreakdown, SolverFailure
from fuzzydea.mofdea import reduced_data
from test_backends import KERNELS, level0, needs_fast


def bits(res):
    return (res.efficiency.hex(), [x.hex() for x in res.u], [x.hex() for x in res.v])


# The favorable ends (favor_p) keep the plain policy id they always had.
POLICY_ENDS = [
    pytest.param(
        policy, favor_p, id=str(policy) if favor_p else f"{policy}-pessimistic"
    )
    for favor_p in (True, False)
    for policy in SelfPolicy
]


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("policy,favor_p", POLICY_ENDS)
def test_probe_equals_ccr_on_reduced_data(kernel, policy, favor_p, monkeypatch):
    monkeypatch.setattr(ccr, "default_mo_solve", kernel)
    rng = np.random.default_rng(20261018)
    for _ in range(40):
        data = random_dataset(rng, n_dmus=int(rng.integers(2, 9)))
        p = int(rng.integers(0, data.n_dmus))
        lps = DataLps(data, policy, favor_p)
        for beta in (0.0, 1.0, *rng.random(4)):
            beta = float(beta)
            crisp = reduce_at(data, p, beta, favor_p)
            ref = ccr_efficiency(crisp, p, policy=policy)
            assert bits(lps.solve(p, beta)) == bits(ref)


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("policy,favor_p", POLICY_ENDS)
def test_one_store_serves_every_dmu_in_any_order(kernel, policy, favor_p, monkeypatch):
    # The DMUs come in a shuffled order with repeats, so each DMU's LP
    # must see every other DMU at its peer ends, whoever came before.
    monkeypatch.setattr(ccr, "default_mo_solve", kernel)
    rng = np.random.default_rng(20261019)
    for _ in range(15):
        data = random_dataset(rng, n_dmus=int(rng.integers(2, 9)))
        lps = DataLps(data, policy, favor_p)
        order = rng.integers(0, data.n_dmus, size=3 * data.n_dmus).tolist()
        order += rng.permutation(data.n_dmus).tolist()
        for p in order:
            beta = float(rng.choice([0.0, 1.0, rng.random()]))
            ref = ccr_efficiency(reduce_at(data, p, beta, favor_p), p, policy=policy)
            assert bits(lps.solve(p, beta)) == bits(ref), (p, beta)


@needs_fast
def test_probe_identical_across_kernels(monkeypatch):
    rng = np.random.default_rng(5)
    for _ in range(20):
        data = random_dataset(rng)
        lps = DataLps(data, SelfPolicy.EXCLUDE_SELF)
        beta = float(rng.random())
        monkeypatch.setattr(ccr, "default_mo_solve", pure_mo_solve)
        pure = bits(lps.solve(0, beta))
        monkeypatch.setattr(ccr, "default_mo_solve", fast_mo_solve)
        assert bits(lps.solve(0, beta)) == pure


@pytest.mark.parametrize("kernel", KERNELS)
def test_reused_work_buffer_leaks_no_state(kernel, monkeypatch):
    # One DataLps solves every level into the same work tableau and
    # basis; each result must equal a fresh solve, in any order.
    monkeypatch.setattr(ccr, "default_mo_solve", kernel)
    rng = np.random.default_rng(11)
    for _ in range(15):
        data = random_dataset(rng, n_dmus=int(rng.integers(2, 9)))
        p = int(rng.integers(0, data.n_dmus))
        policy = list(SelfPolicy)[int(rng.integers(0, 2))]
        levels = [0.0, 1.0, float(rng.random()), float(rng.random())]
        fresh = {
            b: bits(ccr_efficiency(reduced_data(data, p, b), p, policy=policy))
            for b in levels
        }
        lps = DataLps(data, policy)
        for _ in range(3):
            order = [levels[int(i)] for i in rng.permutation(len(levels))]
            for a, b in zip(order, order[1:]):
                assert [bits(lps.solve(p, x)) for x in (a, b, a)] == [
                    fresh[a], fresh[b], fresh[a]
                ]


@pytest.mark.parametrize("favor_p", [True, False])
def test_low_and_high_give_reduce_ats_ends(favor_p):
    # The store keeps the dataset's bounds as they are, no copy made, low
    # and high swapped without favor_p.  Read by the kernel's rule (p at
    # low inputs and high outputs, its peers at the other ends), they
    # give reduce_at's data at level 0 for every p, bit for bit.
    rng = np.random.default_rng(17)
    for _ in range(10):
        data = random_dataset(rng, n_dmus=int(rng.integers(2, 9)))
        lower, modal, upper = data.bounds
        lps = DataLps(data, SelfPolicy.EXCLUDE_SELF, favor_p)
        ends = (lower, modal, upper) if favor_p else (upper, modal, lower)
        for got, want in zip((lps.low, lps.modal, lps.high), ends):
            assert got.base is data.bounds and got.flags.c_contiguous
            assert got.__array_interface__ == want.__array_interface__
        for p in range(data.n_dmus):
            crisp = reduce_at(data, p, 0.0, favor_p)
            end = level0((lps.low, lps.modal, lps.high, p, True, data.n_outputs))
            assert end.tobytes() == crisp.bounds[1].tobytes()


def _two_dmus(lower, modal):
    """Peer U2's only output moves from lower to modal."""
    units = [("U1", [1.0], [1.0]), ("U2", [1.0], [[lower, modal, modal]])]
    return FuzzyDataset("two", ["I1"], ["O1"], units)


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("lower,modal", [(2.0, 4.0), (1e308, 1.5e308)])
def test_probe_data_must_stay_positive_and_finite(lower, modal):
    # Positive data cannot reach 0 or overflow at a level in [0, 1], so
    # the probe is driven to level -1: 2 * 2 - 4 cancels to 0, and
    # 2 * 1e308 overflows.
    data = _two_dmus(lower, modal)
    with pytest.raises(DataError, match="data at level -1.0 for DMU 'U1'"):
        DataLps(data, SelfPolicy.EXCLUDE_SELF).solve(0, -1.0)
    # The message shows the level as the caller gave it.
    with pytest.raises(DataError, match="data at level -1 for DMU 'U1'"):
        DataLps(data, SelfPolicy.EXCLUDE_SELF).solve(0, -1)


def test_unbounded_probe_raises_like_ccr():
    solo = FuzzyDataset("solo", ["I1"], ["O1"], [("A", [1.0], [1.0])])
    lps = DataLps(solo, SelfPolicy.EXCLUDE_SELF)
    with pytest.raises(SolverFailure) as got:
        lps.solve(0, 0.5)
    with pytest.raises(SolverFailure) as want:
        ccr_efficiency(crisp_dataset(("A",), [[1.0]], [[1.0]]), 0,
                       policy=SelfPolicy.EXCLUDE_SELF)
    assert str(got.value) == str(want.value)
    assert got.value.status is want.value.status


def test_iteration_cap_reaches_the_probe(monkeypatch):
    # The kernel is looked up when a probe runs, so a replacement (or a
    # tracer's wrapper) sees every call.  This one allows no pivot.
    calls = []
    kernel = ccr.default_mo_solve

    def capped(*args):
        calls.append(args[-2:])  # configs and levels
        return kernel(*args[:9], 0, *args[10:])

    data = random_dataset(np.random.default_rng(3), n_dmus=4)
    lps = DataLps(data, SelfPolicy.INCLUDE_SELF)
    monkeypatch.setattr(ccr, "default_mo_solve", capped)
    with pytest.raises(NumericalBreakdown, match=r"cap \(0\) in phase 1"):
        lps.solve(1, 0.5)
    assert calls == [((), (0.5,))]
