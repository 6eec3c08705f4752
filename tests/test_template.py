"""CcrTemplate: the mo model's probes, solved from two starting tableaus.

A probe at level beta must give what ccr_efficiency gives on the data
reduced to beta, bit for bit, on either pivot kernel.
"""

import numpy as np
import pytest

from _datagen import random_dataset
from fuzzydea import linprog
from fuzzydea._speedups import fast_pivot_loop, pure_pivot_loop
from fuzzydea.ccr import CcrTemplate, CrispDataset, SelfPolicy, ccr_efficiency
from fuzzydea.dataio import FuzzyDataset, FuzzyDmu
from fuzzydea.errors import DataError, NumericalBreakdown, SolverFailure
from fuzzydea.mofdea import reduced_data
from fuzzydea.trifuzzy import TriFuzzy, toward_modal

KERNELS = [
    pytest.param(pure_pivot_loop, id="pure"),
    pytest.param(
        fast_pivot_loop,
        id="fast",
        marks=pytest.mark.skipif(fast_pivot_loop is None, reason="compiled kernel not built"),
    ),
]


def template(data, p, policy):
    return CcrTemplate(reduced_data(data, p, 0.0), reduced_data(data, p, 1.0), p, policy)


def bits(res):
    return (res.efficiency.hex(), [x.hex() for x in res.u], [x.hex() for x in res.v])


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("policy", list(SelfPolicy))
def test_probe_equals_ccr_on_reduced_data(kernel, policy, monkeypatch):
    monkeypatch.setattr(linprog, "default_pivot_loop", kernel)
    rng = np.random.default_rng(20261018)
    for _ in range(40):
        data = random_dataset(rng, n_dmus=int(rng.integers(2, 9)))
        p = int(rng.integers(0, data.n_dmus))
        tpl = template(data, p, policy)
        for beta in (0.0, 1.0, *rng.random(4)):
            beta = float(beta)
            ref = ccr_efficiency(reduced_data(data, p, beta), p, policy=policy)
            assert bits(tpl.solve(beta)) == bits(ref)


@pytest.mark.skipif(fast_pivot_loop is None, reason="compiled kernel not built")
def test_probe_identical_across_kernels(monkeypatch):
    rng = np.random.default_rng(5)
    for _ in range(20):
        data = random_dataset(rng)
        tpl = template(data, 0, SelfPolicy.EXCLUDE_SELF)
        beta = float(rng.random())
        monkeypatch.setattr(linprog, "default_pivot_loop", pure_pivot_loop)
        pure = bits(tpl.solve(beta))
        monkeypatch.setattr(linprog, "default_pivot_loop", fast_pivot_loop)
        assert bits(tpl.solve(beta)) == pure


def _two_dmus(lower, modal):
    """Peer U2's only output moves from lower to modal."""
    dmus = (
        FuzzyDmu("U1", (TriFuzzy(1.0, 1.0, 1.0),), (TriFuzzy(1.0, 1.0, 1.0),)),
        FuzzyDmu("U2", (TriFuzzy(1.0, 1.0, 1.0),), (TriFuzzy(lower, modal, modal),)),
    )
    return FuzzyDataset("two", ("I1",), ("O1",), dmus)


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("lower,modal", [(2.0, 4.0), (1e308, 1.5e308)])
def test_probe_data_must_stay_positive_and_finite(lower, modal):
    # Positive data cannot reach 0 or overflow at a level in [0, 1], so
    # the probe is driven to level -1: 2 * 2 - 4 cancels to 0, and
    # 2 * 1e308 overflows.  CrispDataset rejects the same data.
    data = _two_dmus(lower, modal)
    end, mid = reduced_data(data, 0, 0.0), reduced_data(data, 0, 1.0)
    with pytest.raises(DataError):
        CrispDataset(
            end.names,
            toward_modal(end.inputs, mid.inputs, -1.0),
            toward_modal(end.outputs, mid.outputs, -1.0),
        )
    with pytest.raises(DataError):
        CcrTemplate(end, mid, 0, SelfPolicy.EXCLUDE_SELF).solve(-1.0)


def test_unbounded_probe_raises_like_ccr():
    solo = CrispDataset(("A",), [[1.0]], [[1.0]])
    tpl = CcrTemplate(solo, solo, 0, SelfPolicy.EXCLUDE_SELF)
    with pytest.raises(SolverFailure) as got:
        tpl.solve(0.5)
    with pytest.raises(SolverFailure) as want:
        ccr_efficiency(solo, 0, policy=SelfPolicy.EXCLUDE_SELF)
    assert str(got.value) == str(want.value)
    assert got.value.status is want.value.status


def test_iteration_cap_reaches_the_probe(monkeypatch):
    # The kernel is looked up when a probe runs, so a replacement (or a
    # tracer's wrapper) sees every call.
    calls = []

    def capped(T, basis, tol, max_iter):
        calls.append(max_iter)
        return 2, max_iter

    data = random_dataset(np.random.default_rng(3), n_dmus=4)
    tpl = template(data, 1, SelfPolicy.INCLUDE_SELF)
    monkeypatch.setattr(linprog, "default_pivot_loop", capped)
    with pytest.raises(NumericalBreakdown, match="phase 1"):
        tpl.solve(0.5)
    assert len(calls) == 1
