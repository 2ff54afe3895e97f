"""The vectorised strategy search against the one-strategy-at-a-time loop it
replaced: same value and same witnessing strategy, compared with ``==``."""

import math
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dimwit import catalog, grothendieck, localbound
from dimwit.localbound import (
    DeterministicStrategy,
    local_bound,
    local_bound_min,
    strategy_value,
)
from dimwit.scenario import BellFunctional, BellScenario


def loop_extremize(f: BellFunctional, sign: float):
    """Oracle: Alice's strategies one at a time in lexicographic order, Bob's
    best response per setting by ``np.argmax``, strict improvement only."""
    scenario = f.scenario
    best_total = -math.inf
    best_strategy = None
    bob_settings = range(scenario.settings_b)
    for alpha in product(*(range(v) for v in scenario.outcomes_a)):
        base = sign * f.constant
        for x, a in enumerate(alpha):
            base += sign * f.marginal_a[x][a]
        bob_choice = []
        for y in bob_settings:
            scores = sign * f.marginal_b[y].copy()
            for x, a in enumerate(alpha):
                scores += sign * f.joint[x][y][a]
            b = int(np.argmax(scores))
            bob_choice.append(b)
            base += scores[b]
        if base > best_total:
            best_total = base
            best_strategy = DeterministicStrategy(alpha, tuple(bob_choice))
    return strategy_value(f, best_strategy), best_strategy


def assert_matches_oracle(f):
    value, strategy = local_bound(f)
    assert (value, strategy) == loop_extremize(f, 1.0)
    assert value == strategy_value(f, strategy)
    low, low_strategy = local_bound_min(f)
    assert (low, low_strategy) == loop_extremize(f, -1.0)
    assert low == strategy_value(f, low_strategy)


def functional_from_values(sc: BellScenario, values) -> BellFunctional:
    it = iter(values)

    def take(n):
        return np.array([next(it) for _ in range(n)], dtype=float)

    joint = [[take(va * vb).reshape(va, vb) for vb in sc.outcomes_b] for va in sc.outcomes_a]
    marginal_a = [take(v) for v in sc.outcomes_a]
    marginal_b = [take(v) for v in sc.outcomes_b]
    return BellFunctional(sc, joint, marginal_a, marginal_b, next(it))


_REALS = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
_COUNTS = st.lists(st.integers(2, 4), min_size=1, max_size=3)


@st.composite
def functionals(draw):
    """Ragged scenarios with dense real, sparse, integer-valued (many ties),
    flat (every strategy ties) or cos/sin-weighted integer coefficients (ties
    that rounding may break, as in ``i_phi``)."""
    sc = BellScenario(tuple(draw(_COUNTS)), tuple(draw(_COUNTS)))
    n = (
        sum(va * vb for va in sc.outcomes_a for vb in sc.outcomes_b)
        + sum(sc.outcomes_a)
        + sum(sc.outcomes_b)
        + 1
    )
    kind = draw(st.sampled_from(["real", "sparse", "integer", "flat", "angle"]))
    if kind == "flat":
        values = [draw(_REALS)] * n
    elif kind == "angle":
        phi = draw(st.floats(-math.pi, math.pi))
        ints = st.lists(st.integers(-1, 1), min_size=n, max_size=n)
        values = math.cos(phi) * np.array(draw(ints)) + math.sin(phi) * np.array(draw(ints))
    else:
        element = {
            "real": _REALS,
            "sparse": st.one_of(st.just(0.0), st.just(0.0), _REALS),
            "integer": st.integers(-2, 2).map(float),
        }[kind]
        values = draw(st.lists(element, min_size=n, max_size=n))
    return functional_from_values(sc, values)


@settings(max_examples=400, deadline=None)
@given(functionals(), st.sampled_from([1, 16, 64, localbound._CHUNK_CELLS]))
def test_matches_oracle_on_random_functionals(f, chunk_cells):
    # Small blocks move Alice's settings into the loop over leading settings.
    with mock.patch.object(localbound, "_CHUNK_CELLS", chunk_cells):
        assert_matches_oracle(f)


@pytest.mark.parametrize("chunk_cells", [1, localbound._CHUNK_CELLS])
def test_matches_oracle_on_iphi_grid(chunk_cells):
    # I_phi has maximal strategies that tie in exact arithmetic but not in
    # floating point, so a change of accumulation order picks another witness
    # at some angles.
    with mock.patch.object(localbound, "_CHUNK_CELLS", chunk_cells):
        for phi in np.linspace(-math.pi, math.pi, 1025):
            assert_matches_oracle(catalog.i_phi(float(phi)))


def test_matches_oracle_on_catalog():
    for name in ("cglmp-c", "cglmp-d", "E", "chsh"):
        assert_matches_oracle(catalog.by_name(name))


def test_matches_oracle_across_several_blocks(rng):
    # 4^6 Alice strategies against 9 four-outcome Bob settings do not fit one
    # block, so the loop over leading settings runs more than once.
    sc = BellScenario((4,) * 6, (4,) * 9)
    cells = max(sc.outcomes_b) * sc.settings_b
    assert math.prod(sc.outcomes_a) * cells > localbound._CHUNK_CELLS
    n = 4 * 4 * 6 * 9 + 4 * 6 + 4 * 9 + 1
    for values in (rng.normal(size=n), rng.integers(-1, 2, size=n)):
        assert_matches_oracle(functional_from_values(sc, values))


def test_local_norm_across_several_blocks(rng):
    # Reference: every sign vector y at once, x following the signs of M y.
    # With x_0 fixed, 2^(m-1) strategies at 2 cells per Bob setting (the
    # block's sizing, though only outcome 0's cell is built) fill more than
    # two blocks.
    m = 15
    assert (1 << (m - 1)) * 2 * m > 2 * localbound._CHUNK_CELLS
    matrix = rng.normal(size=(m, m))
    bits = (np.arange(1 << m)[None, :] >> np.arange(m)[:, None]) & 1
    expected = float(np.abs(matrix @ (2.0 * bits - 1.0)).sum(axis=0).max())
    assert abs(grothendieck.local_norm(matrix) - expected) < 1e-12 * expected


def symmetric_functionals(rng):
    """Functionals that flipping every outcome leaves unchanged: correlator
    forms of real and integer matrices (integers tie often), and general
    [[p, q], [q, p]] joint blocks with flat marginals and a constant."""
    for m in (1, 2, 5, 8):
        for matrix in (rng.normal(size=(m, m)), rng.integers(-1, 2, size=(m, m))):
            yield grothendieck.correlator_bell(grothendieck.CorrelationFunctional(matrix))
    sc = BellScenario((2,) * 5, (2,) * 3)
    for draw in (rng.normal, lambda size: rng.integers(-2, 3, size=size)):
        p, q = draw(size=(5, 3)), draw(size=(5, 3))
        joint = [
            [np.array([[p[x, y], q[x, y]], [q[x, y], p[x, y]]]) for y in range(3)] for x in range(5)
        ]
        marginal_a = [np.full(2, v) for v in draw(size=5)]
        marginal_b = [np.full(2, v) for v in draw(size=3)]
        yield BellFunctional(sc, joint, marginal_a, marginal_b, 1.5)


def nudged(f: BellFunctional, index) -> BellFunctional:
    """``f`` with one coefficient moved by one ulp."""
    c = f.coefficients.copy()
    c[index] = np.nextafter(c[index], np.inf)
    return BellFunctional._from_coefficients(f.scenario, c)


# Setting 0 is in the loop over leading settings at 1 cell, in the trailing
# block at the default, and both sides of the split are used in between.
@pytest.mark.parametrize("chunk_cells", [1, 16, localbound._CHUNK_CELLS])
def test_symmetric_functionals_match_oracle(rng, chunk_cells):
    with mock.patch.object(localbound, "_CHUNK_CELLS", chunk_cells):
        for f in symmetric_functionals(rng):
            assert localbound._flip_symmetric(f.coefficients)
            assert_matches_oracle(f)
            # A one-ulp change in a joint term, an Alice or a Bob marginal
            # breaks the symmetry, so the full enumeration runs.
            for index in ((0, 0, 0, 1), (0, -1, 1, 0), (-1, 0, 0, 0)):
                g = nudged(f, index)
                assert not localbound._flip_symmetric(g.coefficients)
                assert_matches_oracle(g)


def test_correlator_minimum_is_minus_maximum(rng):
    for m in (1, 3, 6, 9):
        for matrix in (rng.normal(size=(m, m)), rng.integers(-2, 3, size=(m, m))):
            f = grothendieck.correlator_bell(grothendieck.CorrelationFunctional(matrix))
            assert local_bound_min(f)[0] == -local_bound(f)[0]


def test_symmetric_functional_scores_half_of_alices_strategies(rng, monkeypatch):
    prefixes = []

    def counting_product(*ranges):
        for prefix in product(*ranges):
            prefixes.append(prefix)
            yield prefix

    # One cell per block puts every Alice setting in the counted loop.
    monkeypatch.setattr(localbound, "_CHUNK_CELLS", 1)
    monkeypatch.setattr(localbound, "product", counting_product)
    m = 6
    f = grothendieck.correlator_bell(grothendieck.CorrelationFunctional(rng.normal(size=(m, m))))
    for bound in (local_bound, local_bound_min):
        prefixes.clear()
        bound(f)
        assert len(prefixes) == 2 ** (m - 1)
        assert {prefix[0] for prefix in prefixes} == {0}
        prefixes.clear()
        bound(nudged(f, (0, 0, 0, 0)))
        assert len(prefixes) == 2**m


def bob_antisymmetric_functionals(rng):
    """Functionals whose outcome-1 coefficients of Bob's are exactly minus his
    outcome-0 ones, but which flipping every outcome changes: correlator forms
    of real and integer matrices plus Alice marginals and a constant, and
    ragged Alice settings against binary Bob settings with [t, -t] marginals."""
    for m in (1, 3, 6):
        for matrix in (rng.normal(size=(m, m)), rng.integers(-1, 2, size=(m, m))):
            f = grothendieck.correlator_bell(grothendieck.CorrelationFunctional(matrix))
            marginal_a = [rng.normal(size=2) for _ in range(m)]
            yield BellFunctional(f.scenario, f.joint, marginal_a, f.marginal_b, 0.75)
    sc = BellScenario((2, 3, 4), (2,) * 4)
    for draw in (rng.normal, lambda size: rng.integers(-2, 3, size=size).astype(float)):
        columns = [[draw(size=va) for _ in range(4)] for va in sc.outcomes_a]
        joint = [[np.stack([col, -col], axis=1) for col in row] for row in columns]
        marginal_b = [np.array([t, -t]) for t in draw(size=4)]
        yield BellFunctional(sc, joint, [draw(size=va) for va in sc.outcomes_a], marginal_b, -1.25)


@pytest.mark.parametrize("chunk_cells", [1, 16, localbound._CHUNK_CELLS])
def test_bob_antisymmetric_functionals_match_oracle(rng, chunk_cells):
    with mock.patch.object(localbound, "_CHUNK_CELLS", chunk_cells):
        for f in bob_antisymmetric_functionals(rng):
            assert localbound._bob_antisymmetric(f.coefficients)
            assert not localbound._flip_symmetric(f.coefficients)
            assert_matches_oracle(f)
            # A one-ulp change in an outcome-1 joint term or in a Bob
            # marginal breaks the antisymmetry, so Bob's full cells are built.
            for index in ((0, 0, 0, 1), (-1, 0, 0, 1), (-1, 0, 0, 0)):
                g = nudged(f, index)
                assert not localbound._bob_antisymmetric(g.coefficients)
                assert_matches_oracle(g)


@pytest.mark.parametrize("chunk_cells", [1, 16, localbound._CHUNK_CELLS])
def test_bob_ties_at_signed_zero_pick_outcome_0(rng, chunk_cells):
    # Integer matrices tie often; a zero column scores +-0 for both of Bob's
    # outcomes under every Alice strategy, and a -0.0 column flips which of
    # the two coefficients is the negative zero.
    with mock.patch.object(localbound, "_CHUNK_CELLS", chunk_cells):
        for m in (2, 5, 8):
            matrix = rng.integers(-1, 2, size=(m, m)).astype(float)
            matrix[:, 0] = 0.0
            matrix[:, -1] = -0.0
            f = grothendieck.correlator_bell(grothendieck.CorrelationFunctional(matrix))
            assert localbound._bob_antisymmetric(f.coefficients)
            assert_matches_oracle(f)
            for bound in (local_bound, local_bound_min):
                strategy = bound(f)[1]
                assert strategy.assignment_b[0] == strategy.assignment_b[-1] == 0


def test_bob_antisymmetric_functional_builds_only_outcome_0_cells(rng, monkeypatch):
    prefixes, rows = [], []

    def counting_product(*ranges):
        for prefix in product(*ranges):
            prefixes.append(prefix)
            yield prefix

    class RecordingNumpy:
        """numpy, with the shape of the Bob marginal row that every Alice
        strategy's Bob cells are built from recorded."""

        def __getattr__(self, name):
            return getattr(np, name)

        def where(self, *args):
            row = np.where(*args)
            rows.append(row.shape)
            return row

    # One cell per block puts every Alice setting in the counted loop, so
    # each prefix scores exactly one row of Bob cells.
    monkeypatch.setattr(localbound, "_CHUNK_CELLS", 1)
    monkeypatch.setattr(localbound, "product", counting_product)
    monkeypatch.setattr(localbound, "np", RecordingNumpy())
    m = 6
    f = grothendieck.correlator_bell(grothendieck.CorrelationFunctional(rng.normal(size=(m, m))))
    for g, strategies, cells in ((f, 2 ** (m - 1), m), (nudged(f, (0, 0, 0, 1)), 2**m, 2 * m)):
        for bound in (local_bound, local_bound_min):
            prefixes.clear()
            rows.clear()
            bound(g)
            assert len(prefixes) == strategies
            assert len(rows) == 1 and math.prod(rows[0]) == cells
