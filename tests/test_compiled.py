"""The compiled coefficient tensor against an independent Kronecker-product
reference, and the see-saw's per-setting operators against the value change
they predict."""

import pickle
import re
from dataclasses import replace

import numpy as np
import pytest

from dimwit import bellfmt, catalog
from dimwit.errors import DimensionMismatchError, InvalidModelError
from dimwit.grothendieck import CorrelationFunctional, correlator_bell
from dimwit.scenario import (
    BellFunctional,
    BellScenario,
    QuantumModel,
    bell_operator,
    contraction_matrix,
    model_stacks,
    model_value,
    party_operators,
    povm_stack,
    table_of,
)

from conftest import random_functional, random_hermitian

RAGGED = BellScenario((2, 3), (3, 2))


def kron_bell_operator(f, povms_a, povms_b):
    """Reference Bell operator: one np.kron per nonzero coefficient row, with
    the marginals against the partner's identity and the constant on I."""
    d_a = povms_a[0][0].shape[0]
    d_b = povms_b[0][0].shape[0]
    dim = d_a * d_b
    coefficients = f.coefficients
    op = np.zeros((dim, dim), dtype=complex)
    for x, va in enumerate(f.scenario.outcomes_a):
        for y, vb in enumerate(f.scenario.outcomes_b):
            blk = coefficients[x, y, :va, :vb]
            if not blk.any():
                continue
            for a in range(f.scenario.outcomes_a[x]):
                row = blk[a]
                if not row.any():
                    continue
                partner = np.zeros((d_b, d_b), dtype=complex)
                for b in range(f.scenario.outcomes_b[y]):
                    if row[b] != 0.0:
                        partner = partner + row[b] * povms_b[y][b]
                op += np.kron(povms_a[x][a], partner)
    acc_a = np.zeros((d_a, d_a), dtype=complex)
    for x, va in enumerate(f.scenario.outcomes_a):
        for a, c in enumerate(coefficients[x, -1, :va, 0]):
            if c != 0.0:
                acc_a = acc_a + c * povms_a[x][a]
    if acc_a.any():
        op += np.kron(acc_a, np.eye(d_b))
    acc_b = np.zeros((d_b, d_b), dtype=complex)
    for y, vb in enumerate(f.scenario.outcomes_b):
        for b, c in enumerate(coefficients[-1, y, 0, :vb]):
            if c != 0.0:
                acc_b = acc_b + c * povms_b[y][b]
    if acc_b.any():
        op += np.kron(np.eye(d_a), acc_b)
    if f.constant != 0.0:
        op += f.constant * np.eye(dim)
    return op


def random_povm(rng, d, outcomes):
    """A generic (non-projective) POVM: S^{-1/2} G_a S^{-1/2} for random PSD G_a."""
    gs = []
    for _ in range(outcomes):
        x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        gs.append(x @ x.conj().T)
    w, v = np.linalg.eigh(sum(gs))
    inv_root = (v / np.sqrt(w)) @ v.conj().T
    return tuple(inv_root @ g @ inv_root for g in gs)


def random_state(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_model(rng, scenario, d_a, d_b, valid=True):
    """Valid POVMs, or (``valid=False``) arbitrary Hermitian elements that do
    not sum to the identity."""
    if valid:
        element = lambda d, v: random_povm(rng, d, v)
    else:
        element = lambda d, v: tuple(random_hermitian(rng, d) for _ in range(v))
    return QuantumModel(
        d_a,
        d_b,
        random_state(rng, d_a * d_b),
        tuple(element(d_a, v) for v in scenario.outcomes_a),
        tuple(element(d_b, v) for v in scenario.outcomes_b),
    )


def cases(rng):
    """(functional, model, valid) over ragged scenarios and E, functionals
    with every marginal and the constant nonzero and sparse ones, d_a != d_b,
    valid POVMs and arbitrary Hermitian elements."""
    for scenario in (RAGGED, RAGGED, catalog.expression_E().scenario):
        for sparsity in (0.0, 0.3):
            f = random_functional(rng, scenario, sparsity=sparsity)
            for d_a, d_b in ((2, 3), (3, 2), (4, 2)):
                for valid in (True, False):
                    yield f, random_model(rng, scenario, d_a, d_b, valid), valid
    f = catalog.expression_E()
    for valid in (True, False):
        yield f, random_model(rng, f.scenario, 3, 2, valid), valid


def test_coefficient_tensor_layout():
    f = catalog.expression_E()
    c = f.coefficients
    assert c.shape == (3, 4, 3, 2)
    assert not c.flags.writeable
    assert c[-1, -1, 0, 0] == f.constant == -1.0
    assert c[0, -1, 0, 0] == 1.0
    assert not c[0, :, 2, :].any()  # Alice's binary setting padded to 3 outcomes
    assert not c[-1, :, 1:, :].any() and not c[:, -1, :, 1:].any()


def blockwise(op, *fs) -> BellFunctional:
    """The block constructor given op of the functionals' blocks and constants."""
    sc, cs = fs[0].scenario, [g.coefficients for g in fs]
    return BellFunctional(
        sc,
        [
            [op(*(c[x, y, :va, :vb] for c in cs)) for y, vb in enumerate(sc.outcomes_b)]
            for x, va in enumerate(sc.outcomes_a)
        ],
        [op(*(c[x, -1, :va, 0] for c in cs)) for x, va in enumerate(sc.outcomes_a)],
        [op(*(c[-1, y, 0, :vb] for c in cs)) for y, vb in enumerate(sc.outcomes_b)],
        op(*(g.constant for g in fs)),
    )


def assert_tensor_form(f: BellFunctional) -> None:
    """``f`` holds only its scenario and a read-only tensor, zero outside the blocks."""
    sc, c = f.scenario, f.coefficients
    used = np.zeros(c.shape, dtype=bool)
    for x, va in enumerate(sc.outcomes_a):
        for y, vb in enumerate(sc.outcomes_b):
            used[x, y, :va, :vb] = True
        used[x, -1, :va, 0] = True
    for y, vb in enumerate(sc.outcomes_b):
        used[-1, y, 0, :vb] = True
    used[-1, -1, 0, 0] = True
    assert not c[~used].any()
    assert set(vars(f)) == {"scenario", "coefficients"}
    assert not c.flags.writeable
    assert f.constant == c[-1, -1, 0, 0]


def test_every_constructor_stores_one_tensor(rng):
    for _ in range(30):
        f = random_functional(rng)
        g = random_functional(rng, f.scenario)
        cases = [
            (f, blockwise(lambda u: u, f)),
            (f + g, blockwise(lambda u, v: u + v, f, g)),
            (2.5 * f, blockwise(lambda u: 2.5 * u, f)),
            (f * -0.75, blockwise(lambda u: u * -0.75, f)),
            (f.scaled(3.0), blockwise(lambda u: 3.0 * u, f)),
            (-f, blockwise(lambda u: -u, f)),
            (bellfmt.parse_functional(bellfmt.serialize_functional(f)), f),
        ]
        for got, expected in cases:
            assert_tensor_form(got)
            assert got == expected
    for m in (1, 4, 7):
        matrix = rng.normal(size=(m, m))
        pattern = np.array([[1.0, -1.0], [-1.0, 1.0]])
        got = correlator_bell(CorrelationFunctional(matrix))
        assert_tensor_form(got)
        assert got == BellFunctional(
            BellScenario((2,) * m, (2,) * m),
            [[matrix[i, j] * pattern for j in range(m)] for i in range(m)],
        )


def test_pickle_rebuilds_a_read_only_functional_from_its_tensor():
    """A loaded functional goes through ``_from_coefficients`` again: equal,
    holding its scenario and tensor only, read-only, and pickled as little
    more than the tensor's data."""
    matrix = np.random.default_rng(17).normal(size=(17, 17))
    for f in (catalog.expression_E(), correlator_bell(CorrelationFunctional(matrix))):
        data = pickle.dumps(f)
        g = pickle.loads(data)
        assert g == f
        assert set(vars(g)) == {"scenario", "coefficients"}
        assert not g.coefficients.flags.writeable
        assert len(data) <= f.coefficients.nbytes + 1024


def test_functional_copies_the_callers_blocks():
    sc = BellScenario((2,), (2, 3))
    joint = [[np.ones((2, 2)), np.ones((2, 3))]]
    marginal_a, marginal_b = [np.ones(2)], [np.ones(2), np.ones(3)]
    f = BellFunctional(sc, joint, marginal_a, marginal_b, 1.0)
    before = f.coefficients.copy()
    joint[0][1][1, 2] = marginal_a[0][1] = marginal_b[1][2] = 7.0
    assert np.array_equal(f.coefficients, before)
    with pytest.raises(ValueError):
        f.coefficients[0, 1, 1, 2] = 7.0


@pytest.mark.parametrize(
    "blocks, name",
    [
        ({"joint": [[np.zeros((2, 2)), np.zeros((2, 2))]]}, "joint block (0,1)"),
        ({"joint": [[np.zeros((2, 2)), np.zeros((1, 3))]]}, "joint block (0,1)"),
        ({"marginal_a": [np.zeros(3)]}, "marginal_a[0]"),
        ({"marginal_b": [np.zeros(2), np.zeros((3, 1))]}, "marginal_b[1]"),
    ],
)
def test_wrong_block_shape_is_named(blocks, name):
    with pytest.raises(DimensionMismatchError, match=re.escape(name)):
        BellFunctional(BellScenario((2,), (2, 3)), **blocks)


_Z2, _Z22 = np.zeros(2), np.zeros((2, 2))


@pytest.mark.parametrize(
    "blocks, message",
    [
        ({"joint": [[_Z22]]}, "joint has 1 entries, expected 2"),
        ({"joint": [[_Z22], [_Z22], [_Z22]]}, "joint has 3 entries, expected 2"),
        ({"joint": [[_Z22], [_Z22, _Z22]]}, "joint[1] has 2 entries, expected 1"),
        ({"joint": [[_Z22], []]}, "joint[1] has 0 entries, expected 1"),
        ({"marginal_a": [_Z2] * 3}, "marginal_a has 3 entries, expected 2"),
        ({"marginal_a": [_Z2]}, "marginal_a has 1 entries, expected 2"),
        ({"marginal_b": [_Z2] * 2}, "marginal_b has 2 entries, expected 1"),
        ({"marginal_b": []}, "marginal_b has 0 entries, expected 1"),
    ],
)
def test_wrong_block_count_is_named(blocks, message):
    with pytest.raises(DimensionMismatchError, match=re.escape(message)):
        BellFunctional(BellScenario((2, 2), (2,)), **blocks)


def test_bell_operator_matches_kron_reference(rng):
    for f, m, _ in cases(rng):
        op = bell_operator(f, m.povms_a, m.povms_b)
        ref = kron_bell_operator(f, m.povms_a, m.povms_b)
        assert op.shape == ref.shape
        assert np.abs(op - ref).max() < 1e-12


def test_model_value_matches_kron_reference(rng):
    for f, m, _ in cases(rng):
        ref = np.vdot(m.state, kron_bell_operator(f, m.povms_a, m.povms_b) @ m.state).real
        assert abs(model_value(f, m) - ref) < 1e-12


def test_table_of_matches_kron_reference(rng):
    for _, m, valid in cases(rng):
        if not valid:
            continue
        t = table_of(m)
        for x, setting_a in enumerate(m.povms_a):
            for y, setting_b in enumerate(m.povms_b):
                for a, ma in enumerate(setting_a):
                    for b, mb in enumerate(setting_b):
                        ref = np.vdot(m.state, np.kron(ma, mb) @ m.state).real
                        assert abs(t.p[x][y][a, b] - ref) < 1e-12


def test_povm_stack_layout(rng):
    """The stack is read-only at the width of the largest setting; an empty
    party or setting, or an element of the wrong shape, is rejected."""
    m = random_model(rng, RAGGED, 2, 3)
    stack = povm_stack(m.povms_a)
    assert stack.shape == (3, 3, 2, 2) and not stack.flags.writeable
    assert np.array_equal(stack[1, 2], m.povms_a[1][2])
    assert not stack[0, 2:].any() and not stack[-1, 1:].any()
    assert np.array_equal(stack[-1, 0], np.eye(2))
    for empty in ((), (m.povms_a[0], ())):
        with pytest.raises(InvalidModelError, match="at least one setting and an element in each"):
            povm_stack(empty)
    with pytest.raises(DimensionMismatchError, match=r"POVM element \(1,2\) has shape \(3, 3\)"):
        povm_stack((m.povms_a[0], (*m.povms_a[1][:2], np.eye(3))))


def with_setting(m, party, setting, elements):
    povms = list(m.povms_a if party == "A" else m.povms_b)
    povms[setting] = tuple(elements)
    if party == "A":
        return replace(m, povms_a=tuple(povms))
    return replace(m, povms_b=tuple(povms))


def setting_operators(f, m, party):
    """``party_operators`` of one model: a (settings, width, d, d) array of
    the per-outcome operators F[x, a] of each of the party's settings."""
    stack_a, stack_b = model_stacks(f, m)
    return party_operators(contraction_matrix(f), m.state[None], stack_a[None], stack_b[None], party)[0]


def test_setting_operators_predict_value_change(rng):
    """The value is affine in one setting's elements, so replacing POVM M by N
    changes it by exactly sum_a tr((N_a - M_a) F_a), with F the setting's row
    of the party-wide operator stack; outcomes past the count are zero."""
    for f, m, valid in cases(rng):
        if not valid:
            continue
        before = model_value(f, m)
        for party, povms, d in (("A", m.povms_a, m.d_a), ("B", m.povms_b, m.d_b)):
            stack = setting_operators(f, m, party)
            assert stack.shape == (len(povms), max(map(len, povms)), d, d)
            for setting, old in enumerate(povms):
                ops = stack[setting, : len(old)]
                assert not stack[setting, len(old) :].any()
                for op in ops:
                    assert np.array_equal(op, op.conj().T)
                new = random_povm(rng, d, len(old))
                predicted = sum(
                    np.trace((n - o) @ op).real for n, o, op in zip(new, old, ops)
                )
                after = model_value(f, with_setting(m, party, setting, new))
                assert abs(after - before - predicted) < 1e-12


def test_setting_operators_ignore_the_partys_own_povms(rng):
    """A party's per-setting operators are, bit for bit, the same after its
    own POVMs are replaced by random ones, valid or not, so the settings of
    a party step do not interact."""
    for f, m, _ in cases(rng):
        for party in ("A", "B"):
            other = random_model(rng, f.scenario, m.d_a, m.d_b, valid=bool(rng.integers(2)))
            name = "povms_a" if party == "A" else "povms_b"
            swapped = replace(m, **{name: getattr(other, name)})
            assert np.array_equal(setting_operators(f, swapped, party), setting_operators(f, m, party))
