"""Bell scenarios, functionals, probability tables, and quantum models.

A scenario fixes the per-setting outcome counts for the two parties; a
functional is the linear form

    value = sum_{abxy} joint[x][y][a,b] P(ab|xy)
          + sum_{xa} marginal_a[x][a] P_A(a|x)
          + sum_{yb} marginal_b[y][b] P_B(b|y)
          + constant

evaluated either on a raw probability table (``evaluate``) or on a quantum
model.  A functional stores its scenario and coefficient tensor
(``BellFunctional.coefficients``) only; each block above is a slice of the
tensor.  Every quantum-side quantity - the Bell operator, the model's value, its
probability table, and the see-saw's per-setting operators - is a contraction
of that tensor with the parties' stacked POVMs (``povm_stack``), which is
also the one form in which a ``QuantumModel`` stores its measurements.  The
batched functions do these contractions for a batch of models at once, the
Bell operator and the per-setting operators by one prebuilt
``contraction_matrix``, and the single-model functions are batches of one.
``evaluate`` keeps its own loops over the blocks as an independent recompute
path.  All types are immutable values and every operation is a pure function.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import (
    ConfigError,
    DimensionMismatchError,
    InvalidFunctionalError,
    InvalidModelError,
    InvalidScenarioError,
    InvalidTableError,
    ScenarioMismatchError,
    SignalingError,
)

TABLE_TOL = 1e-9
RENORMALIZE_LIMIT = 1e-7
STATE_NORM_TOL = 1e-10
POVM_TOL = 1e-9
SIGNALING_TOL = 1e-6

#: Marginals of a raw table use the partner's setting 0 by default; experimental
#: tables may signal slightly, and a fixed convention keeps evaluation
#: deterministic.  "average" averages over partner settings and rejects tables
#: whose per-partner-setting marginals disagree by more than SIGNALING_TOL.
PARTNER_SETTING_ZERO = "partner-setting-zero"
AVERAGE = "average"


@dataclass(frozen=True)
class BellScenario:
    """Outcome counts per measurement setting for Alice and Bob."""

    outcomes_a: tuple[int, ...]
    outcomes_b: tuple[int, ...]

    def __post_init__(self):
        for party in ("outcomes_a", "outcomes_b"):
            try:
                object.__setattr__(self, party, tuple(operator.index(v) for v in getattr(self, party)))
            except TypeError:
                raise InvalidScenarioError(f"{party} must be integer counts, got {getattr(self, party)!r}") from None
        if not self.outcomes_a or not self.outcomes_b:
            raise InvalidScenarioError("each party needs at least one setting")
        if min(self.outcomes_a) < 2 or min(self.outcomes_b) < 2:
            raise InvalidScenarioError("every setting needs at least two outcomes")

    @property
    def settings_a(self) -> int:
        return len(self.outcomes_a)

    @property
    def settings_b(self) -> int:
        return len(self.outcomes_b)


def _coefficient_shape(sc: BellScenario) -> tuple[int, int, int, int]:
    """Shape of a ``BellFunctional.coefficients`` tensor for the scenario."""
    return (sc.settings_a + 1, sc.settings_b + 1, max(sc.outcomes_a), max(sc.outcomes_b))


def _counted(items, count: int, name: str):
    if len(items) != count:
        raise DimensionMismatchError(f"{name} has {len(items)} entries, expected {count}")
    return items


def _block(arr, shape: tuple[int, ...], name: str) -> np.ndarray:
    """A float copy of ``arr``; ``DimensionMismatchError`` unless it has ``shape``."""
    out = np.array(arr, dtype=float)
    if out.shape != shape:
        raise DimensionMismatchError(f"{name} has shape {out.shape}, expected {shape}")
    return out


class BellFunctional:
    """Linear functional on probability tables of a fixed scenario.

    It stores its ``scenario`` and ``coefficients`` only: a read-only tensor C
    of shape (settings_a + 1, settings_b + 1, max(outcomes_a), max(outcomes_b)).
    Setting -1 of each party is an identity slot with the single outcome 0, so

        C[x, y, a, b] = joint[x][y][a, b]      C[x, -1, a, 0] = marginal_a[x][a]
        C[-1, y, 0, b] = marginal_b[y][b]      C[-1, -1, 0, 0] = constant

    and every other slot, including outcomes past a setting's count, is zero.
    With va = outcomes_a[x] and vb = outcomes_b[y], block (x, y) reads
    ``coefficients[x, y, :va, :vb]``, Alice's marginal ``[x, -1, :va, 0]`` and
    Bob's ``[-1, y, 0, :vb]``.  With operators stacked the same way
    (``povm_stack``), the value is sum C[x, y, a, b] <A_xa ⊗ B_yb> for any
    operators, whether or not they sum to the identity.  The constructor copies
    the blocks into a new C; a wrong block shape or count raises
    ``DimensionMismatchError``, a non-finite coefficient ``InvalidFunctionalError``.
    A pickle rebuilds it through ``_from_coefficients``, which checks and freezes C.
    """

    def __init__(self, scenario, joint=None, marginal_a=None, marginal_b=None, constant=0.0):
        c = np.zeros(_coefficient_shape(scenario))
        outcomes_a, outcomes_b = scenario.outcomes_a, scenario.outcomes_b
        if joint is not None:
            rows = _counted(joint, len(outcomes_a), "joint")
            for x, (va, row) in enumerate(zip(outcomes_a, rows)):
                blocks = _counted(row, len(outcomes_b), f"joint[{x}]")
                for y, (vb, blk) in enumerate(zip(outcomes_b, blocks)):
                    c[x, y, :va, :vb] = _block(blk, (va, vb), f"joint block ({x},{y})")
        # Bob's marginals fill the same slots of the party-swapped view of C.
        for name, counts, vectors, own in (
            ("marginal_a", outcomes_a, marginal_a, c),
            ("marginal_b", outcomes_b, marginal_b, c.transpose(1, 0, 3, 2)),
        ):
            if vectors is not None:
                for x, (v, vec) in enumerate(zip(counts, _counted(vectors, len(counts), name))):
                    own[x, -1, :v, 0] = _block(vec, (v,), f"{name}[{x}]")
        c[-1, -1, 0, 0] = float(constant)
        self._set(scenario, c)

    @classmethod
    def _from_coefficients(cls, scenario: BellScenario, c: np.ndarray) -> "BellFunctional":
        """A functional that takes ownership of the tensor ``c``, which must
        have the scenario's shape and zeros in every padding slot."""
        f = cls.__new__(cls)
        f._set(scenario, c)
        return f

    def _set(self, scenario: BellScenario, c: np.ndarray) -> None:
        if not np.isfinite(c).all():
            raise InvalidFunctionalError("functional has a non-finite coefficient")
        c.flags.writeable = False
        self.scenario = scenario
        self.coefficients = c

    def __reduce__(self):
        return BellFunctional._from_coefficients, (self.scenario, self.coefficients)

    @property
    def constant(self) -> float:
        return float(self.coefficients[-1, -1, 0, 0])

    def __eq__(self, other):
        if not isinstance(other, BellFunctional):
            return NotImplemented
        return self.scenario == other.scenario and np.array_equal(
            self.coefficients, other.coefficients
        )

    def __add__(self, other):
        if not isinstance(other, BellFunctional):
            return NotImplemented
        if self.scenario != other.scenario:
            raise ScenarioMismatchError("cannot add functionals of different scenarios")
        with np.errstate(over="ignore"):  # an overflow fails the finiteness check
            c = self.coefficients + other.coefficients
        return BellFunctional._from_coefficients(self.scenario, c)

    def scaled(self, alpha: float) -> "BellFunctional":
        # An overflow or inf * 0 gives inf or NaN, which the finiteness check rejects.
        with np.errstate(over="ignore", invalid="ignore"):
            c = alpha * self.coefficients
        return BellFunctional._from_coefficients(self.scenario, c)

    def __mul__(self, alpha):
        return self.scaled(float(alpha))

    __rmul__ = __mul__

    def __neg__(self):
        return self.scaled(-1.0)


class ProbabilityTable:
    """Conditional distribution P(ab|xy) with positivity/normalization checks.

    Entries must be >= -1e-12 and each setting pair must sum to 1 within
    1e-9.  Normalization misses up to 1e-7 can be repaired by passing
    ``renormalize=True``; the repair is recorded in ``was_renormalized``.
    A wrong number of blocks raises ``DimensionMismatchError``.
    """

    def __init__(self, scenario: BellScenario, p, renormalize: bool = False):
        self.scenario = scenario
        blocks = []
        renormalized = False
        for x, (va, given) in enumerate(zip(scenario.outcomes_a, _counted(p, scenario.settings_a, "table"))):
            row = []
            given = _counted(given, scenario.settings_b, f"table[{x}]")
            for y, (vb, blk) in enumerate(zip(scenario.outcomes_b, given)):
                blk = _block(blk, (va, vb), f"table block ({x},{y})")
                if not np.isfinite(blk).all():
                    raise InvalidTableError(f"non-finite probability at settings ({x},{y})")
                if blk.min() < -1e-12:
                    raise InvalidTableError(
                        f"negative probability {blk.min():.3e} at settings ({x},{y})"
                    )
                total = float(blk.sum())
                if abs(total - 1.0) > TABLE_TOL:
                    if renormalize and abs(total - 1.0) < RENORMALIZE_LIMIT and total > 0:
                        blk = blk / total
                        renormalized = True
                    else:
                        raise InvalidTableError(
                            f"probabilities for settings ({x},{y}) sum to {total!r}"
                        )
                blk.flags.writeable = False
                row.append(blk)
            blocks.append(tuple(row))
        self.p = tuple(blocks)
        self.was_renormalized = renormalized

    def marginal_a(self, x: int, policy: str = PARTNER_SETTING_ZERO) -> np.ndarray:
        """P_A(a|x) under the given partner-setting policy."""
        return _marginal(self.p[x], 1, policy, f"Alice marginals for x={x}", "Bob")

    def marginal_b(self, y: int, policy: str = PARTNER_SETTING_ZERO) -> np.ndarray:
        """P_B(b|y) under the given partner-setting policy."""
        return _marginal([row[y] for row in self.p], 0, policy, f"Bob marginals for y={y}", "Alice")


def _marginal(blocks, axis: int, policy: str, name: str, partner: str) -> np.ndarray:
    """One party's marginal from its blocks against each partner setting in
    order, summing out the partner's outcomes along ``axis``."""
    if policy == PARTNER_SETTING_ZERO:
        return blocks[0].sum(axis=axis)
    if policy == AVERAGE:
        stack = np.stack([blk.sum(axis=axis) for blk in blocks])
        spread = float((stack.max(axis=0) - stack.min(axis=0)).max())
        if spread > SIGNALING_TOL:
            raise SignalingError(f"{name} vary by {spread:.3e} across {partner} settings")
        return stack.mean(axis=0)
    raise ConfigError(f"unknown marginal policy {policy!r}")


def evaluate(f: BellFunctional, t: ProbabilityTable, marginal_policy: str = PARTNER_SETTING_ZERO) -> float:
    """Value of the functional on a table.

    Marginal terms use the partner's setting 0 by default; pass ``AVERAGE`` to
    average over partner settings instead (raises ``SignalingError`` if the
    table's marginals depend on the partner setting by more than 1e-6).
    An unknown policy raises ``ConfigError``, checked before any term is
    summed, and a value beyond the float range ``InvalidFunctionalError``.
    """
    if f.scenario != t.scenario:
        raise ScenarioMismatchError("functional and table use different scenarios")
    if marginal_policy not in (PARTNER_SETTING_ZERO, AVERAGE):
        raise ConfigError(f"unknown marginal policy {marginal_policy!r}")
    c, sc, total = f.coefficients, f.scenario, f.constant
    with np.errstate(over="ignore", invalid="ignore"):
        for x, va in enumerate(sc.outcomes_a):
            for y, vb in enumerate(sc.outcomes_b):
                if (blk := c[x, y, :va, :vb]).any():
                    total += float((blk * t.p[x][y]).sum())
        # Bob's marginals are the same slots of the party-swapped view of C.
        parties = (c, sc.outcomes_a, t.marginal_a), (c.transpose(1, 0, 3, 2), sc.outcomes_b, t.marginal_b)
        for own, counts, table_marginal in parties:
            for s, v in enumerate(counts):
                if (coeffs := own[s, -1, :v, 0]).any():
                    total += float(coeffs @ table_marginal(s, marginal_policy))
    if not np.isfinite(total):
        raise InvalidFunctionalError(f"the value is beyond the float range: {total}")
    return total


@dataclass(frozen=True, eq=False)
class QuantumModel:
    """Pure state on C^dA x C^dB with one POVM per setting for each party.

    Each party's measurements are stored once, as its ``povm_stack`` array
    ``stack_a`` / ``stack_b``, built by the constructor; ``povms_a`` /
    ``povms_b`` are tuples of read-only views into it, element a of setting x
    being ``stack[x, a]``.
    The constructor copies the given elements in, so ``dataclasses.replace``
    rebuilds the stacks.  A party without settings or a setting without
    elements raises ``InvalidModelError``, an element that is not d x d
    ``DimensionMismatchError``.  A pickle holds the constructor's arguments,
    each element once, and the stacks are rebuilt on load.  Models compare
    and hash by identity, as ``SeesawConfig`` does.
    """

    d_a: int
    d_b: int
    state: np.ndarray
    povms_a: tuple[tuple[np.ndarray, ...], ...]
    povms_b: tuple[tuple[np.ndarray, ...], ...]
    stack_a: np.ndarray = field(init=False, repr=False)
    stack_b: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        state = np.asarray(self.state, dtype=complex).reshape(-1)
        if state.shape != (self.d_a * self.d_b,):
            raise DimensionMismatchError(
                f"state has length {state.size}, expected {self.d_a * self.d_b}"
            )
        object.__setattr__(self, "state", state)
        for party, povms, d in (("a", self.povms_a, self.d_a), ("b", self.povms_b, self.d_b)):
            stack = povm_stack(povms)
            if stack.shape[-1] != d:
                raise DimensionMismatchError(f"povms_{party} elements are not {d}x{d}")
            object.__setattr__(self, f"stack_{party}", stack)
            object.__setattr__(self, f"povms_{party}", povm_views(stack, [len(s) for s in povms]))

    def __reduce__(self):
        return QuantumModel, (self.d_a, self.d_b, self.state, self.povms_a, self.povms_b)

    def outcome_counts(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        return tuple(len(s) for s in self.povms_a), tuple(len(s) for s in self.povms_b)

    def validate(self, scenario: BellScenario | None = None) -> None:
        """Raise ``InvalidModelError`` on any state-norm or POVM violation.
        Each setting is checked as its row of the stack: the zero elements
        past its outcome count pass every check and add nothing to its sum."""
        if not np.isfinite(self.state).all():
            raise InvalidModelError("state has non-finite entries")
        norm = float(np.linalg.norm(self.state))
        if abs(norm - 1.0) > STATE_NORM_TOL:
            raise InvalidModelError(f"state norm {norm!r} is not 1")
        counts = self.outcome_counts()
        if scenario is not None and counts != (scenario.outcomes_a, scenario.outcomes_b):
            raise InvalidModelError(f"POVM outcome counts {counts} do not match scenario")
        for name, stack, d in (("Alice", self.stack_a, self.d_a), ("Bob", self.stack_b, self.d_b)):
            for idx, setting in enumerate(stack[:-1]):
                if not np.isfinite(setting).all():
                    raise InvalidModelError(f"{name} setting {idx}: element has non-finite entries")
                dev = float(np.abs(setting - linalg._adjoint(setting)).max())
                if dev > POVM_TOL:
                    raise InvalidModelError(f"{name} setting {idx}: element not Hermitian (dev {dev:.2e})")
                low = float(linalg.eig_hermitian(setting)[0][:, -1].min())
                if low < -POVM_TOL:
                    raise InvalidModelError(f"{name} setting {idx}: eigenvalue {low:.2e} below -{POVM_TOL}")
                dev = float(np.abs(setting.sum(axis=0) - np.eye(d)).max())
                if dev > POVM_TOL:
                    raise InvalidModelError(
                        f"{name} setting {idx}: elements sum to identity only within {dev:.2e}"
                    )


def povm_stack(povms) -> np.ndarray:
    """One party's POVMs as a read-only (settings + 1, width, d, d) array laid
    out like ``BellFunctional.coefficients``, width being the largest
    setting's element count: element a of setting x at [x, a], the identity
    at [-1, 0], and zeros in every other slot.  A party without settings or a
    setting without elements raises ``InvalidModelError``; d is the first
    element's row count, and an element of another shape raises
    ``DimensionMismatchError``."""
    if not len(povms) or not all(len(s) for s in povms):
        raise InvalidModelError("a party needs at least one setting and an element in each")
    d = (np.shape(povms[0][0]) or (0,))[0]
    stack = np.zeros((len(povms) + 1, max(len(s) for s in povms), d, d), dtype=complex)
    for x, setting in enumerate(povms):
        for a, m in enumerate(setting):
            m = np.asarray(m)
            if m.shape != (d, d):
                raise DimensionMismatchError(f"POVM element ({x},{a}) has shape {m.shape}, expected ({d},{d})")
            stack[x, a] = m
    stack[-1, 0] = np.eye(d)
    stack.flags.writeable = False
    return stack


def povm_views(stack: np.ndarray, counts) -> tuple[tuple[np.ndarray, ...], ...]:
    """The POVMs of a ``povm_stack`` array as tuples of views: the first
    ``counts[x]`` elements of each setting x."""
    return tuple(tuple(stack[x, :v]) for x, v in enumerate(counts))


def _check_counts(f: BellFunctional, counts: tuple) -> None:
    if counts != (f.scenario.outcomes_a, f.scenario.outcomes_b):
        raise DimensionMismatchError(f"POVM outcome counts {counts} do not match the scenario")


def model_stacks(f: BellFunctional, m: QuantumModel) -> tuple[np.ndarray, np.ndarray]:
    """The model's stored POVM stacks, after checking its outcome counts
    against ``f``'s scenario: they then have the widths of ``f``'s
    coefficient tensor."""
    _check_counts(f, m.outcome_counts())
    return m.stack_a, m.stack_b


# The contractions below take a batch of B models: states as a (B, d_a d_b)
# array and each party's POVMs as a (B, settings + 1, width, d, d) array in the
# ``povm_stack`` layout.  Every product is a per-member matrix product, so a
# member's result does not depend on the rest of its batch.  The see-saw builds
# the ``contraction_matrix`` once per batch.


def _flat(stacks: np.ndarray) -> np.ndarray:
    """(B, settings + 1, width, d, d) stacks as (B, (settings + 1) width, d*d)."""
    n, x, w, d, _ = stacks.shape
    return stacks.reshape(n, x * w, d * d)


def contraction_matrix(f: BellFunctional) -> np.ndarray:
    """C as the complex matrix M[(x, a), (y, b)] = C[x, y, a, b] that turns
    Bob's flattened stack into K[x, a] = sum_yb C[x, y, a, b] B[y, b], and
    whose transpose turns Alice's into Bob's sums: one matrix for the Bell
    operator and both parties' operators."""
    c = f.coefficients
    x, y, w, v = c.shape
    return c.transpose(0, 2, 1, 3).reshape(x * w, y * v).astype(complex)


def bell_operators(matrix: np.ndarray, stacks_a: np.ndarray, stacks_b: np.ndarray) -> np.ndarray:
    """Bell operators sum_xa A_xa ⊗ K_xa of a batch, as (B, d_a d_b, d_a d_b),
    with K the partner sums of Bob's stacks by ``contraction_matrix(f)``."""
    n, d_a, d_b = len(stacks_a), stacks_a.shape[-1], stacks_b.shape[-1]
    op = _flat(stacks_a).swapaxes(-1, -2) @ (matrix @ _flat(stacks_b))
    return op.reshape(n, d_a, d_a, d_b, d_b).transpose(0, 1, 3, 2, 4).reshape(n, d_a * d_b, d_a * d_b)


def stacked_correlations(states: np.ndarray, stacks_a: np.ndarray, stacks_b: np.ndarray) -> np.ndarray:
    """T[i, x, y, a, b] = <psi_i| A_xa ⊗ B_yb |psi_i> = tr(Psi† A_xa Psi B_ybᵀ)
    over the stacked POVMs, identity slots included."""
    n, xa, wa, d_a, _ = stacks_a.shape
    _, xb, wb, d_b, _ = stacks_b.shape
    psi = states.reshape(n, 1, 1, d_a, d_b)
    reduced = linalg._adjoint(psi) @ stacks_a @ psi
    t = _flat(reduced) @ _flat(stacks_b).swapaxes(-1, -2)
    return t.real.reshape(n, xa, wa, xb, wb).transpose(0, 1, 3, 2, 4)


def party_operators(
    matrix: np.ndarray, states: np.ndarray, stacks_a: np.ndarray, stacks_b: np.ndarray, party: str
) -> np.ndarray:
    """Per-outcome Hermitian operators F[i, x, a] of member i for each
    setting x of one party, with ``matrix = contraction_matrix(f)``, such
    that the objective restricted to setting x's POVM is
    sum_a tr(M_xa F[i, x, a]) plus terms independent of it.

    Returns a (B, settings, width, d, d) array; outcomes past a setting's
    count are zero.  For Alice, F = Psi K_xaᵀ Psi† with K_xa = sum_yb
    C[x, y, a, b] B_yb from the rows of ``matrix`` for her settings, and Psi
    the state as a d_a x d_b matrix.  Bob is the same contraction with the
    parties swapped: the rows of ``matrix``ᵀ, Alice's POVMs, and Psiᵀ.  F of
    one setting reads only the state and the partner's POVMs.
    """
    psi = states.reshape(len(states), 1, 1, stacks_a.shape[-1], stacks_b.shape[-1])
    own, partner = (stacks_a, stacks_b) if party == "A" else (stacks_b, stacks_a)
    psi, matrix = (psi, matrix) if party == "A" else (psi.swapaxes(-1, -2), matrix.T)
    n, settings, width = own.shape[0], own.shape[1] - 1, own.shape[2]
    k = (matrix[: settings * width] @ _flat(partner)).reshape(n, settings, width, *partner.shape[-2:])
    return linalg._hermitian_part(psi @ k.swapaxes(-1, -2) @ linalg._adjoint(psi))


def bell_operator(f: BellFunctional, povms_a, povms_b) -> np.ndarray:
    """Operator whose expectation in a state gives the functional's value;
    the POVMs are checked as a ``QuantumModel``'s are, then against ``f``'s
    outcome counts."""
    stack_a, stack_b = povm_stack(povms_a), povm_stack(povms_b)
    _check_counts(f, (tuple(len(s) for s in povms_a), tuple(len(s) for s in povms_b)))
    return bell_operators(contraction_matrix(f), stack_a[None], stack_b[None])[0]


def model_value(f: BellFunctional, m: QuantumModel) -> float:
    """<psi| B |psi> for the functional's Bell operator B, computed as
    sum C * T over the model's correlations without building B."""
    t = stacked_correlations(m.state[None], *(s[None] for s in model_stacks(f, m)))
    return float((f.coefficients * t).reshape(1, f.coefficients.size).sum(axis=1)[0])


def table_of(m: QuantumModel) -> ProbabilityTable:
    """Probability table generated by the model; no-signaling by construction."""
    counts_a, counts_b = m.outcome_counts()
    t = stacked_correlations(m.state[None], m.stack_a[None], m.stack_b[None])[0]
    blocks = [[t[x, y, :va, :vb] for y, vb in enumerate(counts_b)] for x, va in enumerate(counts_a)]
    return ProbabilityTable(BellScenario(counts_a, counts_b), blocks)
