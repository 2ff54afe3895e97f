"""Constructors for the bundled Bell functionals, special states and the
dimension-witness gap report.

Catalog names (also used by the CLI) are ``CATALOG_NAMES`` and ``iphi:<phi>``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, check_count
from .grothendieck import CorrelationFunctional, correlator_bell
from .localbound import local_bound
from .scenario import BellFunctional, BellScenario
from .seesaw import SeesawConfig, seesaw

#: Fixed-dimension see-saw values are lower bounds found by a heuristic search,
#: not certified maxima; reports carry this label.
HEURISTIC_LABEL = "best found (heuristic)"
#: ``witness_report`` calls a gap above this "Witnessed" unless told otherwise.
GAP_THRESHOLD = 1e-3

#: The two-qubit maximum of E, (sqrt(2) - 1)/2.
E_QUBIT_MAX = 1.0 / math.sqrt(2.0) - 0.5
#: A reported value of E's two-qutrit maximum, rounded to 4 digits; it
#: certifies nothing.
E_QUANTUM_REPORTED = 0.2532


def cglmp_scenario() -> BellScenario:
    return BellScenario((3, 3), (3, 3))


def cglmp_C() -> BellFunctional:
    """CGLMP expression for two ternary settings per side, local bound 0.

    Sum of the four comparison probabilities P(b0>=a0), P(a0>=b1), P(a1>=b0),
    P(b1>a1), shifted by -3.
    """
    a, b = np.indices((3, 3))
    joint = [[b >= a, a >= b], [a >= b, b > a]]
    return BellFunctional(cglmp_scenario(), joint, constant=-3.0)


def cglmp_D() -> BellFunctional:
    """Companion expression: minus the total weight on one selected outcome
    pairing per setting pair, b = a - 1 - (x-1)(y-1) taken mod 3.

    Never positive on any table (all coefficients are <= 0).
    """
    x, y, a, b = np.indices((2, 2, 3, 3))
    return BellFunctional(cglmp_scenario(), np.where(b == (a - 1 - (x - 1) * (y - 1)) % 3, -1.0, 0.0))


def i_phi(phi: float) -> BellFunctional:
    """Direction-phi combination cos(phi)*C + sin(phi)*D of the two CGLMP-family
    expressions; sweeping phi traces the boundary of their joint range."""
    return math.cos(phi) * cglmp_C() + math.sin(phi) * cglmp_D()


def expression_E() -> BellFunctional:
    """Bell expression on A:2,3 B:2,2,2 (all settings binary except Alice's
    second, which is ternary), local bound 0; its two-qubit maximum is
    strictly below its two-qutrit maximum."""
    sc = BellScenario((2, 3), (2, 2, 2))
    joint = [[np.zeros((va, vb)) for vb in sc.outcomes_b] for va in sc.outcomes_a]
    for y in range(3):
        joint[0][y][0, 0] = -1.0
        joint[1][y][y, 0] = 1.0
    marginal_a = [[1.0, 0.0], [0.0, 0.0, 0.0]]
    return BellFunctional(sc, joint, marginal_a=marginal_a, constant=-1.0)


def chsh() -> BellFunctional:
    """CHSH in correlator form with signs (+,+,+,-): classical bound 2,
    quantum maximum 2*sqrt(2)."""
    return correlator_bell(CorrelationFunctional([[1.0, 1.0], [1.0, -1.0]]))


def gamma_state(gamma: float) -> np.ndarray:
    """(|00> + gamma |11> + |22>) / sqrt(2 + gamma^2) on two qutrits; the norm
    is taken by ``hypot``, as gamma^2 overflows for |gamma| past 1e154."""
    if not math.isfinite(gamma):
        raise ConfigError(f"gamma must be finite, got {gamma}")
    v = np.zeros(9, dtype=complex)
    v[0] = 1.0
    v[4] = gamma
    v[8] = 1.0
    return v / math.hypot(1.0, gamma, 1.0)


def theta_state(theta: float) -> np.ndarray:
    """cos(theta)|00> + sin(theta)|11> on two qubits."""
    if not math.isfinite(theta):
        raise ConfigError(f"theta must be finite, got {theta}")
    v = np.zeros(4, dtype=complex)
    v[0] = math.cos(theta)
    v[3] = math.sin(theta)
    return v


#: The named catalog functionals; ``by_name`` also takes ``iphi:<phi>``.
_CONSTRUCTORS = {"cglmp-c": cglmp_C, "cglmp-d": cglmp_D, "E": expression_E, "chsh": chsh}
CATALOG_NAMES = tuple(_CONSTRUCTORS)


def by_name(name: str) -> BellFunctional:
    """Resolve a catalog name: one of ``CATALOG_NAMES``, or ``iphi:<phi>``
    with a decimal phi in radians."""
    if name in _CONSTRUCTORS:
        return _CONSTRUCTORS[name]()
    if name.startswith("iphi:"):
        try:
            phi = float(name.split(":", 1)[1])
        except ValueError:
            phi = math.nan
        if not math.isfinite(phi):
            raise ConfigError(f"bad iphi angle in {name!r}")
        return i_phi(phi)
    raise ConfigError(
        f"unknown catalog name {name!r}; expected one of {CATALOG_NAMES} or iphi:<phi>"
    )


@dataclass(frozen=True)
class WitnessReport:
    """Gap report between best-found values at dimensions d and d+1."""

    functional_id: str
    dimension: int
    local_bound: float
    value_d: float
    value_d_plus: float
    gap: float
    threshold: float
    verdict: str
    value_label: str = HEURISTIC_LABEL

    def witnessed(self) -> bool:
        return self.verdict == "Witnessed"


def _best_found(f: BellFunctional, dims, cfg: SeesawConfig | None, jobs: int) -> tuple[float, list[float]]:
    """``f``'s exact local bound, then its best-found see-saw value at (d, d)
    for each d of ``dims`` in order: the per-dimension run of both reports."""
    bound, _ = local_bound(f)
    return bound, [seesaw(f, d, d, cfg, jobs=jobs).best_value for d in dims]


def witness_report(
    f: BellFunctional,
    d: int,
    cfg: SeesawConfig | None = None,
    gap_threshold: float = GAP_THRESHOLD,
    functional_id: str = "",
    jobs: int = 1,
) -> WitnessReport:
    """Compare best-found values at local dimensions (d, d) and (d+1, d+1).

    ``value_d`` is a heuristic best-found lower bound, not a certified
    maximum, so "Witnessed" means the search separated the dimensions by more
    than ``gap_threshold``, not a proof.
    """
    d = check_count(d, "witness dimension", 2)
    if not 0.0 <= gap_threshold < math.inf:
        raise ConfigError(f"gap threshold must be finite and >= 0, got {gap_threshold}")
    bound, (value_d, value_d_plus) = _best_found(f, (d, d + 1), cfg, jobs)
    gap = value_d_plus - value_d
    verdict = "Witnessed" if gap > gap_threshold else "NotWitnessed"
    return WitnessReport(
        functional_id=functional_id,
        dimension=d,
        local_bound=bound,
        value_d=value_d,
        value_d_plus=value_d_plus,
        gap=gap,
        threshold=gap_threshold,
        verdict=verdict,
    )


def iphi_sweep(phis, dims=(2, 3), cfg: SeesawConfig | None = None, jobs: int = 1):
    """Local bound and per-dimension best-found values along a phi grid.

    Returns one dict per grid point with keys ``phi``, ``local_bound``, and
    ``value_d<d>`` for each requested dimension.  A grid that is not a
    one-dimensional sequence of reals, or has a non-finite angle, is a
    ``ConfigError`` before any see-saw runs.
    """
    try:
        phis = np.asarray(phis, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError(f"phi grid must be a sequence of real angles, got {phis!r}") from None
    if phis.ndim != 1:
        raise ConfigError(f"phi grid must be one-dimensional, got shape {phis.shape}")
    if not np.isfinite(phis).all():
        raise ConfigError("phi grid has a non-finite angle")
    rows = []
    for phi in phis:
        bound, values = _best_found(i_phi(phi), dims, cfg, jobs)
        rows.append({"phi": float(phi), "local_bound": bound, **{f"value_d{d}": v for d, v in zip(dims, values)}})
    return rows
