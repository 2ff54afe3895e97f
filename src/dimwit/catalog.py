"""Constructors for the bundled Bell functionals, special states, reference
bounds, and the dimension-witness gap report.

Catalog names (also used by the CLI): ``cglmp-c``, ``cglmp-d``, ``iphi:<phi>``,
``E``, ``chsh``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .localbound import local_bound
from .scenario import BellFunctional, BellScenario, BoundRecord
from .seesaw import SeesawConfig, seesaw

#: Fixed-dimension see-saw values are lower bounds found by a heuristic search,
#: not certified maxima; reports carry this label.
HEURISTIC_LABEL = "best found (heuristic)"

#: Reference constants used as certified upper bounds in soundness checks.
E_QUBIT_MAX = 1.0 / math.sqrt(2.0) - 0.5  # certified for two-qubit models
E_QUANTUM_REPORTED = 0.2532  # reported overall maximum (two-qutrit), 4-digit rounding
CGLMP_QUTRIT_REPORTED = 0.3050  # reported two-qutrit maximum, 4-digit rounding


def cglmp_scenario() -> BellScenario:
    return BellScenario((3, 3), (3, 3))


def cglmp_C() -> BellFunctional:
    """CGLMP expression for two ternary settings per side, local bound 0.

    Sum of the four comparison probabilities P(b0>=a0), P(a0>=b1), P(a1>=b0),
    P(b1>a1), shifted by -3.
    """
    sc = cglmp_scenario()
    joint = [[np.zeros((3, 3)) for _ in range(2)] for _ in range(2)]
    for a in range(3):
        for b in range(3):
            if b >= a:
                joint[0][0][a, b] += 1.0
            if a >= b:
                joint[0][1][a, b] += 1.0
            if a >= b:
                joint[1][0][a, b] += 1.0
            if b > a:
                joint[1][1][a, b] += 1.0
    return BellFunctional(sc, joint, constant=-3.0)


def cglmp_D() -> BellFunctional:
    """Companion expression: minus the total weight on one selected outcome
    pairing per setting pair, b = a - 1 - (x-1)(y-1) taken mod 3.

    Never positive on any table (all coefficients are <= 0).
    """
    sc = cglmp_scenario()
    joint = [[np.zeros((3, 3)) for _ in range(2)] for _ in range(2)]
    for x in range(2):
        for y in range(2):
            for k in range(3):
                b = (k - 1 - (x - 1) * (y - 1)) % 3
                joint[x][y][k, b] -= 1.0
    return BellFunctional(sc, joint)


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
    joint[0][0][0, 0] -= 1.0
    joint[0][1][0, 0] -= 1.0
    joint[0][2][0, 0] -= 1.0
    joint[1][0][0, 0] += 1.0
    joint[1][1][1, 0] += 1.0
    joint[1][2][2, 0] += 1.0
    marginal_a = [np.zeros(2), np.zeros(3)]
    marginal_a[0][0] = 1.0
    return BellFunctional(sc, joint, marginal_a=marginal_a, constant=-1.0)


def chsh() -> BellFunctional:
    """CHSH in correlator form with signs (+,+,+,-): classical bound 2,
    quantum maximum 2*sqrt(2)."""
    sc = BellScenario((2, 2), (2, 2))
    signs = ((1.0, 1.0), (1.0, -1.0))
    joint = [
        [signs[x][y] * np.array([[1.0, -1.0], [-1.0, 1.0]]) for y in range(2)]
        for x in range(2)
    ]
    return BellFunctional(sc, joint)


def gamma_state(gamma: float) -> np.ndarray:
    """(|00> + gamma |11> + |22>) / sqrt(2 + gamma^2) on two qutrits."""
    if not math.isfinite(gamma):
        raise ConfigError(f"gamma must be finite, got {gamma}")
    v = np.zeros(9, dtype=complex)
    v[0] = 1.0
    v[4] = gamma
    v[8] = 1.0
    return v / math.sqrt(2.0 + gamma * gamma)


def theta_state(theta: float) -> np.ndarray:
    """cos(theta)|00> + sin(theta)|11> on two qubits."""
    if not math.isfinite(theta):
        raise ConfigError(f"theta must be finite, got {theta}")
    v = np.zeros(4, dtype=complex)
    v[0] = math.cos(theta)
    v[3] = math.sin(theta)
    return v


def theta_state_violation(theta: float) -> float:
    """Best two-qubit violation of expression_E on theta_state(theta):
    (sqrt(1 + sin^2(2 theta)) - 1) / 2."""
    s = math.sin(2.0 * theta)
    return (math.sqrt(1.0 + s * s) - 1.0) / 2.0


CATALOG_NAMES = ("cglmp-c", "cglmp-d", "E", "chsh")


def _iphi_angle(name: str) -> float:
    """The finite angle phi of an ``iphi:<phi>`` name; ``ConfigError`` otherwise."""
    try:
        phi = float(name.split(":", 1)[1])
    except ValueError:
        phi = math.nan
    if not math.isfinite(phi):
        raise ConfigError(f"bad iphi angle in {name!r}")
    return phi


def by_name(name: str) -> BellFunctional:
    """Resolve a catalog name (``cglmp-c``, ``cglmp-d``, ``E``, ``chsh``, or
    ``iphi:<phi>`` with a decimal phi in radians)."""
    if name == "cglmp-c":
        return cglmp_C()
    if name == "cglmp-d":
        return cglmp_D()
    if name == "E":
        return expression_E()
    if name == "chsh":
        return chsh()
    if name.startswith("iphi:"):
        return i_phi(_iphi_angle(name))
    raise ConfigError(
        f"unknown catalog name {name!r}; expected one of {CATALOG_NAMES} or iphi:<phi>"
    )


def reference_bounds(name: str) -> BoundRecord | None:
    """Published reference constants for the bundled functionals, stored as
    certified upper bounds with a provenance note (None when we track none,
    and for any ``iphi:`` angle that ``by_name`` rejects)."""
    if name == "E":
        return BoundRecord(
            local_bound=0.0,
            certified_upper={
                2: (E_QUBIT_MAX, "certified two-qubit maximum (convex-relaxation bound)"),
                3: (E_QUANTUM_REPORTED, "reported overall maximum, 4-digit rounding"),
            },
        )
    if name == "cglmp-c":
        return BoundRecord(
            local_bound=0.0,
            certified_upper={
                3: (CGLMP_QUTRIT_REPORTED, "reported two-qutrit maximum, 4-digit rounding")
            },
        )
    if name.startswith("iphi:"):
        try:
            phi = _iphi_angle(name)
        except ConfigError:
            return None
        # the whole tan(phi) >= 1 band has qubit maximum equal to the local bound
        if math.tan(phi) >= 1.0 and math.cos(phi) > 0.0:
            return BoundRecord(
                local_bound=0.0,
                certified_upper={2: (0.0, "two-qubit maximum coincides with the local bound")},
            )
    return None


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


def witness_report(
    f: BellFunctional,
    d: int,
    cfg: SeesawConfig | None = None,
    gap_threshold: float = 1e-3,
    functional_id: str = "",
    jobs: int = 1,
) -> WitnessReport:
    """Compare best-found values at local dimensions (d, d) and (d+1, d+1).

    ``value_d`` is a heuristic best-found lower bound, not a certified
    maximum, so "Witnessed" means the search separated the dimensions by more
    than ``gap_threshold``, not a proof.
    """
    if d < 2:
        raise ConfigError(f"witness dimension must be >= 2, got {d}")
    if not math.isfinite(gap_threshold):
        raise ConfigError(f"gap threshold must be finite, got {gap_threshold}")
    cfg = SeesawConfig() if cfg is None else cfg
    bound, _ = local_bound(f)
    value_d = seesaw(f, d, d, cfg, jobs=jobs).best_value
    value_d_plus = seesaw(f, d + 1, d + 1, cfg, jobs=jobs).best_value
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
    ``value_d<d>`` for each requested dimension.  A non-finite angle anywhere
    in the grid is a ``ConfigError`` before any see-saw runs.
    """
    phis = np.asarray(phis, dtype=float)
    if not np.isfinite(phis).all():
        raise ConfigError("phi grid has a non-finite angle")
    cfg = SeesawConfig() if cfg is None else cfg
    rows = []
    for phi in phis:
        f = i_phi(phi)
        bound, _ = local_bound(f)
        row = {"phi": float(phi), "local_bound": bound}
        for d in dims:
            row[f"value_d{d}"] = seesaw(f, d, d, cfg, jobs=jobs).best_value
        rows.append(row)
    return rows
