"""Text formats: `.bell` functional files, correlation-matrix CSV, table CSV.

The functional grammar is line oriented, with ``#`` comments and optional
blank lines (LF or CRLF; LF is emitted):

    scenario A:<v0>,<v1>,... B:<v0>,...
    const <signed-real>
    <signed-real> P(<a> <b>|<x> <y>)
    <signed-real> PA(<a>|<x>)
    <signed-real> PB(<b>|<y>)

Reals are decimals (scientific notation accepted) or rationals ``p/q``; a
coefficient is kept as the double nearest its value, not as its text.
Duplicate terms are summed.  ``parse_functional`` reads the lines once,
adding each term at its index of the coefficient tensor as it goes, so a file
with several faults reports the first one by line.  Serialization is
canonical: scenario, constant, marginals, then joint terms sorted by
(x, y, a, b), with zero coefficients omitted.
"""

from __future__ import annotations

import csv
import io
import math
import re
from fractions import Fraction

import numpy as np

from .errors import (
    InvalidScenarioError,
    InvalidTableError,
    MissingScenarioError,
    NonNumericError,
    ParseError,
    RaggedRowsError,
    TermIndexError,
)
from .scenario import BellFunctional, BellScenario, ProbabilityTable, _coefficient_shape

_REAL = r"[+-]?(?:\d+\s*/\s*\d+|(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
_SCENARIO_RE = re.compile(
    r"^scenario\s+A\s*:\s*(\d+(?:\s*,\s*\d+)*)\s+B\s*:\s*(\d+(?:\s*,\s*\d+)*)$"
)
_CONST_RE = re.compile(rf"^const\s+({_REAL})$")
_JOINT_RE = re.compile(rf"^({_REAL})\s*P\s*\(\s*(\d+)\s+(\d+)\s*\|\s*(\d+)\s+(\d+)\s*\)$")
_MARG_RE = re.compile(rf"^({_REAL})\s*P([AB])\s*\(\s*(\d+)\s*\|\s*(\d+)\s*\)$")
_REAL_PREFIX_RE = re.compile(rf"^({_REAL})")


def _parse_real(match: re.Match, line: int) -> float:
    """Value of the coefficient in ``match`` group 1, a rational p/q rounded
    once to the nearest double; a zero denominator, a value beyond the float
    range or a p or q too long for ``int`` raises ``ParseError`` at the token."""
    text = match.group(1)
    try:
        value = float(Fraction("".join(text.split()))) if "/" in text else float(text)
    except (ZeroDivisionError, OverflowError):
        value = math.inf  # reported below like any other out-of-range value
    except ValueError:  # a numerator or denominator past Python's int-string digit limit
        raise ParseError(f"coefficient {text[:20]!r}... has too many digits", line=line, column=match.start(1) + 1) from None
    if not math.isfinite(value):
        raise ParseError(f"coefficient {text!r} is not a finite real", line=line, column=match.start(1) + 1)
    return value


def format_real(value: float) -> str:
    """Signed canonical coefficient text: integers render bare, everything
    else with 17 significant digits so parsing returns the exact float."""
    if value == int(value) and abs(value) < 1e15:
        return f"{int(value):+d}"
    return f"{value:+.17g}"


def parse_functional(text: str) -> BellFunctional:
    """Parse `.bell` text into a functional in one pass over its lines.

    Each term is checked (syntax, finite coefficient, indices inside the
    scenario, duplicate sum within the float range) and added at its index of
    the coefficient tensor as its line is read, so the first faulty line is
    the one reported."""
    sc = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("scenario"):
            if sc is not None:
                raise ParseError("duplicate scenario declaration", line=lineno, column=1)
            m = _SCENARIO_RE.match(line)
            if m is None:
                raise ParseError("malformed scenario declaration", line=lineno, column=1)
            outcomes_a = tuple(int(v) for v in re.split(r"\s*,\s*", m.group(1)))
            outcomes_b = tuple(int(v) for v in re.split(r"\s*,\s*", m.group(2)))
            try:
                sc = BellScenario(outcomes_a, outcomes_b)
            except InvalidScenarioError as exc:
                raise ParseError(str(exc), line=lineno, column=1) from exc
            try:
                c = np.zeros(_coefficient_shape(sc))
            except (ValueError, MemoryError) as exc:
                message = f"scenario too large for its coefficient tensor: {exc}"
                raise ParseError(message, line=lineno, column=1) from exc
            continue
        if sc is None:
            raise MissingScenarioError(
                "terms appear before any scenario declaration", line=lineno, column=1
            )
        # The term patterns exclude one another; joint terms, the most
        # numerous, are tried first.
        index = None
        if m := _JOINT_RE.match(line):
            a, b, x, y = (int(m.group(i)) for i in range(2, 6))
            if (
                0 <= x < sc.settings_a
                and 0 <= y < sc.settings_b
                and 0 <= a < sc.outcomes_a[x]
                and 0 <= b < sc.outcomes_b[y]
            ):
                index = (x, y, a, b)
            else:
                term = f"P({a} {b}|{x} {y})"
        elif m := _CONST_RE.match(line):
            index = (-1, -1, 0, 0)
        elif m := _MARG_RE.match(line):
            party, o, s = m.group(2), int(m.group(3)), int(m.group(4))
            counts = sc.outcomes_a if party == "A" else sc.outcomes_b
            if 0 <= s < len(counts) and 0 <= o < counts[s]:
                index = (s, -1, o, 0) if party == "A" else (-1, s, 0, o)
            else:
                term = f"P{party}({o}|{s})"
        else:
            prefix = _REAL_PREFIX_RE.match(line)
            column = (prefix.end() + 1) if prefix else 1
            raise ParseError(f"unrecognized term syntax: {line!r}", line=lineno, column=column)
        value = _parse_real(m, lineno)
        if index is None:
            raise TermIndexError(f"{term} is outside the scenario", line=lineno)
        total = float(c[index]) + value
        if not math.isfinite(total):
            raise ParseError("duplicate terms sum beyond the float range", line=lineno)
        c[index] = total
    if sc is None:
        raise MissingScenarioError("no scenario declaration found", line=None, column=None)
    return BellFunctional._from_coefficients(sc, c)


def _scenario_line(sc: BellScenario) -> str:
    return (
        "scenario A:" + ",".join(str(v) for v in sc.outcomes_a)
        + " B:" + ",".join(str(v) for v in sc.outcomes_b)
    )


def serialize_functional(f: BellFunctional) -> str:
    """Canonical text for a functional; ``parse_functional`` inverts it exactly."""
    lines = [_scenario_line(f.scenario)]
    if f.constant != 0.0:
        lines.append(f"const {format_real(f.constant)}")
    # The tensor is zero past each setting's outcome count, and argwhere
    # walks it in canonical (row-major) order.
    c = f.coefficients
    for party, marginals in (("A", c[:-1, -1, :, 0]), ("B", c[-1, :-1, 0, :])):
        for s, o in np.argwhere(marginals):
            lines.append(f"{format_real(marginals[s, o])} P{party}({o}|{s})")
    for x, y, a, b in np.argwhere(c[:-1, :-1]):
        lines.append(f"{format_real(c[x, y, a, b])} P({a} {b}|{x} {y})")
    return "\n".join(lines) + "\n"


def parse_correlation_matrix(text: str):
    """Parse an m x m comma-separated real matrix into a correlation functional.

    A non-numeric or non-finite cell raises ``NonNumericError`` at its line and
    column.  The matrix is stored as given; normalization is a separate step.
    """
    from .grothendieck import CorrelationFunctional

    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        cells = [c.strip() for c in line.split(",")]
        values = []
        for col, cell in enumerate(cells, start=1):
            try:
                values.append(float(cell))
            except ValueError:
                raise NonNumericError(
                    f"non-numeric cell {cell!r}", line=lineno, column=col
                ) from None
            if not math.isfinite(values[-1]):
                raise NonNumericError(f"cell {cell!r} is not finite", line=lineno, column=col)
        rows.append((lineno, values))
    if not rows:
        raise RaggedRowsError("empty correlation matrix", line=1, column=1)
    width = len(rows[0][1])
    for lineno, values in rows:
        if len(values) != width:
            raise RaggedRowsError(
                f"row has {len(values)} cells, expected {width}", line=lineno, column=1
            )
    if len(rows) != width:
        raise RaggedRowsError(
            f"matrix has {len(rows)} rows but {width} columns", line=rows[-1][0], column=1
        )
    return CorrelationFunctional(np.array([v for _, v in rows]))


def serialize_correlation_matrix(matrix) -> str:
    """CSV text for a correlation matrix; exact float round-trip."""
    m = np.asarray(matrix, dtype=float)
    return "\n".join(",".join(f"{v:.17g}" for v in row) for row in m) + "\n"


TABLE_HEADER = ["x", "y", "a", "b", "p"]


def parse_table_csv(text: str, renormalize: bool = False) -> ProbabilityTable:
    """Read a probability table from CSV with header ``x,y,a,b,p``.

    Every (x, y, a, b) combination must appear exactly once and no index may
    be negative; the scenario's outcome counts are inferred from the indices.
    """
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("empty table file", line=1, column=1) from None
    if [h.strip() for h in header] != TABLE_HEADER:
        raise ParseError(
            f"expected header {','.join(TABLE_HEADER)!r}", line=1, column=1
        )
    entries: dict[tuple[int, int, int, int], float] = {}
    for lineno, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 5:
            raise ParseError(f"expected 5 cells, got {len(row)}", line=lineno, column=1)
        try:
            x, y, a, b = (int(v) for v in row[:4])
            p = float(row[4])
        except ValueError:
            raise ParseError(f"malformed row {row!r}", line=lineno, column=1) from None
        key = (x, y, a, b)
        if min(key) < 0:
            raise ParseError(f"negative index in (x,y,a,b)={key}", line=lineno, column=1)
        if key in entries:
            raise ParseError(f"duplicate row for (x,y,a,b)={key}", line=lineno, column=1)
        entries[key] = p
    if not entries:
        raise ParseError("table has no rows", line=2, column=1)
    settings_a = max(k[0] for k in entries) + 1
    settings_b = max(k[1] for k in entries) + 1
    # Each row covers one setting of each party, so a setting index at or
    # past the row count leaves some setting without a row; reject it before
    # the per-setting lists below are sized by it.
    if max(settings_a, settings_b) > len(entries):
        raise InvalidTableError(
            f"some setting has no row: {len(entries)} rows cannot cover"
            f" {settings_a} settings of A and {settings_b} of B"
        )
    outcomes_a = [0] * settings_a
    outcomes_b = [0] * settings_b
    for x, y, a, b in entries:
        outcomes_a[x] = max(outcomes_a[x], a + 1)
        outcomes_b[y] = max(outcomes_b[y], b + 1)
    try:
        scenario = BellScenario(tuple(outcomes_a), tuple(outcomes_b))
    except InvalidScenarioError as exc:
        raise InvalidTableError(f"inferred scenario is invalid: {exc}") from exc
    # Every row's indices lie inside the inferred scenario, so counting rows
    # finds a gap before anything is allocated; the walk to the first missing
    # key, in (x, y, a, b) order, passes only present rows.
    if len(entries) != sum(outcomes_a) * sum(outcomes_b):
        keys = (
            (x, y, a, b)
            for x in range(settings_a)
            for y in range(settings_b)
            for a in range(outcomes_a[x])
            for b in range(outcomes_b[y])
        )
        missing = next(key for key in keys if key not in entries)
        raise InvalidTableError(f"missing row for (x,y,a,b)={missing}")
    # With no gap and no duplicate, the rows write every cell exactly once.
    blocks = [[np.empty((va, vb)) for vb in outcomes_b] for va in outcomes_a]
    for (x, y, a, b), p in entries.items():
        blocks[x][y][a, b] = p
    return ProbabilityTable(scenario, blocks, renormalize=renormalize)

