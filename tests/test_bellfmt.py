import re

import numpy as np
import pytest

from dimwit import bellfmt, catalog
from dimwit.errors import (
    InvalidTableError,
    MissingScenarioError,
    NonNumericError,
    ParseError,
    RaggedRowsError,
    TermIndexError,
)
from dimwit.scenario import BellScenario, evaluate

from conftest import random_functional, random_table, table_csv, uniform_table

CGLMP_GOLDEN = """scenario A:3,3 B:3,3
const -3
+1 P(0 0|0 0)
+1 P(0 1|0 0)
+1 P(0 2|0 0)
+1 P(1 1|0 0)
+1 P(1 2|0 0)
+1 P(2 2|0 0)
+1 P(0 0|0 1)
+1 P(1 0|0 1)
+1 P(1 1|0 1)
+1 P(2 0|0 1)
+1 P(2 1|0 1)
+1 P(2 2|0 1)
+1 P(0 0|1 0)
+1 P(1 0|1 0)
+1 P(1 1|1 0)
+1 P(2 0|1 0)
+1 P(2 1|1 0)
+1 P(2 2|1 0)
+1 P(0 1|1 1)
+1 P(0 2|1 1)
+1 P(1 2|1 1)
"""


def test_parse_minimal_functional():
    f = bellfmt.parse_functional("scenario A:3,3 B:3,3\nconst -3\n+1 P(0 0|0 0)\n")
    assert f.constant == -3.0
    assert f.coefficients[0, 0, 0, 0] == 1.0
    assert f.coefficients[0, 0, :3, :3].sum() == 1.0


def test_cglmp_golden_text_and_round_trip():
    f = catalog.cglmp_C()
    assert bellfmt.serialize_functional(f) == CGLMP_GOLDEN
    assert bellfmt.parse_functional(CGLMP_GOLDEN) == f


def test_catalog_functionals_round_trip_exactly():
    for name in ("cglmp-c", "cglmp-d", "E", "chsh", "iphi:0.31", "iphi:2.2"):
        f = catalog.by_name(name)
        assert bellfmt.parse_functional(bellfmt.serialize_functional(f)) == f


def test_expression_e_style_file_matches_hand_expansion(rng):
    # Parse a mixed marginal/joint/constant file and check the value against a
    # direct term-by-term expansion on a random table.
    text = (
        "scenario A:2,3 B:2,2,2\n"
        "+1 PA(0|0)\n"
        "const 1\n"
        "-1 P(0 0|0 0)\n"
        "-1 P(0 0|0 1)\n"
        "-1 P(0 0|0 2)\n"
        "+1 P(0 0|1 0)\n"
        "+1 P(1 0|1 1)\n"
        "+1 P(2 0|1 2)\n"
    )
    f = bellfmt.parse_functional(text)
    t = random_table(rng, f.scenario)
    expected = (
        t.p[0][0][0, :].sum()  # PA(0|0) under the partner-setting-zero policy
        + 1.0
        - t.p[0][0][0, 0]
        - t.p[0][1][0, 0]
        - t.p[0][2][0, 0]
        + t.p[1][0][0, 0]
        + t.p[1][1][1, 0]
        + t.p[1][2][2, 0]
    )
    assert abs(evaluate(f, t) - expected) < 1e-12


def test_duplicate_terms_sum():
    f = bellfmt.parse_functional(
        "scenario A:2 B:2\n+1 P(0 0|0 0)\n+0.5 P(0 0|0 0)\n-1 PA(1|0)\n-1 PA(1|0)\n"
    )
    assert f.coefficients[0, 0, 0, 0] == 1.5
    assert f.coefficients[0, -1, 1, 0] == -2.0


def test_rationals_whitespace_comments_crlf():
    text = "# comment line\r\nscenario A : 2 B : 2\r\n+1/3 P( 0 0 | 0 0 )  # tail\r\nconst -2/4\r\n"
    f = bellfmt.parse_functional(text)
    assert f.coefficients[0, 0, 0, 0] == 1.0 / 3.0
    assert f.constant == -0.5


def test_rationals_round_once_to_the_nearest_double():
    # p = 2^53 + 1 is not a double, so rounding p first and then p / 3 gives
    # 3002399751580330.5; the exact quotient 3002399751580331 is a double.
    f = bellfmt.parse_functional("scenario A:2 B:2\n9007199254740993/3 P(0 0|0 0)\n")
    assert f.coefficients[0, 0, 0, 0] == 3002399751580331.0
    f = bellfmt.parse_functional(f"scenario A:2 B:2\nconst -{10**30 + 1} / {3 * 10**29}\n")
    assert f.constant == -(10**30 + 1) / (3 * 10**29)


def test_parse_errors_carry_location():
    with pytest.raises(MissingScenarioError):
        bellfmt.parse_functional("+1 P(0 0|0 0)\n")
    with pytest.raises(MissingScenarioError):
        bellfmt.parse_functional("# nothing\n")
    with pytest.raises(ParseError) as err:
        bellfmt.parse_functional("scenario A:2 B:2\n+1 Q(0 0|0 0)\n")
    assert err.value.line == 2 and err.value.column is not None
    with pytest.raises(TermIndexError) as err:
        bellfmt.parse_functional("scenario A:2 B:2\n+1 P(0 2|0 0)\n")
    assert "P(0 2|0 0)" in str(err.value) and err.value.line == 2
    for term in ("PB(2|0)", "PB(0|2)"):
        with pytest.raises(TermIndexError, match=re.escape(f"{term} is outside the scenario (line 2)")):
            bellfmt.parse_functional(f"scenario A:2 B:2\n+1 {term}\n")
    with pytest.raises(ParseError, match=re.escape("malformed scenario declaration (line 1, column 1)")):
        bellfmt.parse_functional("scenario A:2 B\n")
    with pytest.raises(ParseError):
        bellfmt.parse_functional("scenario A:2 B:2\nscenario A:2 B:2\n")
    with pytest.raises(ParseError) as err:
        bellfmt.parse_functional("# one outcome\nscenario A:2,1 B:2\n")
    assert "two outcomes" in str(err.value) and err.value.line == 2


def test_first_fault_by_line_is_reported():
    """Every kind of fault is found in the same pass over the lines, so the
    earliest faulty line wins whatever kind of fault comes after it."""
    later_faults = ("+1 Q(0 0|0 0)", "1/0 P(0 0|0 0)", "scenario A:2 B:2", "+1 P(0 5|0 0)")
    for later in later_faults:
        text = f"scenario A:2 B:2\n+1 P(0 0|0 0)\n+1 PA(2|0)\n{later}\n"
        with pytest.raises(TermIndexError) as err:
            bellfmt.parse_functional(text)
        assert err.value.line == 3 and "PA(2|0)" in str(err.value)
    text = "scenario A:2 B:2\n+1e308 PB(0|0)\n+1e308 PB(0|0)\n+1 P(0 0|9 0)\n"
    with pytest.raises(ParseError) as err:
        bellfmt.parse_functional(text)
    assert err.value.line == 3 and not isinstance(err.value, TermIndexError)


def test_zero_denominator_is_parse_error_with_location():
    with pytest.raises(ParseError) as err:
        bellfmt.parse_functional("scenario A:2 B:2\n+1 P(0 0|0 0)\n1/0 P(1 1|0 0)\n")
    assert err.value.line == 3 and err.value.column == 1
    with pytest.raises(ParseError) as err:
        bellfmt.parse_functional("scenario A:2 B:2\nconst 2/0\n")
    assert err.value.line == 2 and err.value.column == 7


def test_overflowing_literal_is_parse_error():
    for coefficient in ("+1e400", "-1e400", "1" + "0" * 400 + "/3"):
        with pytest.raises(ParseError) as err:
            bellfmt.parse_functional(f"scenario A:2 B:2\n{coefficient} P(0 0|0 0)\n")
        assert err.value.line == 2 and err.value.column == 1


def test_overflowing_duplicate_sum_is_parse_error():
    for term in ("P(0 0|0 0)", "PA(1|0)", "PB(0|0)"):
        text = f"scenario A:2 B:2\n+1e308 {term}\n+1 P(1 1|0 0)\n+1e308 {term}\n"
        with pytest.raises(ParseError) as err:
            bellfmt.parse_functional(text)
        assert err.value.line == 4
    with pytest.raises(ParseError) as err:
        bellfmt.parse_functional("scenario A:2 B:2\nconst -1e308\nconst -1e308\n")
    assert err.value.line == 3
    # Cancelling duplicates stay finite and are accepted.
    f = bellfmt.parse_functional("scenario A:2 B:2\n+1e308 P(0 0|0 0)\n-1e308 P(0 0|0 0)\n")
    assert f.coefficients[0, 0, 0, 0] == 0.0


def test_serialized_reals_have_12_significant_digits():
    sc = BellScenario((2,), (2,))
    f = bellfmt.parse_functional("scenario A:2 B:2\n+0.30500 P(0 0|0 0)\n")
    line = bellfmt.serialize_functional(f).splitlines()[1]
    token = line.split()[0]
    digits = re.sub(r"[^0-9]", "", token.split("e")[0]).lstrip("0")
    assert len(digits) >= 12
    assert float(token) == 0.305


def test_zero_functional_serializes_to_scenario_only():
    from dimwit.scenario import BellFunctional

    f = BellFunctional(BellScenario((2, 2), (3,)))
    assert bellfmt.serialize_functional(f) == "scenario A:2,2 B:3\n"


def test_round_trip_identity_on_seeded_functionals(rng):
    for _ in range(60):
        f = random_functional(rng)
        assert bellfmt.parse_functional(bellfmt.serialize_functional(f)) == f


def test_correlation_matrix_parsing():
    chsh = bellfmt.parse_correlation_matrix("1,1\n1,-1\n")
    assert np.array_equal(chsh.matrix, [[1.0, 1.0], [1.0, -1.0]])
    one = bellfmt.parse_correlation_matrix("1")
    assert one.matrix.shape == (1, 1)
    assert np.array_equal(bellfmt.parse_correlation_matrix("1,1\n\n  \n1,-1\n").matrix, chsh.matrix)
    with pytest.raises(RaggedRowsError, match="empty correlation matrix"):
        bellfmt.parse_correlation_matrix(" \n\t\n")
    with pytest.raises(RaggedRowsError):
        bellfmt.parse_correlation_matrix("1,2\n3\n")
    with pytest.raises(RaggedRowsError):
        bellfmt.parse_correlation_matrix("1,2\n3,4\n5,6\n")
    with pytest.raises(NonNumericError) as err:
        bellfmt.parse_correlation_matrix("1,x\n3,4\n")
    assert err.value.line == 1 and err.value.column == 2
    for cell in ("nan", "inf", "-inf", "1e309"):
        with pytest.raises(NonNumericError) as err:
            bellfmt.parse_correlation_matrix(f"1,2\n3,{cell}\n")
        assert err.value.line == 2 and err.value.column == 2


def test_correlation_matrix_round_trip(rng):
    m = rng.normal(size=(5, 5))
    text = bellfmt.serialize_correlation_matrix(m)
    assert np.array_equal(bellfmt.parse_correlation_matrix(text).matrix, m)


def test_table_csv_round_trip(rng):
    sc = BellScenario((2, 3), (2, 2))
    t = random_table(rng, sc)
    text = table_csv(t)
    # a blank line between rows is skipped
    lines = text.splitlines(keepends=True)
    for back in (bellfmt.parse_table_csv(text), bellfmt.parse_table_csv("".join(lines[:3] + ["\n"] + lines[3:]))):
        assert back.scenario == sc
        for x in range(sc.settings_a):
            for y in range(sc.settings_b):
                assert np.array_equal(back.p[x][y], t.p[x][y])


def test_table_csv_errors():
    with pytest.raises(ParseError):
        bellfmt.parse_table_csv("a,b,c\n")
    header = "x,y,a,b,p\n"
    cases = [
        ("", "empty table file (line 1, column 1)"),
        (header, "table has no rows (line 2, column 1)"),
        (header + "0,0,0,0\n", "expected 5 cells, got 4 (line 2, column 1)"),
    ]
    for text, message in cases:
        with pytest.raises(ParseError, match=re.escape(message)):
            bellfmt.parse_table_csv(text)
    with pytest.raises(ParseError) as err:
        bellfmt.parse_table_csv(header + "0,0,0,0,0.5\n0,0,0,oops,0.5\n")
    assert err.value.line == 3
    with pytest.raises(ParseError):
        bellfmt.parse_table_csv(header + "0,0,0,0,0.5\n0,0,0,0,0.5\n")
    # a negative index is reported at its row, not dropped
    full = "0,0,0,0,0.25\n0,0,0,1,0.25\n0,0,1,0,0.25\n0,0,1,1,0.25\n"
    for row in ("-1,0,0,0,0.7", "0,-1,0,0,0.7", "0,0,-1,0,0.7", "0,0,0,-1,0.7"):
        with pytest.raises(ParseError) as err:
            bellfmt.parse_table_csv(header + full + row + "\n")
        assert err.value.line == 6
    # missing rows are forbidden; the first missing key in (x, y, a, b)
    # order is named, also for a gap in a later block
    rows = header + "0,0,0,0,0.5\n0,0,0,1,0.25\n0,0,1,0,0.25\n"
    with pytest.raises(InvalidTableError, match=re.escape("(x,y,a,b)=(0, 0, 1, 1)")):
        bellfmt.parse_table_csv(rows)
    with pytest.raises(InvalidTableError, match=re.escape("(x,y,a,b)=(1, 0, 0, 1)")):
        bellfmt.parse_table_csv(header + full + "1,0,0,0,0.5\n1,0,1,1,0.5\n")
    with pytest.raises(InvalidTableError, match="inferred scenario is invalid"):
        bellfmt.parse_table_csv(header + "0,0,0,0,1\n")


def test_uniform_table_round_trip():
    f = catalog.cglmp_C()
    t = uniform_table(f.scenario)
    back = bellfmt.parse_table_csv(table_csv(t))
    assert abs(evaluate(f, back) - (-2.0 / 3.0)) < 1e-12
