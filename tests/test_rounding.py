"""The rounding model of ``kmsphase._rounding``, and the census of thresholds in ``src``."""

from __future__ import annotations

import ast
import decimal
import math
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from kmsphase._rounding import EPS, Enclosure, down, exp_out, gamma, up
from kmsphase.cli import dumps

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "kmsphase"


def _samples(rng) -> list[float]:
    """Nonnegative doubles: random, across every binade, subnormal and huge."""
    return [
        *rng.random(200).tolist(),
        *(2.0 ** rng.uniform(-1022, 1023, 200)).tolist(),
        *(rng.random(50) * 2.0 ** -1022).tolist(),
        5e-324, 2.0 ** -1022, 0.0, 1.0, 2.0, 1.7e308, sys.float_info.max,
    ]


class TestPads:
    @pytest.mark.parametrize("k", [1, 2, 5, 103, 10 ** 6])
    def test_down_and_up_enclose(self, rng, k):
        for x in _samples(rng):
            lo, hi = down(x, k), up(x, k)
            assert lo <= x <= hi
            if x >= 2.0 ** -1022:   # a normal x moves by at least one ulp each way
                assert lo < x < hi

    def test_eps_is_the_double_spacing_at_one(self):
        assert EPS == np.finfo(float).eps == math.ulp(1.0)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 10, 1000, 123_457, 10 ** 9, 2 ** 40])
    def test_gamma_matches_exact_fractions(self, n):
        u = Fraction(1, 2 ** 53)
        exact = n * u / (1 - n * u)
        # n u is exact; 1 - n u and the quotient round once each
        assert abs(Fraction(gamma(n)) - exact) <= (2 * u + u * u) * exact

    def test_exp_out_encloses_exp(self, rng):
        ctx = decimal.Context(prec=60)
        xs = [*np.linspace(-708.0, 709.0, 301).tolist(), *rng.uniform(-50.0, 50.0, 200).tolist(),
              0.0, -0.0, 1e-300, -1e-300, 709.0]
        for x in xs:
            true = Fraction(ctx.exp(decimal.Decimal(x)))
            assert Fraction(exp_out(x, -1)) <= true <= Fraction(exp_out(x, 1))
            assert exp_out(x, -1) <= math.exp(x) <= exp_out(x, 1)

    @pytest.mark.parametrize("x", [math.nextafter(709.0, math.inf), 709.5, 710.0, 1e6, math.inf])
    def test_exp_out_is_inf_past_709(self, x):
        assert exp_out(x, -1) == exp_out(x, 1) == math.inf


class TestEnclosure:
    def test_unpacks_like_a_pair(self):
        e = Enclosure(1.0, 2.5)
        lo, hi = e
        assert (lo, hi) == (e.lo, e.hi) == (e[0], e[1]) == (1.0, 2.5)
        assert e == (1.0, 2.5) and len(e) == 2 and isinstance(e, tuple)
        assert dumps(e) == dumps([1.0, 2.5])

    def test_mid_is_bit_equal_to_the_half_sum(self, rng):
        pairs = [(1.7e308, 1.7e308), (5e-324, 5e-324), (0.0, math.inf), (-1.0, 3.0)]
        for lo, hi in [*np.sort(rng.normal(0.0, 1e3, (200, 2)), axis=1).tolist(), *pairs]:
            assert Enclosure(lo, hi).mid.hex() == (0.5 * (lo + hi)).hex()


# Every float literal 0 < x < 1e-3 in src/kmsphase outside _rounding.py:
# (module, value, its row in README's census table).  Rounding bounds come
# from _rounding, so a new small literal is a tolerance and gets a row here
# and in the table, with the reason it exists.
CENSUS = [
    ("classify.py", 1e-8, "EIG_ONE_TOL_DEFAULT"),
    ("classify.py", 1e-9, "root merge"),
    ("critical.py", 1e-8, "PERRON_VECTOR_TOL"),
    ("invariance.py", 1e-8, "FIXED_POINT_TOL"),
    ("invariance.py", 1e-9, "fixed-point normalization"),
    ("partition.py", 1e-9, "CONVERGENCE_MARGIN_DEFAULT"),
    ("partition.py", 1e-12, "POWER_TOL_DEFAULT"),
    ("partition.py", 1e-10, "BISECT_TOL_DEFAULT"),
    ("partition.py", 1e-12, "single-letter floor"),
    ("states.py", 1e-10, "GAP_TOL_DEFAULT"),
    ("states.py", 1e-9, "DEFECT_TOL"),
    ("states.py", 1e-9, "atom atol"),
    ("states.py", 1e-6, "finite fraction above 1"),
    ("states.py", 1e-9, "infinite-part atol"),
    ("states.py", 1e-12, "infinite-part atol"),
    ("states.py", 1e-6, "cooled fraction"),
    ("states.py", 1e-9, "cooling shell bound"),
    ("states.py", 1e-12, "cooling shell bound"),
]


def _is_eps_power(node: ast.AST) -> bool:
    """2 ** -52 or 2 ** -53, however spelled."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)):
        return False
    try:
        return ast.literal_eval(node.left) == 2 and ast.literal_eval(node.right) in (-52, -53)
    except ValueError:
        return False


def _census(path: Path) -> tuple[Counter, list[str]]:
    """The small float literals of one module, and its rounding spelled by hand."""
    literals: Counter = Counter()
    banned = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Constant) and type(node.value) is float and 0.0 < node.value < 1e-3:
            literals[path.name, node.value] += 1
        elif isinstance(node, ast.Attribute) and (
                node.attr == "finfo"
                or node.attr == "nextafter" and not (isinstance(node.value, ast.Name)
                                                     and node.value.id == "math")):
            banned.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy" and any(
                a.name in ("finfo", "nextafter") for a in node.names):
            banned.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
        elif _is_eps_power(node):
            banned.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    return literals, banned


class TestThresholdCensus:
    def test_modules_round_only_through_the_rounding_module(self):
        literals: Counter = Counter()
        banned = []
        for path in sorted(SRC.glob("*.py")):
            if path.name != "_rounding.py":
                found, bad = _census(path)
                literals += found
                banned += bad
        assert not banned, "outward rounding belongs in _rounding: " + "; ".join(banned)
        expected = Counter((module, value) for module, value, _ in CENSUS)
        assert literals == expected, (
            f"not in the census: {dict(literals - expected)}; gone: {dict(expected - literals)}")

    def test_every_census_row_is_in_the_readme(self):
        readme = (ROOT / "README.md").read_text()
        for _, _, row in CENSUS:
            assert f"| {row} |" in readme or f"| `{row}` |" in readme, row
