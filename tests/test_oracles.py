"""The shared test oracles stay independent of the code they check."""

import ast
from fractions import Fraction
from pathlib import Path

import pytest

from .oracles import adjoint_columns, apply_columns, exp_nilpotent

ORACLES = Path(__file__).resolve().parent / "oracles.py"


def test_oracles_import_nothing_from_ucz():
    imported = []
    for node in ast.walk(ast.parse(ORACLES.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
    assert imported
    assert [name for name in imported if name == "ucz" or name.startswith(("ucz.", "."))] == []


def test_exp_nilpotent_hand_examples():
    t = Fraction(-3, 2)
    assert exp_nilpotent([[0, t], [0, 0]]) == [[1, t], [0, 1]]
    half = Fraction(1, 2)
    assert exp_nilpotent([[0, 1, 0], [0, 0, 1], [0, 0, 0]]) == [[1, 1, half], [0, 1, 1], [0, 0, 1]]
    assert exp_nilpotent([[0]]) == [[1]]
    with pytest.raises(ValueError):
        exp_nilpotent([[0, 1], [1, 0]])


def test_adjoint_columns_hand_example():
    # sl_2 in the basis (e, h, f) and g = exp(t e): Ad_g e = e,
    # Ad_g h = h - 2t e and Ad_g f = f + t h - t^2 e
    t = Fraction(-3, 2)
    e, h, f = [[0, 1], [0, 0]], [[1, 0], [0, -1]], [[0, 0], [1, 0]]
    columns = adjoint_columns([[1, t], [0, 1]], [e, h, f])
    assert columns == [[1, 0, 0], [-2 * t, 1, 0], [-t * t, t, 1]]
    assert apply_columns(columns, [0, 1, 1]) == [-2 * t - t * t, 1 + t, 1]
    with pytest.raises(ValueError):
        adjoint_columns([[1, 1], [1, 1]], [e, h, f])
    with pytest.raises(ValueError):
        adjoint_columns([[1, 1], [0, 1]], [e, f])
