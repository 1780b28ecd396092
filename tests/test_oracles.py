"""The shared test oracles stay independent of the code they check."""

import ast
from fractions import Fraction
from pathlib import Path

import pytest

from .oracles import exp_nilpotent

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
