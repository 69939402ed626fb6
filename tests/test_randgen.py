"""Tests for the command line of the random instance generators
(python -m seqsolve.randgen)."""

import json

import pytest

from seqsolve import randgen
from seqsolve.parser import parse_formula
from seqsolve.printer import print_formula


def emit(capsys, *argv) -> list[str]:
    assert randgen.main(list(argv)) == 0
    return capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("kind", ["formula", "clause"])
def test_same_seed_same_lines(capsys, kind):
    argv = ("--seed", "3", "--count", "20", "--kind", kind)
    lines = emit(capsys, *argv)
    assert len(lines) == 20
    assert emit(capsys, *argv) == lines
    assert emit(capsys, "--seed", "4", "--count", "20", "--kind", kind) != lines


def test_clause_lines_name_variables_and_letters(capsys):
    for seed in range(3):
        for line in emit(capsys, "--seed", str(seed), "--kind", "clause"):
            eqs = json.loads(line)
            assert eqs
            for eq in eqs:
                assert set(eq) == {"left", "right"}
                for tok in eq["left"] + eq["right"]:
                    assert tok in [{"v": x} for x in randgen.VAR_POOL] + [
                        {"l": ch} for ch in "ab"
                    ], tok


def test_formula_lines_parse_and_reprint(capsys):
    for seed in range(3):
        for line in emit(capsys, "--seed", str(seed), "--kind", "formula"):
            assert print_formula(parse_formula(line)) == line
