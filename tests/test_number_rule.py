"""The number rule lives in ``errors.py`` alone.

A count or scalar read from JSON or the command line is checked by
``errors.int_in`` or ``errors.finite_float``: a JSON ``true`` is a Python
``int`` and numpy parses numeric strings, so a hand-written type test is
easy to get subtly wrong, and copies of it drift apart.  Outside
``errors.py`` no module may test for ``bool`` with ``isinstance`` or use
the ``numbers`` module; a new one fails here.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import inertia_lab
from inertia_lab.constructions import equicorrelation, replicated_block
from inertia_lab.errors import ConfigError, finite_float, int_in
from inertia_lab.harness import sample_with_inertia
from inertia_lab.linalg import DomainSpec, is_member, sym
from inertia_lab.pontryagin import gram_realize, stabilization_index

MODULES = sorted(
    p for p in Path(inertia_lab.__file__).parent.glob("*.py") if p.name != "errors.py"
)


def _names(node: ast.AST) -> list[str]:
    """The plain names in an isinstance class argument (a name or a tuple)."""
    items = node.elts if isinstance(node, ast.Tuple) else [node]
    return [item.id for item in items if isinstance(item, ast.Name)]


def _number_tests(path: Path) -> list[tuple[str, int, str]]:
    """(file, line, what) for each bool isinstance test or use of ``numbers``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance"
            and len(node.args) == 2
            and "bool" in _names(node.args[1])
        ):
            found.append((path.name, node.lineno, "isinstance(..., bool)"))
        if isinstance(node, ast.Import) and any(a.name == "numbers" for a in node.names):
            found.append((path.name, node.lineno, "import numbers"))
        if isinstance(node, ast.ImportFrom) and node.module == "numbers":
            found.append((path.name, node.lineno, "from numbers import"))
    return found


def test_no_module_but_errors_tests_for_bools_or_numbers_real():
    found = [use for path in MODULES for use in _number_tests(path)]
    assert found == []


def test_the_scan_sees_the_checks_in_errors_py():
    # the helpers themselves must still be visible to the scan
    errors = Path(inertia_lab.__file__).parent / "errors.py"
    assert _number_tests(errors)


A = sym([[1.0, 0.0], [0.0, -1.0]])
DOM = DomainSpec()


@pytest.mark.parametrize(
    "call",
    [
        lambda: gram_realize(A, True),
        lambda: stabilization_index([0, 1], True),
        lambda: is_member(A, True, DOM),
        lambda: sample_with_inertia(True, 0, DOM, np.random.default_rng(0)),
        lambda: replicated_block(A, 1, True, 1.0),
        lambda: equicorrelation(1, 0.0, "1"),
    ],
    ids=["gram_realize", "stabilization_index", "is_member", "sample_with_inertia",
         "replicated_block", "equicorrelation"],
)
def test_library_entry_points_refuse_bools_and_strings(call):
    with pytest.raises(ConfigError):
        call()


def test_the_helpers_take_numbers_and_nothing_else():
    assert int_in(3, "n", 1, 3) == 3
    assert finite_float(2, "c", positive=True) == 2.0
    assert type(finite_float(np.float64(0.5), "c")) is float
    for value in (True, 2.0, "2", None):
        with pytest.raises(ConfigError):
            int_in(value, "n")
    for value in (False, "2.5", float("inf"), float("nan"), 10**400):
        with pytest.raises(ConfigError):
            finite_float(value, "c")
    with pytest.raises(ConfigError, match="c must be a positive finite number, got 0.0"):
        finite_float(0.0, "c", positive=True)
    with pytest.raises(ConfigError, match=r"n 4 out of range 1\.\.3"):
        int_in(4, "n", 1, 3)
