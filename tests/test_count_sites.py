"""Every eigensolve and inertia count in ``harness.py`` is known.

Verify, random search and the lemma suite count whole chunks of matrices
through ``_count``, one ``inertia_stack`` call per chunk.  The scalar calls
left are the one judge ``_make_witness`` (slots, image and lifts), the
pinned eigenvalues of ``_suite_pinned`` and the pencil base, counted once
per ``lemma_suite`` call.  A scalar trial or suite loop coming back fails
here until it is added to the list on purpose.
"""

import ast
from pathlib import Path

import inertia_lab

HARNESS = Path(inertia_lab.__file__).parent / "harness.py"

COUNTERS = {"inertia", "eig_sym", "inertia_stack"}

EXPECTED = sorted(
    [
        ("_count", "inertia_stack"),
        ("_make_witness", "inertia"),
        ("_make_witness", "inertia"),
        ("_make_witness", "inertia"),
        ("_suite_pinned", "eig_sym"),
        ("lemma_suite", "inertia"),
    ]
)


def _calls(path: Path) -> list[tuple[str, str]]:
    """(enclosing function, callee) for each call of a counter."""
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in COUNTERS:
                found.append((scope, name))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8")), "<module>")
    return found


def test_harness_counts_through_the_stack_and_the_one_judge():
    assert sorted(_calls(HARNESS)) == EXPECTED
