"""Every place ``harness.py`` builds a ``SymMatrix`` is known.

The sampler, the trial loop and the witness recipes work on plain symmetric
arrays.  A slot becomes a ``SymMatrix`` only in the one judge,
``_make_witness``, which wraps each slot and each lane once; the public
sampler ``sample_with_inertia`` wraps what it returns, and the lemma-suite
batches build ``SymMatrix`` inputs on purpose to exercise the public
constructions.  Any other use of the class outside a type annotation, as a
call or passed as a value (``map(SymMatrix, ...)``), fails here until it is
added to the list on purpose.
"""

import ast
from pathlib import Path

import inertia_lab

HARNESS = Path(inertia_lab.__file__).parent / "harness.py"

EXPECTED = sorted(
    [
        "_make_witness",
        "_make_witness",
        "_suite_block_identity",
        "_suite_block_identity",
        "_suite_inflation",
        "_suite_pinned",
        "sample_with_inertia",
    ]
)


def _sites(path: Path) -> list[str]:
    """The enclosing function of each use of the name SymMatrix outside annotations."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    annotations = set()
    for node in ast.walk(tree):
        for part in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if part is not None:
                annotations.update(map(id, ast.walk(part)))
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if isinstance(node, ast.Name) and node.id == "SymMatrix" and id(node) not in annotations:
            found.append(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "<module>")
    return found


def test_harness_builds_symmatrix_only_in_the_judge_the_sampler_and_the_suite():
    assert sorted(_sites(HARNESS)) == EXPECTED
