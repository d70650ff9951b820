"""Every place ``harness.py`` builds a ``SymMatrix`` is known.

The sampler, the trial loop, the witness recipes and the lemma-suite batches
work on plain symmetric arrays.  A slot becomes a ``SymMatrix`` only in the
one judge, ``_make_witness``, which wraps each slot and each lane of
``_trial`` once, and
in the public sampler ``sample_with_inertia``, which wraps what it returns;
the pinned suite batch counts its window as a second lane of the suite's
stack, with no wrap and no scalar count.  Any other use of the
class outside a type annotation, as a call or passed as a value
(``map(SymMatrix, ...)``), fails here until it is added to the list on
purpose.  A suite batch calls no public function of ``constructions`` or
``linalg`` that returns a ``SymMatrix``: it builds its trial with the
unchecked array builders those functions wrap, and the tests check it
against them.
"""

import ast
from pathlib import Path

import inertia_lab

PACKAGE = Path(inertia_lab.__file__).parent
HARNESS = PACKAGE / "harness.py"

EXPECTED = sorted(
    [
        "_make_witness",
        "_make_witness",
        "sample_with_inertia",
    ]
)


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def _sites(path: Path) -> list[str]:
    """The enclosing function of each use of the name SymMatrix outside annotations."""
    tree = _tree(path)
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


def _symmatrix_builders() -> set[str]:
    """Public functions of constructions.py and linalg.py whose return
    annotation names SymMatrix."""
    return {
        node.name
        for module in ("constructions.py", "linalg.py")
        for node in _tree(PACKAGE / module).body
        if isinstance(node, ast.FunctionDef)
        and not node.name.startswith("_")
        and node.returns is not None
        and any(isinstance(n, ast.Name) and n.id == "SymMatrix" for n in ast.walk(node.returns))
    }


def _suite_calls(path: Path) -> list[tuple[str, str]]:
    """(batch, called name) for every call by name in a ``_suite_*`` function."""
    return [
        (node.name, call.func.id)
        for node in _tree(path).body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_suite_")
        for call in ast.walk(node)
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
    ]


def test_harness_builds_symmatrix_only_in_the_judge_the_sampler_and_the_suite():
    assert sorted(_sites(HARNESS)) == EXPECTED


def test_suite_batches_call_no_public_construction():
    builders = _symmatrix_builders()
    assert {"block_pair", "inflate", "embed_with_negatives", "ones_pencil", "direct_sum"} <= builders
    assert [(batch, name) for batch, name in _suite_calls(HARNESS) if name in builders] == []


def test_a_batch_calling_a_public_construction_is_found(tmp_path):
    src = tmp_path / "probe.py"
    src.write_text(
        "def _suite_probe(cfg, rng):\n"
        "    a = SymMatrix(rng.uniform(size=(2, 2)))\n"
        "    return [inflate(a, [[0], [1, 2]]).entries]\n",
        encoding="utf-8",
    )
    assert _sites(src) == ["_suite_probe"]
    assert ("_suite_probe", "inflate") in _suite_calls(src)
