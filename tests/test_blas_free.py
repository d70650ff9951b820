"""Every matrix product and every ``np.linalg`` call in the package is known.

``linalg`` promises bytes that do not depend on the BLAS build, so the
counting chain (``linalg``, ``constructions``, ``functions``) forms no ``@``
product and calls no LAPACK routine.  ``np.dot``, ``np.matmul``,
``np.tensordot``, ``np.inner``, ``np.vdot``, a ``.dot(`` method and an
``einsum`` given ``optimize`` route to BLAS as ``@`` does, so they count
too.  The only ones left are in the sampler and in ``pontryagin.gram_of``.
Some of their bytes do reach reports: a witness that carries sampled slots
(from random search or the constant-map recipe) prints them, and
``pontryagin factor`` prints the error that ``gram_of`` measures; those
bytes may differ between BLAS builds.  A new one fails here until it is
added to the list on purpose.
"""

import ast
from pathlib import Path

import inertia_lab

MODULES = sorted(Path(inertia_lab.__file__).parent.glob("*.py"))

ALLOWED = sorted(
    [
        ("harness.py", "_spectral", "np.linalg.qr"),
        ("harness.py", "_spectral", "@"),
        ("harness.py", "_draw", "@"),
        ("harness.py", "_draw", "@"),
        ("pontryagin.py", "gram_of", "@"),
    ]
)


def _dotted(node: ast.AST) -> str:
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts))


NUMPY_PRODUCTS = {
    f"{mod}.{name}"
    for mod in ("np", "numpy")
    for name in ("dot", "matmul", "tensordot", "inner", "vdot")
}


def _products(path: Path) -> list[tuple[str, str, str]]:
    """(file, enclosing function, "@", the np.linalg or product name) for each use."""
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((path.name, scope, "@"))
        if isinstance(node, ast.Attribute):
            name = _dotted(node)
            if name.startswith(("np.linalg.", "numpy.linalg.")) or name in NUMPY_PRODUCTS:
                found.append((path.name, scope, name))
            elif node.attr == "dot":
                found.append((path.name, scope, ".dot"))
        if (
            isinstance(node, ast.Call)
            and _dotted(node.func).endswith("einsum")
            and any(kw.arg == "optimize" for kw in node.keywords)
        ):
            found.append((path.name, scope, "einsum(optimize=...)"))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8")), "<module>")
    return found


def test_matrix_products_and_lapack_calls_are_the_allowed_ones():
    found = sorted(use for path in MODULES for use in _products(path))
    assert found == ALLOWED


def test_every_blas_routed_form_is_found(tmp_path):
    src = tmp_path / "probe.py"
    src.write_text(
        "def f(a, b):\n"
        "    a @ b\n"
        "    np.dot(a, b)\n"
        "    a.dot(b)\n"
        "    np.matmul(a, b)\n"
        "    numpy.tensordot(a, b)\n"
        "    np.inner(a, b)\n"
        "    np.vdot(a, b)\n"
        "    np.linalg.eigh(a)\n"
        "    np.einsum('ij,jk->ik', a, b, optimize=True)\n"
        "    np.einsum('ij,jk->ik', a, b)\n",
        encoding="utf-8",
    )
    assert [use for _, _, use in _products(src)] == [
        "@", "np.dot", ".dot", "np.matmul", "numpy.tensordot", "np.inner", "np.vdot",
        "np.linalg.eigh", "einsum(optimize=...)",
    ]
