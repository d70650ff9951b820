"""Every eigensolve and inertia count in ``harness.py``, ``constructions.py`` and ``pontryagin.py`` is known.

Every batch count goes through ``linalg._on_stack``, the one packer: it
packs matrices into zero-padded chunks within ``STACK_ENTRIES`` entries and
counts each chunk with one ``inertia_stack`` call.  Its callers are the
trial loop ``_stacked`` (verify, random search and the lemma suite, whose
pinned-negatives batch counts its window as a second lane), the recipe
ladder ``_ladder``, which counts its first rung's candidates after the first
as one stack and builds the later rungs in runs, each counted as one stack,
and ``linalg._leading_counts``, which packs there the leading blocks that
its one elimination cannot certify; ``leading_negativity_profile`` is one
call of it.
The scalar calls left are the one judge ``_make_witness``, whose one count
runs over the arrays of ``_trial`` (its slots, then its lanes: the image
and, for a lift claim, the lifted images) and which sees a recipe's first
candidate and the flagged ones only, and the pencil base, counted once per
``lemma_suite`` call.
In ``constructions.py`` only ``embed_with_negatives`` counts: it checks that
a caller's block is PSD.  The sampler, the pinned suite batch and the
recipes' member filler build their blocks PSD by construction and call the
unchecked builders, so nothing on their paths counts.  In ``pontryagin.py``
``gram_realize`` counts its negatives with one ``sturm_count``, that
function's only caller, and forms no eigenvalue; its two ``eig_sym`` calls
run only on its refusals (||A||_F beyond the largest double, a
zero-counted eigenvalue above k), which name an eigenvalue.  Its vectors
come from elimination.  Only ``linalg`` knows the packing rule: no other
module names ``STACK_ENTRIES`` or ``inertia_stack``, apart from the
package's re-export of ``inertia_stack``.  A scalar trial, suite or profile
loop, a packer of its own, or a count on the sampler's path, coming back
fails here until it is added to the list on purpose; ``SAMPLER_PATH`` may
name only functions that exist.
"""

import ast
from pathlib import Path

import inertia_lab

PACKAGE = Path(inertia_lab.__file__).parent

COUNTERS = {"inertia", "eig_sym", "inertia_stack", "sturm_count", "_on_stack", "_leading_counts"}

EXPECTED = sorted(
    [
        ("constructions.py", "embed_with_negatives", "inertia"),
        ("harness.py", "_ladder", "_on_stack"),
        ("harness.py", "_ladder", "_on_stack"),
        ("harness.py", "_make_witness", "inertia"),
        ("harness.py", "_stacked", "_on_stack"),
        ("harness.py", "lemma_suite", "inertia"),
        ("pontryagin.py", "gram_realize", "eig_sym"),
        ("pontryagin.py", "gram_realize", "eig_sym"),
        ("pontryagin.py", "gram_realize", "sturm_count"),
        ("pontryagin.py", "leading_negativity_profile", "_leading_counts"),
    ]
)

COUNTED = ("constructions.py", "harness.py", "pontryagin.py")

#: the names of the packing rule, which only ``linalg`` may use
RULE = {"STACK_ENTRIES", "inertia_stack"}

#: the functions a trial's slots are sampled through
SAMPLER_PATH = {
    "_sample_slots", "_sample", "_draw", "_settle", "_spectral", "_random_partition",
    "_equicorrelation", "_gather", "_row_map",
}


def _calls(path: Path) -> list[tuple[str, str, str]]:
    """(file, enclosing function, callee) for each call of a counter."""
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in COUNTERS:
                found.append((path.name, scope, name))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8")), "<module>")
    return found


def test_harness_counts_through_the_stack_and_the_one_judge():
    found = sorted(c for name in COUNTED for c in _calls(PACKAGE / name))
    assert found == EXPECTED
    assert not {scope for _, scope, _ in found} & SAMPLER_PATH


def test_the_sampler_path_names_only_defined_functions():
    defined = {
        node.name
        for name in ("constructions.py", "harness.py")
        for node in ast.walk(ast.parse((PACKAGE / name).read_text(encoding="utf-8")))
        if isinstance(node, ast.FunctionDef)
    }
    assert SAMPLER_PATH <= defined


def _rule_uses(path: Path) -> list[str]:
    """Each use of a name of ``RULE``: a name, an attribute, an import or a definition."""
    return [
        name
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        for name in (getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None))
        if name in RULE and isinstance(node, (ast.Name, ast.Attribute, ast.alias, ast.FunctionDef))
    ]


def test_only_linalg_names_the_packing_rule():
    found = sorted(
        (path.name, name)
        for path in PACKAGE.glob("*.py")
        if path.name != "linalg.py"
        for name in _rule_uses(path)
    )
    # the package re-exports inertia_stack from linalg
    assert found == [("__init__.py", "inertia_stack")]


def test_every_use_of_the_packing_rule_is_found(tmp_path):
    src = tmp_path / "probe.py"
    src.write_text(
        "from .linalg import STACK_ENTRIES, inertia_stack\n"
        "def f(a, n):\n"
        "    return linalg.inertia_stack(a, n), len(a) <= STACK_ENTRIES\n"
        "def inertia_stack(a, n):\n"
        "    pass\n",
        encoding="utf-8",
    )
    # the two imports, the attribute, the name and the definition
    assert sorted(_rule_uses(src)) == ["STACK_ENTRIES"] * 2 + ["inertia_stack"] * 3
