"""Every eigensolve and inertia count in ``harness.py``, ``constructions.py`` and ``pontryagin.py`` is known.

Verify, random search and the lemma suite run through one trial loop,
``_stacked``, whose ``_on_stack`` counts whole chunks of matrices through
``_count``, one ``inertia_stack`` call per chunk.  A recipe ladder screens its candidates
after the first through the same ``_count`` (``_screen``), so it adds no
count site.  The scalar calls left are the one judge ``_make_witness``
(its slots, then its lanes: the image and, for a lift claim, the lifted
images), which sees a recipe's first candidate and the flagged ones only,
the pinned eigenvalues of ``_suite_pinned``, two ``sturm_count`` shifts at
the edges of their window, and the pencil base, counted once per
``lemma_suite`` call.
In ``constructions.py`` only ``embed_with_negatives`` counts: it checks that
a caller's block is PSD.  The sampler, the pinned suite batch and the
recipes' member filler build their blocks PSD by construction and call the
unchecked builders, so nothing on their paths counts.  In ``pontryagin.py`` ``gram_realize`` counts its
negatives with one ``sturm_count`` and forms no eigenvalue; its two
``eig_sym`` calls run only on its refusals (||A||_F beyond the largest
double, a zero-counted eigenvalue above k), which name an eigenvalue.  Its
vectors come from elimination.  ``leading_negativity_profile`` counts its
leading blocks as stacks.  A scalar
trial, suite or profile loop, or a count on the sampler's path, coming back
fails here until it is added to the list on purpose; ``SAMPLER_PATH`` may
name only functions that exist.
"""

import ast
from pathlib import Path

import inertia_lab

PACKAGE = Path(inertia_lab.__file__).parent

COUNTERS = {"inertia", "eig_sym", "inertia_stack", "sturm_count"}

EXPECTED = sorted(
    [
        ("constructions.py", "embed_with_negatives", "inertia"),
        ("harness.py", "_count", "inertia_stack"),
        ("harness.py", "_make_witness", "inertia"),
        ("harness.py", "_make_witness", "inertia"),
        ("harness.py", "_suite_pinned", "sturm_count"),
        ("harness.py", "lemma_suite", "inertia"),
        ("pontryagin.py", "gram_realize", "eig_sym"),
        ("pontryagin.py", "gram_realize", "eig_sym"),
        ("pontryagin.py", "gram_realize", "sturm_count"),
        ("pontryagin.py", "leading_negativity_profile", "inertia_stack"),
    ]
)

COUNTED = ("constructions.py", "harness.py", "pontryagin.py")

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
