"""Every public function and method of the package has a caller in the package."""

import ast
from collections import Counter
from pathlib import Path

import bfamily

# laboratory identities and artifact readers only the acceptance suite and bench/ call
ALLOWED = {
    "rhs_eulerian", "christoffel_at", "christoffel_id", "eulerian_from_lagrangian",
    "read_diffeo_csv", "read_experiment_rows", "Field.from_function",
}


def referenced_names(node) -> Counter:
    """Names loaded or looked up as attributes under node; imports do not count."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def test_every_public_function_has_a_caller_in_src():
    src = Path(bfamily.__file__).parent
    trees = [ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))]
    references = sum(map(referenced_names, trees), Counter())
    defined = []  # (qualified name, bare name, def node)
    for node in (node for tree in trees for node in tree.body):
        if isinstance(node, ast.FunctionDef):
            defined.append((node.name, node.name, node))
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            defined.extend(
                (f"{node.name}.{item.name}", item.name, item)
                for item in node.body
                if isinstance(item, ast.FunctionDef)
            )
    uncalled = sorted(
        qualified
        for qualified, name, node in defined
        if not name.startswith("_")
        and qualified not in ALLOWED
        and references[name] == referenced_names(node)[name]
    )
    assert not uncalled, f"public names nothing in src/ references: {uncalled}"
