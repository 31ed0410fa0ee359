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


def public_callers() -> dict:
    """Qualified name of each public function and method in src/ -> whether
    anything in src/ outside its own definition references it."""
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
    return {
        qualified: references[name] != referenced_names(node)[name]
        for qualified, name, node in defined
        if not name.startswith("_")
    }


def test_every_public_function_has_a_caller_in_src():
    uncalled = sorted(
        name for name, called in public_callers().items()
        if not called and name not in ALLOWED
    )
    assert not uncalled, f"public names nothing in src/ references: {uncalled}"


def test_allowed_names_are_defined_and_still_uncalled():
    # a name that gained a caller in src/, or went away, leaves ALLOWED
    callers = public_callers()
    stale = sorted(name for name in ALLOWED if callers.get(name, True))
    assert not stale, f"ALLOWED names that are gone or now have a caller: {stale}"
