"""Every public function and method of the package has a caller in the package,
its classes define no special method beyond the protocol it uses, each
module uses every name it imports, so no module re-exports another's names,
every step rule lives in dynamics, every run stays in the one process
that started it (and every test but three, which need a fresh interpreter),
and every error class is one that some caller catches."""

import ast
from collections import Counter
from pathlib import Path

import bfamily

SRC = Path(bfamily.__file__).parent

# the flow-to-velocity map, which the acceptance suite calls and which is to
# gain a caller in src/, and the report reader bench/ calls
ALLOWED = {"eulerian_from_lagrangian", "read_experiment_rows"}

# dataclass and error construction, config lookup and Field arithmetic
# (the witness's (1.0 / n) * cfg.v needs __rmul__, bound to __mul__)
PROTOCOL = {
    "__init__", "__post_init__", "__getitem__", "__add__", "__sub__", "__mul__", "__rmul__",
}


def referenced_names(node) -> Counter:
    """Names loaded or looked up as attributes under node; imports do not count."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def source_trees() -> list:
    return [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]


def public_callers() -> dict:
    """Qualified name of each public function and method in src/ -> whether
    anything in src/ outside its own definition references it."""
    trees = source_trees()
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


def class_attributes(cls: ast.ClassDef) -> list:
    """Names a class body defines by def or binds by plain assignment."""
    names = []
    for item in cls.body:
        if isinstance(item, ast.FunctionDef):
            names.append(item.name)
        elif isinstance(item, ast.Assign):
            names.extend(t.id for t in item.targets if isinstance(t, ast.Name))
    return names


def test_classes_define_only_the_protocol_dunders_the_package_uses():
    # public_callers skips dunders, so a special method kept for the tests
    # alone would go unseen there
    extra = sorted(
        f"{cls.name}.{name}"
        for tree in source_trees()
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for name in class_attributes(cls)
        if name.startswith("__") and name.endswith("__") and name not in PROTOCOL
    )
    assert not extra, f"dunders outside the protocol the package uses: {extra}"


def imported_names(tree) -> list:
    """Names the import statements of a module bind; `from __future__` binds none."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.extend(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.extend(a.asname or a.name for a in node.names)
    return names


def test_every_imported_name_is_used_where_it_is_imported():
    # a name imported only to be passed on gives it a second home: callers
    # import each name from the module that defines it
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [f"{path.stem}.{name}" for name in imported_names(tree) if name not in used]
    assert not unused, f"imported names their module never uses: {unused}"


def imported_modules(tree) -> list:
    """Top-level names of the modules a module's import statements load."""
    modules = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.extend(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.append(node.module.split(".")[0])
    return modules


SPAWNING = {"concurrent", "multiprocessing", "subprocess"}


def test_no_module_starts_another_process():
    # a run marches in the process that started it: no pool, no child process
    found = [
        f"{path.stem} imports {module}"
        for path in sorted(SRC.glob("*.py"))
        for module in imported_modules(ast.parse(path.read_text()))
        if module in SPAWNING
    ]
    assert not found, f"modules that can start another process: {found}"


# the tests worth a fresh interpreter's start-up: the `python -m bfamily.cli`
# path, --help, and an import check that needs a clean sys.modules
FRESH = {
    "test_cli.test_main_module_keeps_the_exit_line_protocol",
    "test_cli.test_help_states_the_exit_codes_without_developer_notes",
    "test_cli.test_config_does_not_import_io",
}


def test_only_the_named_tests_start_another_process():
    # every other test runs the CLI in-process, where an uncaught exception
    # or a warning fails it just as well, so tier-1 pays no start-up for it
    found = {
        f"{path.stem}.{getattr(node, 'name', node.lineno)}"
        for path in sorted(Path(__file__).parent.glob("*.py"))
        for node in ast.parse(path.read_text()).body
        if SPAWNING & ({*referenced_names(node), *imported_modules(node)})
    }
    assert found == FRESH, f"tests that start a process: {sorted(found)}"


def step_rules_outside_dynamics(path: Path) -> list:
    """Module-level names ending in _DT that a module binds, and its calls of
    replace(..., dt=...): each sets a march's step."""
    tree = ast.parse(path.read_text())
    bound = [
        target.id
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name) and target.id.endswith("_DT")
    ]
    replaced = [
        f"replace(..., dt=...) at line {node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "replace"
        and any(keyword.arg == "dt" for keyword in node.keywords)
    ]
    return [f"{path.stem}: {rule}" for rule in bound + replaced]


def test_every_step_rule_lives_in_dynamics():
    # march_dt, FLOW_DT and flow_solver are the one home of every step a march
    # takes, so a step policy is changed in one module
    found = [
        rule
        for path in sorted(SRC.glob("*.py"))
        if path.stem != "dynamics"
        for rule in step_rules_outside_dynamics(path)
    ]
    assert not found, f"step rules outside dynamics: {found}"
    assert step_rules_outside_dynamics(SRC / "dynamics.py")  # the check sees them there


# invert's failure, which no caller recovers from: it ends the run as `run failed:`
UNCAUGHT = {"InversionError"}


def caught_names(tree) -> set:
    """Names that the except clauses of a module name."""
    return {
        name
        for handler in ast.walk(tree)
        if isinstance(handler, ast.ExceptHandler) and handler.type is not None
        for name in referenced_names(handler.type)
    }


def test_every_error_class_is_caught_somewhere_in_src():
    # an error class no except names adds a type and tells no caller anything
    declared = {
        node.name for node in ast.parse((SRC / "errors.py").read_text()).body
        if isinstance(node, ast.ClassDef)
    }
    caught = set().union(*map(caught_names, source_trees()))
    assert declared - caught == UNCAUGHT, f"uncaught: {sorted(declared - caught)}"
