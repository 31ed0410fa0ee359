"""Every stderr line of the package goes out through cli._say, in one write.

print(..., file=sys.stderr) writes the message and its newline separately;
one write keeps each exit's one stderr line whole, and keeps the single
place where more lines (a verbose mode's progress) would be added.
"""

import ast
from pathlib import Path

import bfamily

SRC = Path(bfamily.__file__).parent


def stderr_writes(path) -> list:
    """'file:line' of each print to a file, and of each stderr reference
    outside a function named _say."""
    sites = []

    def visit(node, in_say):
        if isinstance(node, ast.FunctionDef):
            in_say = node.name == "_say"
        printed = (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "print"
            and any(k.arg == "file" for k in node.keywords)
        )
        if printed or (isinstance(node, ast.Attribute) and node.attr == "stderr" and not in_say):
            sites.append(f"{path.name}:{node.lineno}")
        for child in ast.iter_child_nodes(node):
            visit(child, in_say)

    visit(ast.parse(path.read_text()), False)
    return sites


def test_stderr_is_written_only_by_say():
    sites = sorted({site for path in sorted(SRC.glob("*.py")) for site in stderr_writes(path)})
    assert not sites, f"stderr written outside cli._say: {sites}"


def test_say_writes_its_line_once():
    say = next(
        node for node in ast.parse((SRC / "cli.py").read_text()).body
        if isinstance(node, ast.FunctionDef) and node.name == "_say"
    )
    calls = [node for node in ast.walk(say) if isinstance(node, ast.Call)]
    assert [ast.unparse(call.func) for call in calls] == ["sys.stderr.write"]
