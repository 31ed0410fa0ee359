"""Shared helpers for the test suite."""

import hashlib
import json
from pathlib import Path

GOLDEN = Path(__file__).parent / "golden" / "solve_hashes.json"

FAST_SOLVE = """
grid.L = 20
grid.N = 64
params.b = 2
params.s = 2
solver.dt = 0.01
solver.T = 0.1
solver.stride = 5
initial.family = gaussian
initial.amp = 0.3
initial.width = 2
initial.center = 0
"""


def tree_digest(root: Path) -> str:
    acc = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            acc.update(path.relative_to(root).as_posix().encode())
            acc.update(path.read_bytes())
    return acc.hexdigest()


def check_golden(key: str, digest: str):
    """Compare against the stored hash of this formulation; never writes.

    The hashes are platform-independent as far as they have been checked
    (the same bytes on py3.10/numpy 2.2 and py3.11/numpy 2.4, x86_64); a
    deliberate change of the numerics re-baselines the file by hand.
    """
    stored = json.loads(GOLDEN.read_text())
    assert key in stored, f"no golden hash stored for '{key}'"
    assert stored[key] == digest, f"golden hash changed for '{key}': {digest}"
