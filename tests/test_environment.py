"""The program reads no environment variable but the BLAS thread setting.

Behaviour follows from the input, the config and the flags; the only
environment it reads is what OpenBLAS reads too, to record it in
checkpoints and to decide when a process can use a second core. A new
environment knob fails this test.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tastas"
ALLOWED = {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"}


def _strings(node) -> set | None:
    """The string constants a tuple or list of them holds; None for anything else."""
    if isinstance(node, (ast.Tuple, ast.List)) and all(
        isinstance(e, ast.Constant) and isinstance(e.value, str) for e in node.elts
    ):
        return {e.value for e in node.elts}
    return None


def _environment_reads(tree) -> list[tuple[int, set | None]]:
    """(line, names) of each os.environ or os.getenv use in a module. names are
    the variables it can read: a string key, or every string of the tuple a
    for-loop variable key runs over; None where the scan cannot tell."""
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    loops: dict[str, set] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.For) and isinstance(node.target, ast.Name) and _strings(node.iter) is not None:
            loops.setdefault(node.target.id, set()).update(_strings(node.iter))

    def names(key) -> set | None:
        if isinstance(key, ast.Constant) and isinstance(key.value, str):
            return {key.value}
        return loops.get(key.id) if isinstance(key, ast.Name) else None

    reads = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "os":
            reads += [(node.lineno, None) for alias in node.names if alias.name in ("environ", "getenv")]
        if not (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "os"):
            continue
        parent = parents[node]
        if node.attr == "getenv":
            call = parent if isinstance(parent, ast.Call) and parent.func is node and parent.args else None
            reads.append((node.lineno, names(call.args[0]) if call else None))
        elif node.attr == "environ":
            if isinstance(parent, ast.Subscript) and parent.value is node:
                reads.append((node.lineno, names(parent.slice)))
            elif isinstance(call := parents.get(parent), ast.Call) and call.func is parent and call.args:
                reads.append((node.lineno, names(call.args[0])))
            else:  # the whole mapping: copied, iterated or handed on
                reads.append((node.lineno, None))
    return sorted(reads, key=lambda read: read[0])


def test_the_program_reads_only_the_blas_thread_setting_from_the_environment():
    found = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        for line, names in _environment_reads(ast.parse(path.read_text(encoding="utf-8"))):
            where = f"{path.relative_to(PACKAGE)}:{line}"
            assert names is not None, f"{where}: an environment read whose variable the scan cannot tell"
            assert names <= ALLOWED, f"{where}: reads {sorted(names - ALLOWED)}"
            found |= names
    assert found == ALLOWED  # the scan sees the reads that are there


def test_the_scan_catches_a_new_knob():
    code = """
import os
from os import getenv
a = os.environ.get("TASTAS_WORKERS", "0")
b = os.getenv("OMP_NUM_THREADS")
c = dict(os.environ)
for name in ("OMP_NUM_THREADS", "TASTAS_DEBUG"):
    d = os.environ[name]
e = os.environ.get(prefix + "X")
"""
    assert _environment_reads(ast.parse(code)) == [
        (3, None),
        (4, {"TASTAS_WORKERS"}),
        (5, {"OMP_NUM_THREADS"}),
        (6, None),
        (8, {"OMP_NUM_THREADS", "TASTAS_DEBUG"}),
        (9, None),
    ]
