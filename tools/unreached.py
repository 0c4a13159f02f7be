"""List the functions of ``src/skylattice`` that no fixture command calls.

Usage::

    python3 tools/unreached.py

Profiling starts before ``skylattice`` is imported, so functions that run
at import time (option tables, command registration) count as reached.
The 12 commands of ``tools/fixture_digests.py`` then run in-process in a
temporary directory.  Output is one ``<module>:<line> <name>`` line per
function or method defined in the package's sources that none of them
called, sorted by module and line; ``<line>`` is the ``def`` line and
``<name>`` the qualified name (``Class.method``).
"""

from __future__ import annotations

import ast
import contextlib
import io
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "skylattice"


def defined_functions(path: Path) -> list[tuple[int, int, str]]:
    """(first line, def line, qualified name) of each function in ``path``.

    The first line is that of the first decorator, as a code object's
    ``co_firstlineno`` counts it.
    """
    found = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found.append((first, child.lineno, prefix + child.name))
                visit(child, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")

    visit(ast.parse(path.read_text()), "")
    return found


def main() -> int:
    called: set[tuple[str, int]] = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    sys.path.insert(0, str(REPO / "tools"))
    import fixture_digests

    sys.setprofile(profile)
    try:
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
            code = fixture_digests.run_commands(Path(tmp), REPO)
    finally:
        sys.setprofile(None)
    if code != 0:
        return code
    for path in sorted(PACKAGE.glob("*.py")):
        filename = str(path.resolve())
        for first, line, name in defined_functions(path):
            if (filename, first) not in called:
                print(f"skylattice.{path.stem}:{line} {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
