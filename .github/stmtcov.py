"""List the statements of a Python package that the tier-1 tests never run.

Runs pytest in this process under ``sys.settrace`` and ``threading.settrace``,
so statements run by worker threads count and those run only by
subprocesses do not.  A statement is a line that starts an ``ast.stmt`` and
holds bytecode (a function's docstring holds none); it counts as run when a
line event fires on it.  Standard library only; it
writes nothing into the checkout and sets no threshold.  The exit status is
pytest's.

    python .github/stmtcov.py [PACKAGE_DIR]    # default: src/quchain
"""

import ast
import os
import sys
import threading
from pathlib import Path


def code_lines(code) -> set[int]:
    """The lines that hold bytecode in ``code`` and the code nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= code_lines(const)
    return lines


def statements(path: Path) -> set[int]:
    source = path.read_text(encoding="utf-8")
    starts = {node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.stmt)}
    return starts & code_lines(compile(source, str(path), "exec"))


def main(argv: list[str]) -> int:
    package = Path(argv[1] if len(argv) > 1 else "src/quchain").resolve()
    sys.path.insert(0, str(package.parent))
    files = {os.path.realpath(p): p for p in sorted(package.glob("*.py"))}
    hits: dict[str, set[int]] = {path: set() for path in files}
    traced: dict[str, object] = {}  # co_filename -> its local tracer, or None

    def local_for(filename):
        path = os.path.realpath(filename)
        if path not in hits:
            return None
        seen = hits[path]

        def local(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return local

        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in traced:
            traced[name] = local_for(name)
        return traced[name]

    import pytest

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider"])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = 0
    for path, shown in files.items():
        missed = sorted(statements(shown) - hits[path])
        total += len(missed)
        lines = shown.read_text(encoding="utf-8").splitlines()
        for line in missed:
            print(f"{os.path.relpath(shown)}:{line}: {lines[line - 1].strip()}")
    print(f"{total} statements never run")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
