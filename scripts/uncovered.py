"""List the statements inside functions of the package that the test suite never runs.

    python3 scripts/uncovered.py [PYTEST ARGS...]

Runs ``pytest`` on ``tests/`` in this process under a line tracer
(``sys.settrace``) that records only frames of ``src/softknn``. Then
prints ``module:line: statement`` for every statement inside a function
(methods and nested functions included) on none of whose own lines a
line event fired, and the count. Docstrings and other bare constants are
not statements here; a ``try`` counts through the statements it holds.
Exits with pytest's status.
"""

import ast
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "softknn"


def function_statements(tree: ast.Module):
    """Every statement inside a function, with the lines that show it ran.

    A statement's own lines are its span minus the spans of the statements
    it holds, plus its decorators' lines.
    """

    def span(node) -> set[int]:
        return set(range(node.lineno, node.end_lineno + 1))

    def walk(body, inside: bool):
        for node in body:
            blocks = [getattr(node, name, []) for name in ("body", "orelse", "finalbody")]
            blocks += [part.body for part in getattr(node, "handlers", []) + getattr(node, "cases", [])]
            bare = isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            if inside and not bare and not isinstance(node, (ast.Try, ast.Global, ast.Nonlocal)):
                lines = span(node).difference(*(span(child) for block in blocks for child in block))
                yield node, lines | {d.lineno for d in getattr(node, "decorator_list", [])}
            nested = inside or isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            for block in blocks:
                yield from walk(block, nested)

    yield from walk(tree.body, False)


def main(argv: list[str]) -> int:
    prefix = str(PACKAGE) + "/"
    ran: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        if not frame.f_code.co_filename.startswith(prefix):
            return None
        ran.setdefault(frame.f_code.co_filename, set())
        return local

    sys.settrace(tracer)
    try:
        status = pytest.main([str(REPO / "tests"), "-q", "-p", "no:cacheprovider", *argv])
    finally:
        sys.settrace(None)

    missed = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        text = source.splitlines()
        hit = ran.get(str(path), set())
        for node, lines in function_statements(ast.parse(source)):
            if not lines & hit:
                missed.append(f"{path.stem}:{node.lineno}: {text[node.lineno - 1].strip()}")
    for line in missed:
        print(line)
    print(f"{len(missed)} statements inside functions never ran")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
