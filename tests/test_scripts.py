"""The repository's measuring scripts: ``scripts/code_lines.py`` and ``scripts/uncovered.py``."""

import ast
import importlib.util
import textwrap
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def code_lines():
    return _load("code_lines")


@pytest.fixture(scope="module")
def uncovered():
    return _load("uncovered")


def _count(code_lines, source: str) -> int:
    return code_lines.code_lines(textwrap.dedent(source))


class TestCodeLines:
    def test_docstrings_comments_and_blank_lines_do_not_count(self, code_lines):
        source = '''
            """Module docstring,
            on two lines."""

            # A comment.
            import os  # a trailing comment keeps its line


            class A:
                """Class docstring."""

                def f(self):
                    """Method docstring,

                    with a blank line inside.
                    """
                    # Only the return counts.
                    return 1


            async def g():
                """Coroutine docstring."""
                return os
        '''
        # import, class, def f, return 1, async def g, return os.
        assert _count(code_lines, source) == 6

    def test_only_the_first_bare_string_is_a_docstring(self, code_lines):
        source = '''
            def f():
                """Docstring."""
                x = 1
                """A bare string after a statement,
                on two lines, is code."""
                return x
        '''
        # def, x = 1, the two lines of the bare string, return.
        assert _count(code_lines, source) == 5

    def test_every_line_of_a_statement_counts(self, code_lines):
        source = """
            total = max(
                1,
                # a comment inside the call

                2,
            )
            text = '''one
            two'''
            joined = 1 + \\
                2
        """
        # The call's lines but its comment and blank line, both lines of the
        # string, both lines joined by the backslash.
        assert _count(code_lines, source) == 4 + 2 + 2

    def test_empty_source(self, code_lines):
        assert _count(code_lines, "") == 0
        assert _count(code_lines, '"""Only a docstring."""\n# and a comment\n') == 0

    def test_main_prints_each_module_then_the_total(self, code_lines, tmp_path, capsys):
        (tmp_path / "b.py").write_text('"""Doc."""\nx = 1\ny = (\n    2\n)\n')
        (tmp_path / "a.py").write_text("# comment\n\nz = 3\n")
        (tmp_path / "notes.txt").write_text("w = 4\n")
        assert code_lines.main([str(tmp_path)]) == 0
        assert capsys.readouterr().out == "a 1\nb 4\ntotal 5\n"


def _statements(uncovered, source: str) -> list[tuple[str, int, list[int]]]:
    """(node type, first line, own lines) of each statement ``function_statements`` lists, in its order."""
    tree = ast.parse(textwrap.dedent(source))
    return [(type(node).__name__, node.lineno, sorted(lines)) for node, lines in uncovered.function_statements(tree)]


class TestFunctionStatements:
    def test_docstrings_and_bare_constants_are_not_statements(self, uncovered):
        source = """
            def f():
                \"\"\"Docstring.\"\"\"
                ...
                7
                x = 1
        """
        assert _statements(uncovered, source) == [("Assign", 6, [6])]

    def test_try_counts_through_its_children(self, uncovered):
        source = """
            def f():
                try:
                    a = 1
                except ValueError:
                    b = 2
                else:
                    c = 3
                finally:
                    d = 4
        """
        assert _statements(uncovered, source) == [
            ("Assign", 4, [4]), ("Assign", 8, [8]), ("Assign", 10, [10]), ("Assign", 6, [6]),
        ]

    def test_decorator_lines_count_and_nested_functions_are_listed(self, uncovered):
        source = """
            def outer():
                @staticmethod
                def inner(
                    a,
                ):
                    return a
                return inner
        """
        # inner's own lines are its signature and its decorator, not its body.
        assert _statements(uncovered, source) == [
            ("FunctionDef", 4, [3, 4, 5, 6]), ("Return", 7, [7]), ("Return", 8, [8]),
        ]

    def test_module_level_statements_are_not_listed(self, uncovered):
        source = """
            x = 1
            if x:
                y = 2


            class A:
                z = 3

                def m(self):
                    return 4
        """
        assert _statements(uncovered, source) == [("Return", 11, [11])]
