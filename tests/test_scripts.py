"""The repository's measuring scripts: ``scripts/code_lines.py``."""

import importlib.util
import textwrap
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.fixture(scope="module")
def code_lines():
    spec = importlib.util.spec_from_file_location("code_lines", SCRIPTS / "code_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
