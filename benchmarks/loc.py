"""Line counts of the ``ttstar`` package, per module and in total.

    python benchmarks/loc.py [SRC]

SRC is a directory of modules (default: the package, ``src/ttstar`` next
to this script's directory).  For each module the script prints its lines
and its code lines: the lines that hold part of a statement, so blank
lines, comment lines and the lines of docstrings (a string literal that
opens a module, class or function body) do not count.  Then, for a
directory holding ``cli.py`` and ``solver.py``, it prints what a user can
set: the number of ``add_argument`` calls in ``cli.py`` and the fields of
``solver.SolverConfig``.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NON_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(text: str) -> tuple[int, int]:
    """(lines, code lines) of one module's source."""
    docstrings = _docstring_lines(ast.parse(text))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NON_CODE:
            code.update(n for n in range(tok.start[0], tok.end[0] + 1)
                        if n not in docstrings)
    return len(text.splitlines()), len(code)


def options(src: Path) -> tuple[int, list[str]]:
    """(the add_argument calls of cli.py, the fields of SolverConfig)."""
    cli = ast.parse((src / "cli.py").read_text(encoding="utf-8"))
    calls = sum(isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "add_argument" for node in ast.walk(cli))
    solver = ast.parse((src / "solver.py").read_text(encoding="utf-8"))
    # class SolverConfig(namedtuple("SolverConfig", "<fields>"))
    config = next(node for node in ast.walk(solver)
                  if isinstance(node, ast.ClassDef) and node.name == "SolverConfig")
    return calls, config.bases[0].args[1].value.split()


def main(argv: list[str]) -> int:
    default = Path(__file__).resolve().parents[1] / "src" / "ttstar"
    src = Path(argv[0]) if argv else default
    total_lines = total_code = 0
    print(f"{'module':<16}{'lines':>8}{'code':>8}")
    for path in sorted(src.glob("*.py")):
        lines, code = count(path.read_text(encoding="utf-8"))
        total_lines += lines
        total_code += code
        print(f"{path.name:<16}{lines:>8,}{code:>8,}")
    print(f"{'total':<16}{total_lines:>8,}{total_code:>8,}")
    if (src / "cli.py").exists() and (src / "solver.py").exists():
        calls, fields = options(src)
        print(f"cli.py add_argument calls: {calls}")
        print(f"SolverConfig fields: {len(fields)} ({', '.join(fields)})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
