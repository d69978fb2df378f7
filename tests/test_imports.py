"""What a cold start loads, checked in fresh interpreters: no ``ttstar``
module imports ``dataclasses``, ``import ttstar.cli`` leaves out ``typing``,
``json`` and ``csv`` load only in the commands that write them, and a case
is derived only when it is read."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

WATCHED = ("dataclasses", "json", "csv")


def _fresh(code: str, *flags: str) -> list[str]:
    """The stdout lines of ``code`` run in a fresh interpreter on ``src``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, *flags, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


# after each import in turn, the watched modules loaded so far; sys.modules
# only grows, so a module absent after the last import was loaded by none
_IMPORTS = f"""
import importlib, sys
def loaded():
    return " ".join(m for m in {WATCHED!r} if m in sys.modules) or "-"
print("start", loaded())
for name in ("cli", "cases", "stokes", "exact", "enumeration", "theta", "solver"):
    importlib.import_module("ttstar." + name)
    print(name, loaded())
"""


def test_no_module_imports_dataclasses_and_cli_skips_json_csv():
    lines = _fresh(_IMPORTS)
    assert lines == ["start -", "cli -", "cases -", "stokes -", "exact -",
                     "enumeration -", "theta -", "solver -"]


def test_cli_import_skips_typing():
    """Annotations are never evaluated, so no module imports ``typing`` for
    them; ``-S`` keeps ``site`` from loading it first."""
    assert _fresh("import sys, ttstar.cli; print('typing' in sys.modules)",
                  "-S") == ["False"]


def test_readme_convert_loads_neither_json_nor_csv():
    lines = _fresh(
        "import sys\n"
        "from ttstar.cli import main\n"
        "code = main(['convert', '4a', '--from', 'asymptotic', '3', '1'])\n"
        "code += main(['convert', '5a', '--from', 'k', '-2/3', '-5/6', '-5/6', "
        "'-5/6', '-5/6'])\n"
        f"print(code, [m for m in {WATCHED!r} if m in sys.modules])\n")
    assert "stokes    (±4, -6)  [integral]" in lines
    assert lines[-1] == "0 []"


def test_json_and_csv_output_unchanged():
    """Each output is pinned by the sha256 of its UTF-8 text, and only the
    writer of each format loads its module."""
    lines = _fresh(
        "import contextlib, hashlib, io, sys\n"
        "from ttstar.cli import main\n"
        "for argv in (['enumerate', '6a', '--format', 'json'],\n"
        "             ['enumerate', '--all', '--format', 'csv']):\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        code = main(argv)\n"
        "    print(code, hashlib.sha256(out.getvalue().encode()).hexdigest(),\n"
        "          argv[-1] in sys.modules)\n")
    assert lines == [
        "0 3b3e56ab5ab138374a20348b4b980844a7a1aedb5d0c38872b3312cb33d8300f True",
        "0 0d86320b7f2b16eb32c4719712d7bede5b3a761a5e6a6c2fd17ec1c72f0e364d True",
    ]


def test_cases_derived_only_when_read():
    """Each case's formula and descriptor are derived from its reflection on
    first use: ``import ttstar.cli`` derives none, and ``convert`` derives
    only its own case's."""
    lines = _fresh(
        "import contextlib, io\n"
        "import ttstar.cli\n"
        "from ttstar.cases import case_formula, descriptor\n"
        "print(case_formula.cache_info().currsize, descriptor.cache_info().currsize)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = ttstar.cli.main(['convert', '4a', '--from', 'asymptotic', '3', '1'])\n"
        "print(code, case_formula.cache_info().currsize, descriptor.cache_info().currsize,\n"
        "      ttstar.cases.GROUPS['4'])\n")
    assert lines == ["0 0", "0 1 1 ('4a', '4b')"]
