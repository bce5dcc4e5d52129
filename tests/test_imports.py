"""Every module-level import in the library and the tests is read somewhere
in its module. The package ``__init__.py`` is exempt: its imports are the
public re-exports, pinned by name below so that a dropped or added export
shows up as a diff."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

import agcodes

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = sorted(
    p for p in (*(ROOT / "src" / "agcodes").glob("*.py"), *(ROOT / "tests").glob("*.py"))
    if p.name != "__init__.py"
)


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound -> line, for each import statement at module level."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _read_names(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_module_level_import(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    read = _read_names(tree)
    unused = [f"{name} (line {line})" for name, line in _imported_names(tree).items()
              if name not in read]
    assert not unused, f"{path.name} imports names it never reads: {', '.join(unused)}"


# the re-exports and the `bounds` module; the other submodules are not exports
PUBLIC_NAMES = [
    "Alphabet", "Code", "CombinedParams", "Divisor", "FieldSpec", "HermitianCurve", "Place",
    "Point", "Polynomial", "PreconditionError", "ProjectiveLine",
    "SectionTable", "VerificationError", "XingParams", "ball_size", "bounds",
    "build_combined", "build_curve", "build_goppa", "build_section_code", "build_xing",
    "default_eval_points", "enumerate_irreducibles", "enumerate_sections", "exact_min_distance",
    "goppa_sum_check", "make_field", "make_field_q", "optimal_sigma",
    "optimal_sigma0", "search_centers", "solution_multiplicity", "threshold_check",
]


def test_public_names_are_pinned():
    assert sorted(agcodes.__all__) == PUBLIC_NAMES


# the expansion kernel and the basis it reads; the oracles must reach their
# answers without them, or a basis or word test would check the code against
# itself
CHECKED_NAMES = {"kernels", "taylor", "expansions", "local_expansion", "phi_words",
                 "phi_basis_rows", "riemann_roch_basis"}


def test_oracles_read_none_of_the_checked_code():
    tree = ast.parse((ROOT / "tests" / "conftest.py").read_text())
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    read |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    read |= {alias.asname or alias.name for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    assert not read & CHECKED_NAMES, sorted(read & CHECKED_NAMES)


def test_importing_the_cli_leaves_mpmath_unloaded():
    # bounds imports mpmath inside the functions that use it, so a command
    # that never reaches them does not pay for loading it
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = "import sys, agcodes.cli; print('mpmath' in sys.modules)"
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0 and run.stdout.strip() == "False", run.stderr
