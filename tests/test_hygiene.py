"""Source hygiene: no dead imports in the package, the scripts or the
tests, no dangling exports, a package root that exports the README's
Quick start names and the error classes and nothing else, no public name
that only the tests read, no private function or class that the package
does not read, every binding the benchmark's tracer patches still exists
and the benchmark's self-tests pass, every CLI option and benchmark
record is documented, no trial builds a rational, the package draws its
bounded integers through one helper, and it catches its own errors only at
its boundaries."""

import argparse
import ast
import importlib
import importlib.util
import json
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import orthokernel
from orthokernel import errors, properties
from orthokernel.cli import build_parser, main
from orthokernel.generators import NAMED_FORMS, GenConfig, resolve_space

PACKAGE_DIR = Path(orthokernel.__file__).parent
MODULES = sorted(p for p in PACKAGE_DIR.glob("*.py") if p.name != "__init__.py")
# the package's modules, the example scripts and the tests themselves
SOURCES = MODULES + sorted(
    p for d in ("scripts", "tests") for p in (PACKAGE_DIR.parents[1] / d).glob("*.py")
)


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(name for name in imported if name not in used)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_unused_import_is_detected():
    source = "import os\nfrom math import gcd, lcm\nlcm(1)\n"
    assert _unused_imports(source) == ["gcd", "os"]


def test_every_export_resolves():
    missing = [name for name in orthokernel.__all__ if not hasattr(orthokernel, name)]
    assert missing == []


def _readme_root_imports(readme: str) -> set[str]:
    """The names of the README's ``from orthokernel import (...)`` block."""
    block = re.search(r"^from orthokernel import \([^)]*\)", readme, re.M)
    assert block is not None, "the README imports nothing from the package root"
    (stmt,) = ast.parse(block[0]).body
    return {alias.name for alias in stmt.names}


def test_package_root_exports_the_quick_start_and_the_errors():
    readme = (PACKAGE_DIR.parents[1] / "README.md").read_text()
    error_classes = {
        name
        for name, obj in vars(errors).items()
        if isinstance(obj, type) and issubclass(obj, errors.KernelError)
    }
    assert set(orthokernel.__all__) == _readme_root_imports(readme) | error_classes


def _bench_targets():
    """TARGETS of the benchmark's tracer, loaded from its file."""
    path = PACKAGE_DIR.parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module.TARGETS


def test_benchmark_trace_targets_resolve():
    missing = []
    for target in _bench_targets():
        home = importlib.import_module(f"orthokernel.{target.module}")
        owner, _, attr = target.attr.rpartition(".")
        if owner:
            # the tracer swaps the method in the class's own namespace
            cls = getattr(home, owner, None)
            ok = cls is not None and attr in vars(cls)
        else:
            ok = callable(getattr(home, attr, None))
        if not ok:
            missing.append(f"{target.module}.{target.attr}")
    assert missing == []


def test_benchmark_self_tests_pass():
    # the workloads read more of the package than the traced names; the
    # self-tests build each one.  A subprocess, because the benchmark's
    # import_fresh drops the package from sys.modules and imports it again
    root = PACKAGE_DIR.parents[1]
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "bench/tests"],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]


def _package_names(root: Path) -> tuple[list[str], set[str]]:
    """The top-level functions and classes of the package's modules (bar
    ``__init__``), and every Name or Attribute the package reads outside
    the definition of that name itself."""
    defined, read = [], set()
    for path in sorted((root / "src" / "orthokernel").glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            names = {
                n.id if isinstance(n, ast.Name) else n.attr
                for n in ast.walk(stmt)
                if isinstance(n, (ast.Name, ast.Attribute))
            }
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names.discard(stmt.name)
                if path.name != "__init__.py":
                    defined.append(stmt.name)
            read |= names
    return defined, read


def _unread_public_names(root: Path) -> list[str]:
    """Public top-level functions and classes of the package's modules that
    nothing reads outside their own definition and the tests: no Name or
    Attribute in the package, and no word of bench/*.py, scripts/*.py or
    the README."""
    defined, read = _package_names(root)
    texts = [*root.glob("bench/*.py"), *root.glob("scripts/*.py"), root / "README.md"]
    for path in texts:
        read.update(re.findall(r"\w+", path.read_text()))
    return sorted(name for name in defined if not name.startswith("_") and name not in read)


def test_every_public_name_has_a_reader_outside_the_tests():
    assert _unread_public_names(PACKAGE_DIR.parents[1]) == []


def _unread_private_names(root: Path) -> list[str]:
    """Private top-level functions and classes of the package's modules that
    the package itself never reads: kept alive only for the tests, or not
    at all."""
    defined, read = _package_names(root)
    return sorted(
        name for name in defined if name.startswith("_") and name not in read
    )


def test_every_private_name_has_a_reader_in_the_package():
    assert _unread_private_names(PACKAGE_DIR.parents[1]) == []


def test_unread_private_name_is_detected(tmp_path):
    package = tmp_path / "src" / "orthokernel"
    package.mkdir(parents=True)
    for path in PACKAGE_DIR.glob("*.py"):
        (package / path.name).write_text(path.read_text())
    with open(package / "flats.py", "a") as out:
        out.write("\n\ndef _helper(x):\n    return _helper(x - 1) if x else 0\n")
    assert _unread_private_names(tmp_path) == ["_helper"]


# the boundaries where the package turns its own errors into an outcome:
# the CLI's exit code 2, a trial's counterexample, and the refusal that
# P-NONTRIV checks for
ERROR_BOUNDARIES = {"cli.main", "properties._run_slice"}
REFUSAL_HANDLERS = {("properties._p_nontriv", ("UnsatisfiableParams",))}


def _kernel_error_handlers(root: Path) -> list[tuple[str, tuple[str, ...]]]:
    """Every ``except`` clause of the package that can catch a KernelError:
    one that names a class of ``errors.py``, or catches everything.  Each
    is given as ("module.function", the names it catches)."""
    kernel_errors = {
        name
        for name, obj in vars(errors).items()
        if isinstance(obj, type) and issubclass(obj, errors.KernelError)
    }
    catch_all = {"Exception", "BaseException"}
    found = []

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = where
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{where}.{child.name}"
            if isinstance(child, ast.ExceptHandler):
                types = child.type.elts if isinstance(child.type, ast.Tuple) else [child.type]
                names = tuple(
                    "" if t is None else t.id if isinstance(t, ast.Name) else t.attr
                    for t in types
                )
                if any(n in kernel_errors or n in catch_all or not n for n in names):
                    found.append((where, names))
            visit(child, inner)

    for path in sorted((root / "src" / "orthokernel").glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem)
    return found


def _misplaced_handlers(root: Path) -> list[tuple[str, tuple[str, ...]]]:
    return [
        (where, names)
        for where, names in _kernel_error_handlers(root)
        if where not in ERROR_BOUNDARIES and (where, names) not in REFUSAL_HANDLERS
    ]


def test_kernel_errors_are_caught_only_at_the_boundaries():
    # a precondition failure caught mid-pipeline would read as a verdict
    assert _misplaced_handlers(PACKAGE_DIR.parents[1]) == []


def test_misplaced_kernel_error_handler_is_detected(tmp_path):
    package = tmp_path / "src" / "orthokernel"
    package.mkdir(parents=True)
    for path in PACKAGE_DIR.glob("*.py"):
        (package / path.name).write_text(path.read_text())
    with open(package / "reconstruct.py", "a") as out:
        out.write(
            "\n\ndef _wrapped(l1, l2):\n    try:\n        return lemma2_witness(l1, l2, 1, 2)"
            "\n    except PreconditionError:\n        return None\n"
        )
    assert _misplaced_handlers(tmp_path) == [("reconstruct._wrapped", ("PreconditionError",))]


def _long_options(parser: argparse.ArgumentParser) -> set[str]:
    """Every long option of the parser and of each of its subcommands."""
    options = set()
    for action in parser._actions:
        options.update(o for o in action.option_strings if o.startswith("--"))
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                options |= _long_options(sub)
    return options


def test_every_cli_option_is_in_the_readme():
    readme = (PACKAGE_DIR.parents[1] / "README.md").read_text()
    # "--m" must not count as documented because "--mode" is
    missing = sorted(
        o for o in _long_options(build_parser())
        if not re.search(re.escape(o) + r"(?![\w-])", readme)
    )
    assert missing == []


def test_every_benchmark_record_is_in_the_readme():
    root = PACKAGE_DIR.parents[1]
    cited = set(re.findall(r"BENCH_[\w-]+\.json", (root / "README.md").read_text()))
    present = {p.name for p in root.glob("BENCH_*.json")}
    assert sorted(present - cited) == [] and sorted(cited - present) == []
    for name in sorted(cited):
        record = json.loads((root / name).read_text())
        assert {"label", "change", "context"} <= record.keys(), name


def test_registry_is_a_dict_of_every_property():
    assert type(properties.REGISTRY) is dict
    assert list(properties.REGISTRY) == list(properties.ALL_PROPERTY_IDS)
    assert len(properties.ALL_PROPERTY_IDS) == len(set(properties.ALL_PROPERTY_IDS)) == 29


# a custom form of "p/q" strings, positive definite by diagonal dominance
CUSTOM_FORM = (
    ("3", "1/2", "0", "-1/3"),
    ("1/2", "5/2", "1/4", "0"),
    ("0", "1/4", "2", "1/5"),
    ("-1/3", "0", "1/5", "7/3"),
)


def test_trials_build_no_fractions():
    # rationals are read to integers as forms and flats are parsed; from
    # cold space caches, a run over every property and form, a custom form
    # of "p/q" strings among them, builds no Fraction at all
    resolve_space.cache_clear()
    original = vars(Fraction)["__new__"]
    built = 0

    def counting_new(cls, *args, **kwargs):
        nonlocal built
        built += 1
        return original.__func__(cls, *args, **kwargs)

    Fraction.__new__ = counting_new
    try:
        properties.run_suite(
            GenConfig(dim=4),
            properties.ALL_PROPERTY_IDS,
            20,
            [*NAMED_FORMS, CUSTOM_FORM],
        )
    finally:
        Fraction.__new__ = original
    assert built == 0


def test_subcommands_build_no_fractions(capsys, tmp_path):
    # from cold space caches, every subcommand builds, decides and writes
    # its flats in integers, and check reads a custom form file to integers
    resolve_space.cache_clear()
    form_file = tmp_path / "form.json"
    form_file.write_text(json.dumps(CUSTOM_FORM))
    params = ["--m", "1", "--k1", "2", "--k2", "3"]
    runs = [
        ["witness", "--dim", "6", "--count", "3", *params],
        ["witness", "--dim", "6", "--count", "3", "--lemma", "1", *params],
        ["witness", "--dim", "6", "--count", "3", "--lemma", "2", *params],
        ["reconstruct", "--dim", "6", "--pairs", "20", *params],
        ["counterexample"],
        ["check", "--dim", "4", "--trials", "5", "--props", "core", "--form", str(form_file)],
    ]
    original = vars(Fraction)["__new__"]
    built = {}

    def counting_new(cls, *args, **kwargs):
        built[name] = built.get(name, 0) + 1
        return original.__func__(cls, *args, **kwargs)

    Fraction.__new__ = counting_new
    try:
        for argv in runs:
            name = " ".join(argv)
            assert main(argv) == 0
    finally:
        Fraction.__new__ = original
    capsys.readouterr()
    assert built == {}


def test_integer_draws_have_one_seam():
    """Every bounded integer the package draws comes from ortho._draws,
    which relies on getrandbits alone."""
    drawing = [p.name for p in PACKAGE_DIR.glob("*.py") if ".randint(" in p.read_text()]
    assert drawing == []
