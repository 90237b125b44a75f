"""The auditor's boundary, checked from source.

``enumstack.audit`` must not lean on the enforcement code it checks: from
the registrar it may take only data types and the stored-line parser,
from the registry nothing, and ``scenarios`` only for type annotations.
The enforcement modules must not import the auditor either. The names
the benchmark's tracer and step clock patch must resolve on the package.
"""

import ast
import importlib
from pathlib import Path

import pytest

import enumstack
from enumstack import audit, scenarios

PACKAGE = Path(enumstack.__file__).resolve().parent
BENCH = Path(__file__).resolve().parent.parent / "bench"

REGISTRAR_ALLOWED = {"Role", "TransferState", "parse_store_lines"}


def package_imports(source: str) -> list[tuple[str, tuple[str, ...], bool]]:
    """(imported package module, names taken from it, under ``TYPE_CHECKING``)
    for every import of a package module in a package module's *source*."""
    tree = ast.parse(source)
    typing_only: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.If) and ast.unparse(node.test) in (
            "TYPE_CHECKING", "typing.TYPE_CHECKING"
        ):
            typing_only.update(id(n) for stmt in node.body for n in ast.walk(stmt))
    found = []
    for node in ast.walk(tree):
        flag = id(node) in typing_only
        if isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if not node.level:
                if base != "enumstack" and not base.startswith("enumstack."):
                    continue
                base = base[len("enumstack"):].lstrip(".")
            names = tuple(alias.name for alias in node.names)
            if base:
                found.append((base.split(".")[0], names, flag))
            else:  # from . import x: x is a module
                found.extend((name, (), flag) for name in names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("enumstack."):
                    found.append((alias.name.split(".")[1], (), flag))
    return found


def module_imports(module: str) -> list[tuple[str, tuple[str, ...], bool]]:
    return package_imports((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))


def test_import_scan_sees_each_form():
    source = (
        "from typing import TYPE_CHECKING\n"
        "from . import registry\n"
        "from .registrar import Role, AuthorizationGrant\n"
        "import enumstack.registry\n"
        "from enumstack.wire import GET\n"
        "def lazy():\n"
        "    from .scenarios import Topology\n"
        "if TYPE_CHECKING:\n"
        "    from .scenarios import LogRecord\n"
    )
    assert sorted(package_imports(source)) == [
        ("registrar", ("Role", "AuthorizationGrant"), False),
        ("registry", (), False),
        ("registry", (), False),
        ("scenarios", ("LogRecord",), True),
        ("scenarios", ("Topology",), False),
        ("wire", ("GET",), False),
    ]


def test_audit_takes_only_data_types_from_enforcement():
    imports = module_imports("audit")
    assert imports, "the import scan found nothing"
    for module, names, typing_only in imports:
        assert module != "registry", f"audit imports {names or 'the module'} from registry"
        if module == "registrar":
            assert names and set(names) <= REGISTRAR_ALLOWED, (
                f"audit imports {sorted(set(names) - REGISTRAR_ALLOWED) or 'the module'}"
                " from registrar"
            )
        if module == "scenarios":
            assert typing_only, "audit imports scenarios outside TYPE_CHECKING"


@pytest.mark.parametrize("module", ["registrar", "registry"])
def test_enforcement_does_not_import_audit(module):
    assert all(imported != "audit" for imported, _, _ in module_imports(module))


def test_scenarios_reexports_are_the_audit_objects():
    assert scenarios.assert_invariants is audit.assert_invariants
    assert scenarios.AccessOracle is audit.AccessOracle


def bench_literal(file: str, name: str):
    """The literal value a benchmark module assigns to *name*, read from source."""
    tree = ast.parse((BENCH / file).read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{file} assigns no {name}")


def test_traced_functions_resolve():
    for module, attr, _ in bench_literal("tracing.py", "FUNCTIONS"):
        target = getattr(importlib.import_module(f"enumstack.{module}"), attr, None)
        assert callable(target), f"enumstack.{module}.{attr}"


def test_traced_methods_resolve():
    for module, cls, attr, _ in bench_literal("tracing.py", "METHODS"):
        owner = getattr(importlib.import_module(f"enumstack.{module}"), cls, None)
        assert callable(getattr(owner, attr, None)), f"enumstack.{module}.{cls}.{attr}"


def test_step_methods_resolve():
    for name in bench_literal("workloads.py", "STEP_METHODS"):
        assert callable(getattr(scenarios.Topology, name, None)), f"Topology.{name}"
