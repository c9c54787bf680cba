"""The public surface: every exported name resolves, and removed names stay gone."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import fisherlab
from fisherlab import errors

MODULES = [
    "audit",
    "cli",
    "errors",
    "estimation",
    "measurement",
    "metrology",
    "numerics",
    "state_family",
]


def test_the_module_list_is_the_whole_package():
    assert sorted(info.name for info in pkgutil.iter_modules(fisherlab.__path__)) == MODULES


@pytest.mark.parametrize("name", ["fisherlab"] + [f"fisherlab.{module}" for module in MODULES])
def test_every_all_entry_resolves(name):
    module = importlib.import_module(name)
    # errors.py has no __all__: its public names are its exception classes.
    exported = getattr(module, "__all__", [n for n in vars(module) if not n.startswith("_")])
    assert len(set(exported)) == len(exported)
    assert [entry for entry in exported if not hasattr(module, entry)] == []


def test_package_exports_every_error_type():
    types = [value for value in vars(errors).values() if isinstance(value, type)]
    assert types and all(issubclass(t, errors.FisherlabError) for t in types)
    assert {t.__name__ for t in types} <= set(fisherlab.__all__)


def test_test_only_names_are_gone():
    assert not hasattr(fisherlab, "unitary_exp")
    assert not hasattr(fisherlab.numerics, "unitary_exp")
    assert "unitary_exp" not in fisherlab.numerics.__all__
    povm = fisherlab.rotated_qubit_measurement(0.0)
    for attribute in ("effects", "labels"):
        assert not hasattr(fisherlab.Povm, attribute)
        assert not hasattr(povm, attribute)
    with pytest.raises(TypeError):
        fisherlab.Povm.from_effects(tuple(povm.rows.conj().swapaxes(1, 2) @ povm.rows), ("+", "-"))
    assert not hasattr(fisherlab.audit, "_audit_plane")


def test_only_state_family_reads_the_raw_derivative():
    # Every functional reads the gauge-fixed ``tangent``; ``dstate`` holds
    # the global-phase part of a generator offset h + cI.
    readers = [
        path.name
        for path in Path(fisherlab.__file__).parent.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr == "dstate"
    ]
    assert set(readers) <= {"state_family.py"}
    assert not hasattr(fisherlab.metrology, "_tangent")


def test_estimation_returns_estimates_and_writes_no_file():
    # The simulate command writes the trials CSV from the report.
    assert "csv_path" not in inspect.signature(fisherlab.crb_experiment).parameters
    assert not hasattr(fisherlab.estimation, "_write_trials_csv")
    tree = ast.parse(Path(fisherlab.estimation.__file__).read_text())
    imported = [
        node.module
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1
    ]
    assert imported and "audit" not in imported
