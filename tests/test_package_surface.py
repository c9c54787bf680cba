"""The public surface: every exported name resolves, and removed names stay gone."""

import ast
import dataclasses
import importlib
import inspect
import math
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fisherlab
from fisherlab import cli, errors

SRC = Path(fisherlab.__file__).parent
ROOT = Path(__file__).resolve().parents[1]
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
    # hermitian_eig returns NumPy's own eigh result, which has the same two fields.
    assert not hasattr(fisherlab, "EigenDecomposition")
    assert not hasattr(fisherlab.numerics, "EigenDecomposition")
    assert "EigenDecomposition" not in fisherlab.__all__ + fisherlab.numerics.__all__
    # The central difference and the optimal input are test oracles (conftest.py).
    removed = {
        "state_family": ["finite_difference_derivative", "DEFAULT_FD_STEP"],
        "errors": ["InvalidStepError"],
        "metrology": ["optimal_input_state", "_qfi_report"],
    }
    for module, names in removed.items():
        for name in names:
            assert not hasattr(getattr(fisherlab, module), name)
            assert not hasattr(fisherlab, name) and name not in fisherlab.__all__


def _public_names() -> set:
    """Every ``__all__`` entry of the package and its modules, and every error class."""
    names = set(fisherlab.__all__)
    names |= {value.__name__ for value in vars(errors).values() if isinstance(value, type)}
    for module in MODULES:
        names |= set(getattr(importlib.import_module(f"fisherlab.{module}"), "__all__", []))
    return names


def test_every_public_name_has_a_user_outside_the_tests():
    # A user is a load of the name in the package (its own re-export in
    # __init__.py aside), or a mention in the benchmark, the project file or the README.
    loaded = {
        node.id if isinstance(node, ast.Name) else node.attr
        for path in SRC.glob("*.py")
        if path.name != "__init__.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }
    texts = [path.read_text() for path in sorted((ROOT / "bench").glob("*.py"))]
    texts += [(ROOT / "pyproject.toml").read_text(), (ROOT / "README.md").read_text()]
    mentioned = {word for text in texts for word in re.findall(r"\w+", text)}
    assert sorted(_public_names() - loaded - mentioned) == []


def _private_definitions(tree) -> dict:
    """Module-level ``_name`` definitions in ``tree`` by name, dunder names aside."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [target.id for target in targets if isinstance(target, ast.Name)]
        else:
            continue
        defined |= {name: node for name in names if re.fullmatch(r"_(?!_)\w*", name)}
    return defined


def test_every_private_name_has_a_user_in_the_package():
    # A helper that only the tests load is test code kept in the package. A user
    # is a load of the name outside its own definition, in its own module or in
    # one that imports it from there.
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    loads = {}  # (defining module, name) -> ids of the nodes that load it
    for module, tree in trees.items():
        local = {name: (module, name) for name in _private_definitions(tree)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                for alias in node.names:
                    local[alias.asname or alias.name] = (node.module, alias.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id in local:
                loads.setdefault(local[node.id], set()).add(id(node))
    unused = []
    for module, tree in trees.items():
        for name, definition in _private_definitions(tree).items():
            own = {id(node) for node in ast.walk(definition)}
            if not loads.get((module, name), set()) - own:
                unused.append(f"{module}.{name}")
    assert unused == []


def test_qfi_report_takes_the_state_and_derivative_like_qfi_and_sld():
    for function in (fisherlab.qfi, fisherlab.sld):
        assert list(inspect.signature(function).parameters) == ["sd"]
    assert list(inspect.signature(fisherlab.qfi_report).parameters) == ["family", "sd"]


def _raised(tree) -> list:
    """Names of the exceptions that ``raise X`` or ``raise X(...)`` statements in ``tree`` raise."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            names.append(getattr(exc, "id", getattr(exc, "attr", None)))
    return names


def test_qfi_report_alone_raises_the_degenerate_generator_error():
    raised = [name for path in SRC.glob("*.py") for name in _raised(ast.parse(path.read_text()))]
    metrology = ast.parse((SRC / "metrology.py").read_text())
    (report,) = [node for node in metrology.body if getattr(node, "name", None) == "qfi_report"]
    assert raised.count("DegenerateGeneratorError") == 1
    assert _raised(report) == ["DegenerateGeneratorError"]


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


@pytest.mark.parametrize(
    "module, name, settable",
    [
        ("audit", "AuditReport", ["entropy", "fisher", "qfi", "seminorm_sq"]),
        ("audit", "SweepResult", ["entropy", "fisher", "qfi", "seminorm_sq"]),
        ("estimation", "CrbReport", ["crb", "estimates", "interval"]),
        ("metrology", "QfiReport", ["qfi", "seminorm_sq"]),
        ("metrology", "SldData", ["state", "tangent", "normalization"]),
        ("estimation", "SampleRecord", ["counts", "seed"]),
        ("state_family", "StateAndDerivative", ["state", "dstate"]),
    ],
)
def test_data_types_store_only_their_independent_values(module, name, settable):
    # Everything else a type offers is derived from these on read. The one
    # field set at construction, StateAndDerivative.tangent, is the
    # gauge-fixed projection every functional reads.
    cls = getattr(importlib.import_module(f"fisherlab.{module}"), name)
    fields = dataclasses.fields(cls)
    assert [field.name for field in fields if field.init] == settable
    assert [field.name for field in fields if not field.init] == (
        ["tangent"] if name == "StateAndDerivative" else []
    )


def test_q_family_measurement_reads_the_state_from_the_sld_data():
    assert list(inspect.signature(fisherlab.q_family_measurement).parameters) == ["sldd", "q"]
    assert list(inspect.signature(fisherlab.measurement._q_basis).parameters) == ["sldd"]


def test_replacing_the_estimates_moves_the_derived_spread():
    family = fisherlab.StateFamily(np.diag([0.5, -0.5]), np.array([1.0, 1.0]) / np.sqrt(2.0))
    povm = fisherlab.sld_measurement(fisherlab.sld(fisherlab.derivative(family, 0.7)))
    report = fisherlab.crb_experiment(family, povm, 0.7, n=100, trials=5, seed=3)
    assert report.empirical_std == np.std(report.estimates, ddof=1) > 0.0
    moved = dataclasses.replace(report, estimates=(0.5, 0.7, 0.9))
    assert moved.empirical_std == pytest.approx(0.2, rel=1e-14)
    assert moved.ratio == moved.empirical_std / report.crb
    assert report.empirical_std != moved.empirical_std and moved.trials == 3


CONFIG_TEXT = (
    '{"generator": [[[0.5, 0], [0, 0]], [[0, 0], [-0.5, 0]]], '
    '"input_state": [[0.7071067811865476, 0], [0.7071067811865476, 0]], "lambda": 0.7, '
    '"sweep": {"param": "q", "grid": [0.1, 0.5]}, "sim": {"n": 100, "trials": 5, "seed": 3}}'
)
ARRAY_HOLDERS = [
    "ExperimentConfig",
    "OutcomeDistribution",
    "Povm",
    "SampleRecord",
    "SldData",
    "StateAndDerivative",
    "StateFamily",
    "SweepSpec",
]


def fresh_instances() -> dict:
    """New instances of the frozen dataclasses, by type name, built from the same values."""
    family = fisherlab.StateFamily(np.diag([0.5, -0.5]), np.array([1.0, 1.0]) / np.sqrt(2.0))
    sd = fisherlab.derivative(family, 0.7)
    sldd = fisherlab.sld(sd)
    povm = fisherlab.sld_measurement(sldd)
    config = cli.parse_config_text(CONFIG_TEXT)
    return {
        "ExperimentConfig": config,
        "OutcomeDistribution": fisherlab.outcome_distribution(povm, sd),
        "Povm": povm,
        "SampleRecord": fisherlab.SampleRecord(counts=[1, 2], seed=0),
        "SldData": sldd,
        "StateAndDerivative": sd,
        "StateFamily": family,
        "SweepSpec": config.sweep,
        "AuditReport": fisherlab.audit(family, 0.7, povm),
        "CrbReport": fisherlab.crb_experiment(family, povm, 0.7, n=100, trials=5, seed=3),
        "QfiReport": fisherlab.qfi_report(family, sd),
        "SimSpec": config.sim,
    }


@pytest.mark.parametrize("name", ARRAY_HOLDERS)
def test_types_holding_arrays_compare_by_identity(name):
    # Generated value equality would compare arrays, so == raised ValueError
    # and hash() raised TypeError on every one of them.
    first, second = fresh_instances()[name], fresh_instances()[name]
    assert type(first).__name__ == name
    assert first == first and first != second
    assert hash(first) == hash(first) and len({first, second}) == 2


@pytest.mark.parametrize("name", ["AuditReport", "CrbReport", "QfiReport", "SimSpec"])
def test_scalar_reports_keep_value_equality(name):
    first, second = fresh_instances()[name], fresh_instances()[name]
    assert first is not second and first == second and hash(first) == hash(second)


def test_readme_library_example_prints_its_comments():
    (block,) = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.DOTALL)
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    run = subprocess.run(
        [sys.executable, "-c", block], env=env, capture_output=True, text=True, timeout=60
    )
    assert run.returncode == 0, run.stderr
    *fishers, entropy, violated, trials = run.stdout.split()
    assert [float(value) for value in fishers] == pytest.approx([1.0] * 3, abs=1e-12)
    skewed = -0.05 * math.log(0.05) - 0.95 * math.log(0.95)
    assert float(entropy) == pytest.approx(skewed, abs=1e-9)
    assert (violated, trials) == ("True", "400")


def test_readme_states_the_package_line_count():
    (stated,) = re.findall(r"The package is ([\d,]+) lines", (ROOT / "README.md").read_text())
    counted = sum(path.read_bytes().count(b"\n") for path in SRC.glob("*.py"))
    assert int(stated.replace(",", "")) == counted


def test_source_lines_fit_100_columns():
    # Line counts are reported for every change; packing lines would meet them falsely.
    long = [
        f"{path.name}:{number}"
        for path in sorted(SRC.glob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if len(line) > 100
    ]
    assert long == []


def test_every_module_level_import_is_used_or_exported():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        name = "fisherlab" if path.stem == "__init__" else f"fisherlab.{path.stem}"
        used = set(getattr(importlib.import_module(name), "__all__", []))
        used |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"
            ):
                bound = [(alias.asname or alias.name).split(".")[0] for alias in node.names]
                unused += [f"{path.name}: {b}" for b in bound if b not in used]
    assert unused == []


def test_every_third_party_import_is_a_declared_dependency():
    pyproject = (ROOT / "pyproject.toml").read_text()
    (listed,) = re.findall(r"^dependencies = \[(.*?)\]", pyproject, re.M)
    declared = {re.match(r"[\w.-]+", dep).group().lower() for dep in re.findall(r'"([^"]+)"', listed)}
    imported = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"fisherlab"}
    assert "numpy" in third_party
    assert sorted(third_party - declared) == []
