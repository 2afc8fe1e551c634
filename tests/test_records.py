"""Record types: start-up cost, immutability, repr, equality and hashing.

The records are plain classes and ``typing.NamedTuple``s, so that importing
the CLI stays free of ``dataclasses`` and the modules it loads; and a
``Fraction`` is built only where a rational is returned or parsed, so that
commands that build none never load ``fractions`` and ``decimal``.
"""

import ast
import copy
import json
import os
import pickle
import subprocess
import sys
import tokenize
import types
from fractions import Fraction
from pathlib import Path

import pytest

import ordtop as ot
from ordtop import instances, kernels
from ordtop.errors import DomainMismatchError
from ordtop.representations import ValueFunction
from ordtop.theorems import THEOREM_IDS, TheoremReport, TheoremViolation
from ordtop.topologies import FinerVerdict, Topology
from tests.conftest import FIXTURES, fixture_text

SRC = Path(ot.__file__).resolve().parent.parent

LAYERS = (
    "ordtop.kernels",
    "ordtop.preorders",
    "ordtop.topologies",
    "ordtop.representations",
    "ordtop.theorems",
    "ordtop.instances",
    "ordtop.cli",
)


# fractions loads decimal (about 0.44 MB per process); only code that
# builds a Fraction imports it.
RATIONAL_MODULES = ("fractions", "decimal")


def loaded_modules(commands: list[list[str]], tops: tuple[str, ...]) -> set[str]:
    """The modules under ``tops`` loaded after ``import ordtop.cli`` and
    ``cli.main`` on each of ``commands``, in a fresh interpreter."""
    probe = (
        "import json, sys, ordtop.cli\n"
        f"for argv in {commands!r}:\n"
        "    ordtop.cli.main(argv)\n"
        "print()\n"
        f"print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] in {tops!r})))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_cli_import_loads_every_layer_and_no_dataclasses():
    loaded = loaded_modules([], ("dataclasses", "inspect", "ordtop", *RATIONAL_MODULES))
    for absent in ("dataclasses", "inspect", *RATIONAL_MODULES):
        assert absent not in loaded
    assert set(LAYERS) <= loaded


def test_commands_without_rationals_never_import_fractions():
    chain = str(FIXTURES / "chain3.json")
    commands = [
        ["theorems", "--max-size", "2", "--json"],
        ["mine", "--trials", "5", "--max-size", "4", "--json"],
        ["topology", chain, "--topology", "upper", "--json"],
        ["check-lsc", chain, "--topology", "indiscrete", "--json"],
        ["decide-rp", chain, "--json"],
        ["decide-rp", chain, "--topology", "indiscrete", "--json"],
        ["decide-rp", str(FIXTURES / "parallel_chains.json"), "--topology", "alexandrov"],
    ]
    assert not loaded_modules(commands, RATIONAL_MODULES)
    # The probe does see them once a rational is parsed or returned.
    for argv in (["validate", str(FIXTURES / "vee.json")],
                 ["represent", chain, "--topology", "upper"]):
        assert loaded_modules([argv], RATIONAL_MODULES) == set(RATIONAL_MODULES)


# Tokens in the largest module; see test_no_module_exceeds_the_token_budget.
MODULE_TOKEN_BUDGET = 3500


def test_no_module_exceeds_the_token_budget():
    """Every command compiles each module it loads from source (no bytecode
    cache is assumed), and CPython parses a module in one arena of about
    350 B per token.  That arena is freed, but the largest module's compile
    peak sets the peak RSS of every process run from source; a module near
    the budget is a cue to split it, as the checkers were split from the
    suite drivers."""
    sizes = {}
    for path in sorted((SRC / "ordtop").rglob("*.py")):
        with path.open(encoding="utf-8") as fh:
            sizes[path.relative_to(SRC).as_posix()] = sum(
                1 for _ in tokenize.generate_tokens(fh.readline)
            )
    over = {name: n for name, n in sizes.items() if n > MODULE_TOKEN_BUDGET}
    assert not over, f"modules over {MODULE_TOKEN_BUDGET} tokens: {over}"


def test_every_public_kernel_has_a_caller_in_the_library():
    """Every command loads ``ordtop.kernels`` whole, so a public kernel that
    no other ordtop module calls is dead weight there: give it a caller, or
    delete it and keep its logic as a test oracle.  ``using_native`` is the
    one exception: the library never asks which backend it runs on, and
    only the benchmark's import probe (``perfbench/run.py``) records it."""
    public = {
        name
        for name, obj in vars(kernels).items()
        if not name.startswith("_")
        and isinstance(obj, types.FunctionType)
        and obj.__module__ == kernels.__name__
    }
    used = set()
    for path in (SRC / "ordtop").rglob("*.py"):
        if path.parent.name == "kernels":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "kernels":
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.module == "ordtop.kernels":
                used.update(alias.name for alias in node.names)
    assert public - used - {"using_native"} == set()


def test_indented_json_is_written_in_one_place():
    """``instances.indented_json`` is the one indented JSON writer: any other
    ``json.dump``/``json.dumps`` with an ``indent`` keyword, or
    ``JSONEncoder(indent=...)``, in the library is a second one."""
    found = []
    for path in sorted((SRC / "ordtop").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = set()
        if path.name == "instances.py":
            for node in ast.walk(tree):
                if isinstance(node, ast.FunctionDef) and node.name == "indented_json":
                    allowed.update(map(id, ast.walk(node)))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or id(node) in allowed:
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in ("dump", "dumps", "JSONEncoder") and any(
                kw.arg == "indent" for kw in node.keywords
            ):
                found.append(f"{path.relative_to(SRC).as_posix()}:{node.lineno}")
    assert found == []


def test_opens_become_label_lists_only_in_instances():
    """``instances.OpenListing`` is the one place opens become label lists,
    one open at a time: a function elsewhere that reads ``.opens`` and names
    ``labels_of`` builds them a second way, every list at once."""
    found = []
    for path in sorted((SRC / "ordtop").rglob("*.py")):
        if path.name == "instances.py":
            continue
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(func, (ast.FunctionDef, ast.Lambda)):
                continue
            nodes = list(ast.walk(func))
            attrs = {node.attr for node in nodes if isinstance(node, ast.Attribute)}
            names = attrs | {node.id for node in nodes if isinstance(node, ast.Name)}
            if "opens" in attrs and "labels_of" in names:
                found.append(f"{path.relative_to(SRC).as_posix()}:{func.lineno}")
    assert found == []


def test_no_nested_function_calls_itself():
    """A nested function that refers to its own name holds itself through
    its closure cell: each call of the enclosing function leaves a cycle,
    and all that the closure reaches, for the cyclic collector.  Recurse
    with an explicit stack instead."""
    found = []
    for path in sorted((SRC / "ordtop").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for outer in ast.walk(tree):
            if not isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(outer):
                if node is outer or not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if any(isinstance(n, ast.Name) and n.id == node.name for n in ast.walk(node)):
                    found.append(f"{path.relative_to(SRC).as_posix()}:{node.lineno} {node.name}")
    assert found == []


def test_suite_driver_loops_over_the_table_of_theorems():
    """A theorem lives in its step and public ``check_*`` and in its table
    entry.  A theorem id named in ``theorems._check_preorder``, or a private
    name of ``ordtop.checkers`` other than the table and the inputs class
    that ``ordtop.theorems`` reads, would be a third place."""
    tree = ast.parse((SRC / "ordtop" / "theorems.py").read_text(encoding="utf-8"))
    driver = next(
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "_check_preorder"
    )
    named = [
        node.value for node in ast.walk(driver)
        if isinstance(node, ast.Constant) and node.value in THEOREM_IDS
    ]
    private = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "ordtop.checkers":
            private.update(alias.name for alias in node.names if alias.name.startswith("_"))
        elif (isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "checkers"
              and node.attr.startswith("_")):
            private.add(node.attr)
    assert named == [] and private <= {"_THEOREMS", "_Inputs"}


# The modules beneath the theorem layer, the checker errors, and the private
# helpers of the theorem steps, which ``ordtop.lsc_steps`` defines.
BENEATH_THEOREMS = ("kernels/__init__.py", "preorders.py", "topologies.py", "representations.py")
CHECKER_ERRORS = {"PremiseFailedError", "RefinementViolatedError"}
STEP_HELPERS = {"_check_chain", "_check_outsider", "_chain_refines_alexandrov", "_members_not_lsc"}


def defined_functions(path: Path) -> set[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}


def test_theorem_checks_stay_in_the_theorem_layer():
    """A theorem's checks, and the errors that report a failed premise or
    refinement, live in the theorem layer: no module beneath it names a
    checker error or defines a theorem step's helper.  (``ordtop.errors``
    still defines the errors.)"""
    found = []
    for name in BENEATH_THEOREMS:
        path = SRC / "ordtop" / name
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            named = (
                node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute)
                else node.name if isinstance(node, ast.alias)
                else None
            )
            if named in CHECKER_ERRORS:
                found.append(f"{name}:{node.lineno} {named}")
        found += [f"{name} defines {f}" for f in defined_functions(path) & STEP_HELPERS]
    assert found == []
    assert STEP_HELPERS <= defined_functions(SRC / "ordtop" / "lsc_steps.py")


# Each ordtop module that ``import ordtop.cli`` loads and that is not a
# layer, with the layer it is imported beneath.
BENEATH = {
    "ordtop.errors": "ordtop.kernels",
    "ordtop.fields": "ordtop.instances",
    "ordtop.checkers": "ordtop.theorems",
    "ordtop.inputs": "ordtop.theorems",
    "ordtop.lsc_steps": "ordtop.theorems",
    "ordtop.topology_steps": "ordtop.theorems",
}


@pytest.mark.parametrize("module, layer", BENEATH.items())
def test_each_module_is_imported_beneath_its_layer(module, layer):
    # A per-layer import report (``-X importtime``) charges a module to the
    # layer that first imported it, so the checkers count as theorems time.
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import ordtop.cli"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    # (indent, module) rows; a module is listed after those it imported,
    # which are indented deeper.
    rows = [
        (len(name) - len(name.lstrip()), name.strip())
        for name in (line.rsplit("|", 1)[1] for line in proc.stderr.splitlines())
    ]
    names = [name for _, name in rows]
    assert {name for name in names if name.startswith("ordtop.")} == {*LAYERS, *BENEATH}
    i, j = names.index(module), names.index(layer)
    assert i < j and all(indent > rows[j][0] for indent, _ in rows[i:j])


def test_constructors_return_fractions(vee, chain3):
    t = ot.alexandrov_topology(vee)
    lsc_rp = ot.construct_finite_lsc_rp_multiutility(vee, t)
    assert lsc_rp.family is not None
    functions = [
        ot.construct_rp_utility(vee),
        ot.rank_utility(chain3),
        ValueFunction.from_mapping(("a", "b"), {"a": 1, "b": "2/3"}),
        *ot.construct_indicator_multiutility(vee).members,
        *ot.construct_lsc_multiutility(vee, t).members,
        *lsc_rp.family.members,
    ]
    doc = instances.parse_instance(fixture_text("vee.json"))
    assert doc.functions
    values = [v for f in functions for v in f.values]
    values += [v for _, row in doc.functions for v in row]
    assert values and all(type(v) is Fraction for v in values)
    assert ot.rank_utility(chain3).values == (Fraction(0), Fraction(1), Fraction(2))


def test_records_refuse_assignment(vee):
    t = ot.alexandrov_topology(vee)
    f = ValueFunction(("a",), (Fraction(1),))
    verdict = FinerVerdict(False, 1)
    for obj, name in ((vee, "rows"), (vee, "cols"), (vee, "n"), (vee, "extra"), (t, "rows"),
                      (t, "extra"), (f, "values"), (verdict, "ok")):
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
    for obj, name in ((vee, "elements"), (t, "ground_size"), (f, "elements")):
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert vee.rows == (0b101, 0b110, 0b100) and t.rows == vee.rows


def test_record_reprs(vee):
    assert repr(vee) == "Preorder(elements=('a', 'b', 'c'), rows=(5, 6, 4))"
    assert repr(ot.alexandrov_topology(vee)) == "Topology(ground_size=3, rows=(5, 6, 4))"
    assert repr(FinerVerdict(True)) == "FinerVerdict(ok=True, missing_open=None)"
    assert str(FinerVerdict(False, 3)) == "FinerVerdict(ok=False, missing_open=3)"
    assert repr(ValueFunction(("a",), (Fraction(1, 2),))) == (
        "ValueFunction(elements=('a',), values=(Fraction(1, 2),))"
    )
    violation = TheoremViolation("t", "{}", {"x": "a"}, "d")
    assert repr(TheoremReport("t", 2, 1, (violation,), 0.5)) == (
        "TheoremReport(theorem_id='t', instances_checked=2, non_vacuous=1, "
        "violations=(TheoremViolation(theorem_id='t', instance='{}', "
        "params={'x': 'a'}, detail='d'),), elapsed=0.5)"
    )


def test_equality_and_hash_see_only_the_fields(vee):
    read = ot.Preorder(vee.elements, vee.rows)
    assert read.cols and read.index("b") == 1  # fills the lazy attributes
    assert read.n == 3 and "n" not in ot.Preorder._fields  # stored, but not a field
    fresh = ot.Preorder(vee.elements, vee.rows)
    assert read == fresh and hash(read) == hash(fresh)
    assert hash(read) == hash((vee.elements, vee.rows))
    assert read != (vee.elements, vee.rows)
    t = ot.alexandrov_topology(vee)
    assert t.opens  # computed on demand, never stored
    twin = Topology(3, vee.rows)
    assert t == twin and hash(t) == hash(twin)
    assert t != (3, vee.rows) and t != vee and vee != t
    assert ot.discrete(2) != ot.indiscrete(2)
    assert len({read, fresh, t, twin}) == 2


def test_value_function_checks_its_length():
    with pytest.raises(DomainMismatchError, match="2 values for 1 elements"):
        ValueFunction(("a",), (Fraction(0), Fraction(1)))


def test_records_copy_and_pickle(vee):
    vee.cols  # a lazy attribute travels along or is recomputed; either is equal
    t = ot.alexandrov_topology(vee)
    f = ValueFunction(vee.elements, (Fraction(0), Fraction(1, 3), Fraction(2)))
    for obj in (vee, t, f, FinerVerdict(False, 4)):
        assert copy.copy(obj) == obj
        assert copy.deepcopy(obj) == obj
        assert pickle.loads(pickle.dumps(obj)) == obj
    assert pickle.loads(pickle.dumps(vee)).cols == vee.cols
    assert vee.n == 3
    assert vee.__reduce__() == (ot.Preorder, (vee.elements, vee.rows))
    for twin in (copy.copy(vee), copy.deepcopy(vee), pickle.loads(pickle.dumps(vee))):
        assert twin.n == 3 and twin == vee and hash(twin) == hash(vee)
