"""Every function, class and method of the library has a caller in the
library or in the benchmark, or waits in ``AWAITING`` with the reason it
stays.  Names are read from the syntax tree, so comments and docstrings
do not count as callers, and a method counts as called only through an
attribute (``x.name``), not through a bare name such as a local variable.

Names are matched, not objects, so two collisions are settled first.  A
benchmark reference to a name the benchmark defines itself is its own and
calls nothing in the library.  A name that two library classes (or
modules) define is listed in ``SHARED`` with the function that calls each
one, and that function must reference the name."""

import ast
from pathlib import Path

import cilab

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted((ROOT / "src" / "cilab").glob("*.py"))
BENCHMARK = sorted((ROOT / "stepbench").glob("*.py"))
LIBRARY_CALLERS = [p for p in LIBRARY if p.name != "__init__.py"]
CALLERS = LIBRARY_CALLERS + BENCHMARK

AWAITING = {
    "sum_int_sq": "ROADMAP direction 4: sets the pumped amplitude rho(t)",
    "spanning_second_moment": "ROADMAP direction 4: the whole-family "
                              "second-moment check replaces it",
    "second_moment": "ROADMAP direction 4: the exact int W (x) W that "
                     "test_unit_second_moment checks the grid quadrature "
                     "against",
    "support_overlap": "ROADMAP direction 3: a record of the new stress",
    "scaling_regression": "ROADMAP directions 3 and 6: log-log slopes",
    "momentum_residual": "ROADMAP direction 8: R_{q+1} of the step",
    "CheckReport": "ROADMAP direction 8: the record of every stage",
    "to_record": "ROADMAP direction 8: CheckReport's JSON record",
    "from_record": "ROADMAP direction 8: CheckReport's JSON record",
    "build": "ROADMAP direction 8: CheckReport from measured and target",
    "hermitian_defect": "aim 3 identity check: Hermitian spectra",
    "divergence_defect": "aim 3 identity check: divergence-free fields",
    "partition_defect": "aim 3 identity check: the cutoffs' partition of 1",
    "get_mode": "single-mode access, the reference of ModeTable's gathers",
    "set_mode": "single-mode access, the reference of ModeTable's scatters",
    "gamma_derivative_sup": "the geometric lemma's closed-form C^1 bound",
    "stamp": "one mode's basis coefficient, the reference of the batched "
             "noise stamps",
    "grad": "ROADMAP direction 8: grad Phi of the flow map for the step",
}

# name -> {defining class or module: "file:function" that calls it}
SHARED = {
    "field_at": {"NoisePath": "stepbench/workloads.py:NoiseModes._pass",
                 "MollifiedPath": "stepbench/workloads.py:drift.z_eval"},
    "k_squared": {"GridSpec": "src/cilab/fields.py:band_project",
                  "SpectrumSpec":
                      "src/cilab/noise.py:SpectrumSpec.sobolev_weight"},
}


def _is_def(node):
    return isinstance(node, (ast.FunctionDef, ast.ClassDef))


def _definitions():
    """Module-level functions and classes with the modules that define
    them, and methods other than dunders with the classes that define
    them."""
    names, methods = {}, {}
    for path in LIBRARY:
        for node in filter(_is_def, ast.parse(path.read_text()).body):
            names.setdefault(node.name, set()).add(path.stem)
            if isinstance(node, ast.ClassDef):
                for m in node.body:
                    if (isinstance(m, ast.FunctionDef)
                            and not (m.name.startswith("__")
                                     and m.name.endswith("__"))):
                        methods.setdefault(m.name, set()).add(node.name)
    return names, methods


def _references(paths):
    """Every name referenced in ``paths``, and those referenced as
    attributes."""
    names, attrs = set(), set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names | attrs, attrs


def _callers():
    """The references of the library and those of the benchmark to names
    the benchmark does not define, and the attributes among them."""
    own = {node.name for path in BENCHMARK
           for node in ast.walk(ast.parse(path.read_text())) if _is_def(node)}
    lib_used, lib_attrs = _references(LIBRARY_CALLERS)
    bench_used, bench_attrs = _references(BENCHMARK)
    return lib_used | (bench_used - own), lib_attrs | (bench_attrs - own)


def _attributes_in(where):
    """Attribute names referenced in the function ``file:Outer.inner``."""
    path, qualname = where.split(":")
    assert ROOT / path in CALLERS, where
    body = ast.parse((ROOT / path).read_text()).body
    for name in qualname.split("."):
        node = next(n for n in body if _is_def(n) and n.name == name)
        body = node.body
    return {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}


def test_every_definition_has_a_caller():
    (names, methods), (used, attrs) = _definitions(), _callers()
    uncalled = (names.keys() - used) | (methods.keys() - attrs)
    defined = names.keys() | methods.keys()
    assert sorted(uncalled - set(AWAITING)) == []             # delete them
    assert sorted(set(AWAITING) & (defined - uncalled)) == []  # now called
    assert sorted(set(AWAITING) - defined) == []              # gone


def test_shared_names_list_each_caller():
    names, methods = _definitions()
    definers = {name: names.get(name, set()) | methods.get(name, set())
                for name in names.keys() | methods.keys()}
    shared = {name: sorted(where) for name, where in definers.items()
              if len(where) > 1}
    assert shared == {name: sorted(where) for name, where in SHARED.items()}
    for name, where in SHARED.items():
        for caller in where.values():
            assert name in _attributes_in(caller), (name, caller)


def test_exports_resolve():
    assert [n for n in cilab.__all__ if not hasattr(cilab, n)] == []
