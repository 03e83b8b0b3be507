"""Every function, class and method of the library has a caller in the
library or in the benchmark, or waits in ``AWAITING`` with the reason it
stays.  Names are read from the syntax tree, so comments and docstrings
do not count as callers, and a method counts as called only through an
attribute (``x.name``), not through a bare name such as a local variable."""

import ast
from pathlib import Path

import cilab

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted((ROOT / "src" / "cilab").glob("*.py"))
CALLERS = ([p for p in LIBRARY if p.name != "__init__.py"]
           + sorted((ROOT / "stepbench").glob("*.py")))

AWAITING = {
    "sum_int_sq": "ROADMAP direction 4: sets the pumped amplitude rho(t)",
    "spanning_second_moment": "ROADMAP direction 4: the whole-family "
                              "second-moment check replaces it",
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


def _definitions():
    """Module-level functions and classes, and methods other than dunders."""
    names, methods = set(), set()
    for path in LIBRARY:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            if isinstance(node, ast.ClassDef):
                methods |= {m.name for m in node.body
                            if isinstance(m, ast.FunctionDef)
                            and not (m.name.startswith("__")
                                     and m.name.endswith("__"))}
    return names, methods


def _references():
    """Every name referenced, and the names referenced as attributes."""
    names, attrs = set(), set()
    for path in CALLERS:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names | attrs, attrs


def test_every_definition_has_a_caller():
    (names, methods), (used, attrs) = _definitions(), _references()
    uncalled = (names - used) | (methods - attrs)
    defined = names | methods
    assert sorted(uncalled - set(AWAITING)) == []             # delete them
    assert sorted(set(AWAITING) & (defined - uncalled)) == []  # now called
    assert sorted(set(AWAITING) - defined) == []              # gone


def test_exports_resolve():
    assert [n for n in cilab.__all__ if not hasattr(cilab, n)] == []
