"""Every function, class and method of the library has a caller in the
library or in the benchmark, or waits in ``AWAITING`` with the reason it
stays; and every option of the library, a parameter or dataclass field
with a default, is set by such a caller, or waits in ``OPTIONS_AWAITING``.
Names are read from the syntax tree, so comments and docstrings do not
count as callers.  A module-level definition counts as called through a
bare name that the file reads and does not bind, or through an attribute
read off an imported module (``noise.trace``); a method counts as called
through any attribute (``x.name``).  A library function that passes one of
its own options on by name, ``f(mode=mode)``, sets the callee's option
only if a caller sets its own.

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
    "grad": "ROADMAP direction 8: grad Phi of the flow map for the step",
    "trace": "ROADMAP directions 6 and 7: Tr((I - Lap)^s GG*), the noise "
             "budget of the drift bound and of the stopping norm",
}

# option -> the reason it stays; an option is "Owner.parameter" for a
# function or a class (its dataclass fields or __init__ parameters) and
# "Class.method.parameter" for a method
OPTIONS_AWAITING = {
    "EtaFamily.straight_zero": "ROADMAP direction 4: the straight eta_0 "
                               "and zeta ramp that seed the energy",
    "ParameterLadder.beta_bar": "ROADMAP direction 10, ask first: the "
                                "Cauchy ladder",
    "ParameterLadder.K": "ROADMAP direction 10, ask first: the Cauchy ladder",
    "ParameterLadder.N_init": "ROADMAP direction 10, ask first: the Cauchy "
                              "ladder",
    "ladder.mode": "ROADMAP direction 10, ask first: the Cauchy ladder",
    "ParameterLadder.mode": "ROADMAP direction 10, ask first: the Cauchy "
                            "ladder",
    "stopping_time.kind": "ROADMAP direction 7: the sup-norm stopping time",
    "SolverConfig.pad_factor": "ROADMAP direction 1 deletes the interpolant",
    "SolverConfig.interp_points": "ROADMAP direction 1 deletes the "
                                  "interpolant",
    "solve_flow_map.cfg": "ROADMAP direction 1 deletes the interpolant",
    "solve_flow_map.n_substeps": "ROADMAP direction 1 replaces the "
                                 "characteristics",
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


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _parse(paths):
    return [ast.parse(path.read_text()) for path in paths]


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
                            and not _is_dunder(m.name)):
                        methods.setdefault(m.name, set()).add(node.name)
    return names, methods


def _bound(tree):
    """Names that ``tree`` binds other than by an import, a module-level
    definition or a method: targets, parameters, nested definitions and
    exception names."""
    top = {id(n) for n in tree.body if _is_def(n)}
    top |= {id(m) for n in tree.body if isinstance(n, ast.ClassDef)
            for m in n.body}
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.arg):
            out.add(node.arg)
        elif _is_def(node) and id(node) not in top:
            out.add(node.name)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            out.add(node.name)
    return out


def _references(trees):
    """The names that ``trees`` read as module-level definitions, and every
    attribute they read."""
    names, attrs = set(), set()
    for tree in trees:
        imported = {(a.asname or a.name).split(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    for a in node.names}
        bound = _bound(tree)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                    and node.id not in bound):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
                if (isinstance(node.value, ast.Name)
                        and node.value.id in imported):
                    names.add(node.attr)
    return names, attrs


def _own(trees):
    """Every name that ``trees`` define, at any depth."""
    return {node.name for tree in trees for node in ast.walk(tree)
            if _is_def(node)}


def _callers():
    """The references of the library and those of the benchmark to names
    the benchmark does not define, and the attributes among them."""
    bench = _parse(BENCHMARK)
    own = _own(bench)
    lib_names, lib_attrs = _references(_parse(LIBRARY_CALLERS))
    bench_names, bench_attrs = _references(bench)
    return lib_names | (bench_names - own), lib_attrs | (bench_attrs - own)


def _attributes_in(where):
    """Attribute names referenced in the function ``file:Outer.inner``."""
    path, qualname = where.split(":")
    assert ROOT / path in CALLERS, where
    body = ast.parse((ROOT / path).read_text()).body
    for name in qualname.split("."):
        node = next(n for n in body if _is_def(n) and n.name == name)
        body = node.body
    return {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}


# ---------------------------------------------------------------------------
# options
# ---------------------------------------------------------------------------

def _signature(fn, skip):
    """Parameter names of ``fn`` in positional order (less the first
    ``skip``), the defaulted ones, and the name of its ``**`` parameter."""
    a = fn.args
    positional = [p.arg for p in a.posonlyargs + a.args]
    defaulted = positional[len(positional) - len(a.defaults):]
    defaulted += [p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults) if d]
    params = positional[skip:] + [p.arg for p in a.kwonlyargs]
    return params, set(defaulted), a.kwarg.arg if a.kwarg else None


def _is_dataclass(cls):
    return any(getattr(d.func if isinstance(d, ast.Call) else d, "id", None)
               == "dataclass" for d in cls.decorator_list)


def _dataclass_signature(cls):
    """Init fields of a dataclass in order, and the defaulted ones."""
    params, defaulted = [], set()
    for node in cls.body:
        if not (isinstance(node, ast.AnnAssign)
                and isinstance(node.target, ast.Name)):
            continue
        value, kw = node.value, {}
        is_field = (isinstance(value, ast.Call)
                    and getattr(value.func, "id", None) == "field")
        if is_field:
            kw = {k.arg: k.value for k in value.keywords}
            if (isinstance(kw.get("init"), ast.Constant)
                    and kw["init"].value is False):
                continue
        params.append(node.target.id)
        if value is not None and (
                not is_field or {"default", "default_factory"} & kw.keys()):
            defaulted.add(node.target.id)
    return params, defaulted, None


def _functions(tree):
    """(option key prefix, called name, definition, parameters to skip) of
    every module-level function of ``tree`` and of every ``__init__`` and
    non-dunder method of its module-level classes; a class is called by its
    name with its ``__init__`` parameters."""
    for node in filter(_is_def, tree.body):
        if isinstance(node, ast.FunctionDef):
            yield node.name, node.name, node, 0
            continue
        for m in node.body:
            if not isinstance(m, ast.FunctionDef):
                continue
            if m.name == "__init__":
                yield node.name, node.name, m, 1
            elif not _is_dunder(m.name):
                static = any(getattr(d, "id", None) == "staticmethod"
                             for d in m.decorator_list)
                yield f"{node.name}.{m.name}", m.name, m, 0 if static else 1


def _signatures(library):
    """(key prefix, called name) -> (parameters in call order, defaulted
    ones, ``**`` parameter) of every definition ``_functions`` lists and of
    every dataclass, called by its name with its fields unless it defines
    ``__init__``."""
    out = {}
    for tree in library:
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                out[node.name, node.name] = _dataclass_signature(node)
        for key, called, fn, skip in _functions(tree):
            out[key, called] = _signature(fn, skip)
    return out


def _dicts(tree):
    """Module-level names bound to ``dict(k=...)`` or ``{"k": ...}``, with
    their keys."""
    out = {}
    for node in tree.body:
        if not (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)):
            continue
        v = node.value
        if isinstance(v, ast.Call) and getattr(v.func, "id", None) == "dict":
            out[node.targets[0].id] = {k.arg for k in v.keywords if k.arg}
        elif isinstance(v, ast.Dict):
            out[node.targets[0].id] = {k.value for k in v.keys
                                       if isinstance(k, ast.Constant)}
    return out


def _calls(trees, own=None):
    """Every call in ``trees`` of a name other than dunders, and the
    forwards (enclosing function, called name) of calls that pass the
    enclosing function's ``**`` parameter on.  A call is one record
    (called name, positions set or None after a ``*``, keywords set, None)
    of what it sets outright, and one (called name, positions, keywords,
    option) per argument that is an option of an enclosing library
    function passed on by name: it sets the callee's parameter only if
    that option is set.  For the benchmark, ``own`` holds the names it
    defines: their calls are its own, and their options are its settings,
    so passing one on sets the callee's parameter."""
    calls, forwards = [], set()

    def visit(node, tree_dicts, owners, fn, kwarg, passed):
        if isinstance(node, ast.FunctionDef):
            fn, kwarg = node.name, node.args.kwarg and node.args.kwarg.arg
            params, defaulted, _ = _signature(node, 0)
            passed = {p: o for p, o in passed.items() if p not in params}
            if id(node) in owners:
                passed |= {p: f"{owners[id(node)]}.{p}" for p in defaulted}
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", "")
            if name and name not in (own or ()) and not _is_dunder(name):
                star = any(isinstance(a, ast.Starred) for a in node.args)
                positions, keywords = set(range(len(node.args))), set()
                for i, a in enumerate(node.args):
                    if getattr(a, "id", None) in passed and not star:
                        positions.discard(i)
                        calls.append((name, frozenset({i}), frozenset(),
                                      passed[a.id]))
                for k in node.keywords:
                    if k.arg and getattr(k.value, "id", None) in passed:
                        calls.append((name, frozenset(), frozenset({k.arg}),
                                      passed[k.value.id]))
                    elif k.arg:
                        keywords.add(k.arg)
                    elif isinstance(k.value, ast.Name):
                        keywords |= tree_dicts.get(k.value.id, set())
                        if k.value.id == kwarg:
                            forwards.add((fn, name))
                calls.append((name, None if star else frozenset(positions),
                              frozenset(keywords), None))
        for child in ast.iter_child_nodes(node):
            visit(child, tree_dicts, owners, fn, kwarg, passed)

    for tree in trees:
        owners = {} if own is not None else {
            id(fn): key for key, _, fn, _ in _functions(tree)}
        visit(tree, _dicts(tree), owners, None, None, {})
    return calls, forwards


def _options(library, callers, bench=()):
    """Every option of ``library`` outside ``AWAITING``, and those that no
    call in ``callers``, or in ``bench`` of a name ``bench`` does not
    define, sets by keyword, by position, through ``**`` of a module-level
    dict or through a forwarded ``**`` parameter.  An option that a call
    sets by passing on an option of its enclosing function is set only if
    that one is."""
    sigs = _signatures(library)
    calls, forwards = _calls(callers)
    bench_calls, bench_forwards = _calls(bench, _own(bench))
    todo, done, given = calls + bench_calls, set(), set()
    while ready := [c for c in todo
                    if c not in done and (c[3] is None or c[3] in given)]:
        for call in ready:
            done.add(call)
            name, positions, keywords, needs = call
            for (key, called), (params, _, kwarg) in sigs.items():
                if called != name:
                    continue
                positional = params if positions is None else [
                    p for i, p in enumerate(params) if i in positions]
                given |= {f"{key}.{p}" for p in set(positional) | keywords}
                extra = keywords - set(params)
                if kwarg and extra:
                    todo += [(g, frozenset(), extra, needs)
                             for f, g in forwards | bench_forwards
                             if f == called]
    options = {f"{key}.{p}" for (key, _), (_, defaulted, _) in sigs.items()
               if not set(key.split(".")) & set(AWAITING)
               for p in defaulted}
    return options, options - given


def test_every_definition_has_a_caller():
    (names, methods), (used, attrs) = _definitions(), _callers()
    uncalled = (names.keys() - used) | (methods.keys() - attrs)
    defined = names.keys() | methods.keys()
    assert sorted(uncalled - set(AWAITING)) == []             # delete them
    assert sorted(set(AWAITING) & (defined - uncalled)) == []  # now called
    assert sorted(set(AWAITING) - defined) == []              # gone


def test_every_option_has_a_caller():
    options, unset = _options(_parse(LIBRARY), _parse(LIBRARY_CALLERS),
                              _parse(BENCHMARK))
    awaiting = set(OPTIONS_AWAITING)
    assert sorted(unset - awaiting) == []              # retire them
    assert sorted(awaiting & (options - unset)) == []  # now set
    assert sorted(awaiting - options) == []            # gone


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


# ---------------------------------------------------------------------------
# the matcher on in-memory sources
# ---------------------------------------------------------------------------

_LIB = ast.parse('''
from dataclasses import dataclass, field

def f(x, a=1, b=2):
    return x

def g(x, c=3, **kw):
    return Rec(x, **kw)

def h(x, d=0):
    return f(x, d, b=d)

@dataclass
class Rec:
    x: int
    v: int = field()
    y: int = 0
    z: list = field(default_factory=list)
    w: int = field(init=False)

class Box:
    def __init__(self, n, m=4):
        self.n = n

    def get(self, i, j=0):
        return i

    def __call__(self, p, order=None):
        return p
''')
_LIB_OPTIONS = {"f.a", "f.b", "g.c", "h.d", "Rec.y", "Rec.z", "Box.m",
                "Box.get.j"}


def _unset(source):
    """The options of ``_LIB`` that neither it nor ``source``, as the
    benchmark, sets."""
    options, unset = _options([_LIB], [_LIB], [ast.parse(source)])
    assert options == _LIB_OPTIONS
    return unset


def test_matcher_flags_an_option_only_a_test_sets():
    # the tests are not callers: a library that never sets f's a flags it
    assert _unset("f(1, b=2)") == _LIB_OPTIONS - {"f.b"}


def test_matcher_reads_keyword_position_dict_and_forwarded_kwargs():
    assert _unset("f(1, a=2)\nf(1, 2, 3)") == _LIB_OPTIONS - {"f.a", "f.b"}
    assert "Box.get.j" not in _unset("Box(1, 2).get(0, 1)")
    assert "Box.m" not in _unset("Box(1, 2)")
    assert "Rec.y" not in _unset("Rec(1, 2, 3)")
    assert "f.a" not in _unset("OPTS = dict(a=2)\nf(1, **OPTS)")
    assert "f.a" not in _unset("OPTS = {'a': 2}\nf(1, **OPTS)")
    assert "f.a" not in _unset("args = (1, 2)\nf(*args)")
    # g's **kw reaches Rec, so g(z=...) sets Rec.z, but not g's own c
    unset = _unset("g(1, z=[2])")
    assert "Rec.z" not in unset and "g.c" in unset


def test_matcher_passes_on_an_option_only_if_it_is_set():
    # h hands its own d to f's a and b: they are set when h's d is
    assert {"f.a", "f.b", "h.d"} <= _unset("h(1)")
    assert not {"f.a", "f.b", "h.d"} & _unset("h(1, d=2)")
    # a benchmark function's option is a setting of the benchmark
    assert "f.a" not in _unset("def run(a=5):\n    return f(1, a)")


def test_matcher_ignores_dunders_and_own_names():
    assert _unset("b = Box(1)\nb(0, order=2)\nb.__call__(0, order=2)"
                  ) == _LIB_OPTIONS
    # a benchmark call of a name the benchmark defines is its own
    assert "f.a" in _unset("def f(x, a=0):\n    return x\nf(1, a=2)")


def test_references_count_imports_and_unbound_reads_only():
    names, attrs = _references([ast.parse(
        "args = parse()\nprint(args.trace)\ntrace = 1\nprint(trace)\n"
        "def run(sample):\n    return sample\nrun(0)\n")])
    assert "trace" in attrs and not {"trace", "sample"} & names
    names, _ = _references([ast.parse("import noise\nnoise.trace(spec)")])
    assert "trace" in names
    names, _ = _references([ast.parse("from noise import trace\ntrace(s)")])
    assert "trace" in names
