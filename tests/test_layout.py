"""src/ holds only what the commands run, and each rule in one place.

Every top-level function or class of the package, private functions
included, and every public method of its classes is read somewhere in src/
outside its own definition, or is kept below for a stated reason.  Code
that only the tests read belongs under tests/.  Every space integral is
grid.space_sums and every time integral is grid.integrate_slices.
grid.py owns the grid: a SpaceTimeGrid is plain geometry, and no other
module reads a private name of grid.py.  The first-difference stencil, with
its one-sided end rows, is taken along the two space axes only.  Every field of a record (a
dataclass or NamedTuple) is read in src/.  The solver forms no matrix
product, and its time loop has one body: each scheme is a symbol of the
linear substep.  The scan alone samples the Dirichlet trace.  The command
front end derives the coefficients, builds a SolveConfig and draws an
initial field at one site each, and writes a summary in two places.
"""

import ast
import dataclasses
from collections import Counter
from pathlib import Path

import glcarleman
from glcarleman.grid import SpaceTimeGrid
from glcarleman.solver import SCHEMES

SRC = Path(glcarleman.__file__).parent

# names that nothing else in src/ reads, each with why it stays there
KEPT = {
    "evaluate_cell": "the benchmark tracer binds it by name, and it is the "
                     "bit-for-bit reference for lambda_scan",
    "load_trajectory": "reads trajectory.bin beside its writer, so that one "
                       "module owns the format",
}


def _references(node) -> Counter:
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def _definitions(tree):
    """(definition, is it a public top-level name) for each top-level
    function or class of a module and each public method of its classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node, not node.name.startswith("_")
        if isinstance(node, ast.ClassDef):
            yield from ((m, False) for m in node.body
                        if isinstance(m, ast.FunctionDef) and not m.name.startswith("_"))


def _modules() -> dict:
    """{module name: syntax tree} of src/."""
    return {p.stem: ast.parse(p.read_text(encoding="utf-8"))
            for p in sorted(SRC.glob("*.py"))}


def _reads_outside_definition(public: bool) -> dict:
    """Each public top-level name (public=True), or each private top-level
    function or class and public method (public=False) -> its reads
    elsewhere in src/."""
    trees = _modules().values()
    total = sum((_references(t) for t in trees), Counter())
    return {node.name: total[node.name] - _references(node)[node.name]
            for tree in trees for node, top_public in _definitions(tree)
            if top_public == public}


def test_every_public_name_is_read_in_src():
    reads = _reads_outside_definition(public=True)
    assert sorted(n for n, k in reads.items() if k == 0 and n not in KEPT) == []


def test_every_private_function_and_public_method_is_read_in_src():
    reads = _reads_outside_definition(public=False)
    assert sorted(n for n, k in reads.items() if k == 0 and n not in KEPT) == []


def test_every_kept_name_is_defined_and_unread():
    # an entry whose name came into use, or left src/, leaves KEPT
    reads = {**_reads_outside_definition(public=True),
             **_reads_outside_definition(public=False)}
    assert {n: reads.get(n) for n in KEPT} == {n: 0 for n in KEPT}


def test_one_time_rule():
    # math.fsum is read once, in grid.integrate_slices: a change to the time
    # quadrature is a change to that function alone
    modules = _modules()
    reads = {mod: _references(tree)["fsum"] for mod, tree in modules.items()}
    (rule,) = [node for node in modules["grid"].body
               if isinstance(node, ast.FunctionDef) and node.name == "integrate_slices"]
    assert {mod: k for mod, k in reads.items() if k} == {"grid": 1}
    assert _references(rule)["fsum"] == 1


# the calls that reduce an array, and the grid's space weight tables
REDUCTIONS = {"sum", "fsum", "dot", "vdot", "vecdot", "inner", "matmul",
              "tensordot", "einsum"}
WEIGHT_TABLES = {"quad_weights_space", "omega_weights", "space_weights",
                 "boundary_weights"}


def _function_nodes(node, name=None):
    """(name of the innermost enclosing function, node) for each node below."""
    for child in ast.iter_child_nodes(node):
        inner = child.name if isinstance(child, ast.FunctionDef) else name
        yield inner, child
        yield from _function_nodes(child, inner)


def _reduces(node) -> bool:
    """A matrix product, or a call of a reduction."""
    if isinstance(node, ast.BinOp):
        return isinstance(node.op, ast.MatMult)
    return isinstance(node, ast.Call) and bool(_references(node.func).keys() & REDUCTIONS)


def test_one_space_rule():
    # grid.space_sums is every volume, omega and Sigma_0 integral: no other
    # reduction in src/ reads a weight table of the grid.  The scan's
    # weighted volume rows are the one np.vecdot, over runs of
    # functionals.DOT_CHUNK nodes: their weight changes slice by slice, and
    # it is formed from grid.space_weights beforehand.
    readers, vecdots = [], []
    for mod, tree in _modules().items():
        for func, node in _function_nodes(tree):
            if _reduces(node) and _references(node).keys() & WEIGHT_TABLES:
                readers.append((mod, func))
            if isinstance(node, ast.Call) and _references(node.func)["vecdot"]:
                vecdots.append((mod, func))
    assert readers == []
    assert vecdots == [("functionals", "_slice_sums")]


def _private_names(tree) -> set:
    """The _-prefixed names a module defines, dunders aside: its functions,
    classes and methods, and its module-level and class-level assignments
    (the fields of its dataclasses among them)."""
    body = list(tree.body)
    body += [n for c in tree.body if isinstance(c, ast.ClassDef) for n in c.body]
    names = set()
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {n for n in names if n.startswith("_") and not n.endswith("__")}


def test_grid_privates_read_in_grid_only():
    # no other module imports a private name of grid.py or reads one as an
    # attribute: the stencils, the boundary sample indices and the cut-node
    # tables are grid.py's own
    modules = _modules()
    private = _private_names(modules.pop("grid"))
    reads = []
    for mod, tree in modules.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module in ("grid",
                                                                    "glcarleman.grid"):
                reads += [(mod, a.name) for a in node.names if a.name in private]
            elif isinstance(node, ast.Attribute) and node.attr in private:
                reads.append((mod, node.attr))
    assert private and reads == []


def test_first_difference_along_space_axes_only():
    # grid._d1 is read by grad alone, along x1 and x2: src/ takes no
    # one-sided time rule, and the scan forms its centred y_t where it is used
    reads, axes = [], []
    for mod, tree in _modules().items():
        for func, node in _function_nodes(tree):
            if isinstance(node, ast.Name) and node.id == "_d1":
                reads.append((mod, func))
            if isinstance(node, ast.Call) and _references(node.func)["_d1"]:
                axes += [ast.literal_eval(k.value) for k in node.keywords
                         if k.arg == "axis"]
    assert reads == [("grid", "grad")] * 2
    assert sorted(axes) == [-2, -1]


def test_scan_alone_reads_the_dirichlet_trace_rule():
    # the stability suite takes its boundary variant's zero trace from
    # cfg.bc before it marches, and samples no trace: the scan, which takes
    # slices from any caller, is the one reader of the trace and its rule
    readers = sorted(mod for mod, tree in _modules().items() if mod != "grid"
                     and _references(tree).keys() & {"boundary_values", "trace_breach"})
    assert readers == ["functionals"]


def test_space_time_grid_holds_no_state():
    # a grid is built once by build_grid and never filled in later: none of
    # its fields is a container made per instance
    assert [f.name for f in dataclasses.fields(SpaceTimeGrid)
            if f.default_factory is not dataclasses.MISSING] == []


def _record_fields(tree):
    """(class, field) for each field of each dataclass or NamedTuple."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        marks = {n.id for d in node.decorator_list + node.bases
                 for n in ast.walk(d) if isinstance(n, ast.Name)}
        if marks & {"dataclass", "NamedTuple"}:
            yield from ((node.name, f.target.id) for f in node.body
                        if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name))


def test_every_record_field_is_read_in_src():
    # a field is read where src/ names it as an attribute, or as a string:
    # the cells fetch TERMS' integrands with getattr, and each domain's
    # geometry is a dict
    trees = _modules().values()
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    fields = [f for tree in trees for f in _record_fields(tree)]
    assert fields
    assert sorted(f for f in fields if f[1] not in read) == []


def test_solver_forms_no_matrix_product():
    # the disk's Crank-Nicolson substep is one LU solve, lu(2 v + s) - v: a
    # stencil product L @ v would be cast to complex on every call, and
    # numpy's in-place reuse of a large temporary could round a stack
    # otherwise than its members marched alone
    tree = _modules()["solver"]
    assert [n.lineno for n in ast.walk(tree)
            if isinstance(n, (ast.BinOp, ast.AugAssign))
            and isinstance(n.op, ast.MatMult)] == []


def test_march_reads_no_scheme():
    # march takes every scheme through one loop body (half a cubic flow, the
    # linear substep, half a cubic flow): the schemes differ only in the
    # symbols of _LinearOps.substep, which names each of them, and which is
    # the one reader of cfg.scheme besides SolveConfig's own check
    tree = _modules()["solver"]
    readers = {func for func, node in _function_nodes(tree)
               if isinstance(node, ast.Attribute) and node.attr == "scheme"}
    assert readers == {"__post_init__", "substep"}
    (substep,) = [n for n in ast.walk(tree)
                  if isinstance(n, ast.FunctionDef) and n.name == "substep"]
    assert set(SCHEMES) <= {n.value for n in ast.walk(substep)
                            if isinstance(n, ast.Constant)}


def _call_sites(tree, name) -> list:
    """The enclosing function of each call of `name` in a module."""
    return [func for func, node in _function_nodes(tree)
            if isinstance(node, ast.Call) and _references(node.func)[name]]


def test_one_front_end_per_run_input():
    # each command's coefficients, solver configuration and initial fields
    # come from one helper of cli.py, and its summary and verdict from
    # _finish; solve's summary has no verdict and writes its own
    cli = _modules()["cli"]
    assert {name: _call_sites(cli, name) for name in
            ("derive_coeffs", "SolveConfig", "random_initial_field")} == {
        "derive_coeffs": ["_prepare"], "SolveConfig": ["_solve_config"],
        "random_initial_field": ["_member"]}
    assert sorted(_call_sites(cli, "write_json")) == ["_finish", "cmd_solve"]
