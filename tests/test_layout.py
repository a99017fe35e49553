"""src/ holds only what the commands run, and each rule in one place.

Every top-level function or class of the package, private functions
included, and every public method of its classes is read somewhere in src/
outside its own definition, or is kept below for a stated reason.  Code
that only the tests read belongs under tests/.  Every space integral is
grid.space_sums, every time integral is grid.integrate_slices, and
grid.windows tiles every streamed pass with a halo.  grid.py owns the grid: a
SpaceTimeGrid is plain geometry, and no other module reads a private name
of grid.py.  Every field of a record (a dataclass or NamedTuple) is read in
src/.
"""

import ast
import dataclasses
from collections import Counter
from pathlib import Path

import glcarleman
from glcarleman.grid import SpaceTimeGrid

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


def test_window_read_in_grid_and_config_only():
    # grid.windows owns the window length; config bounds what it holds
    assert {mod for mod, tree in _modules().items()
            if _references(tree)["WINDOW"]} == {"grid", "config"}


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
    assert vecdots == [("functionals", "_row")]


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
