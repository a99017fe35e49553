"""src/ holds only what the commands run.

Every public top-level function or class of the package is read somewhere
in src/ outside its own definition, or is kept below for a stated reason.
Code that only the tests read belongs under tests/.
"""

import ast
from collections import Counter
from pathlib import Path

import glcarleman

SRC = Path(glcarleman.__file__).parent

# public names that nothing else in src/ reads, each with why it stays there
KEPT = {
    "evaluate_cell": "the benchmark tracer binds it by name, and it is the "
                     "bit-for-bit reference for lambda_scan",
    "load_trajectory": "reads trajectory.bin beside its writer, so that one "
                       "module owns the format",
    "prepare_difference": "the whole-trajectory reference for the streamed "
                          "stability suite",
    "linf_l6_norm": "the whole-trajectory reference for the streamed "
                    "stability suite",
}


def _references(node) -> Counter:
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def _reads_outside_definition() -> dict:
    """Each public top-level def or class -> its reads elsewhere in src/."""
    trees = [ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))]
    total = sum((_references(t) for t in trees), Counter())
    return {node.name: total[node.name] - _references(node)[node.name]
            for tree in trees for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")}


def test_every_public_name_is_read_in_src():
    reads = _reads_outside_definition()
    assert sorted(n for n, k in reads.items() if k == 0 and n not in KEPT) == []


def test_every_kept_name_is_defined_and_unread():
    # an entry whose name came into use, or left src/, leaves KEPT
    reads = _reads_outside_definition()
    assert {n: reads.get(n) for n in KEPT} == {n: 0 for n in KEPT}
