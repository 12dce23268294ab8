"""Every function exported from `credalvote`, and every public method,
property and classmethod of an exported class, has a caller in the package,
or states a claim of the paper that a test checks.

A caller is a reference in some module of `src/credalvote` other than
`__init__.py`, outside the function's own `def`. For a function it is a
`Name` or `Attribute` reference, and a name imported under an alias is
reached through the alias. For a member of a class only an `Attribute`
reference counts, so a local variable of the same name does not reach it.
Docstrings and comments are not references.
"""
import ast
import inspect
import pathlib

import credalvote

# Exported without a caller in the package, each for the claim it states.
ALLOWED = {
    "lower_expectation": "the abstract's lower expected utility",
    "upper_expectation": "the abstract's upper expected utility",
    "multinomial_distribution": "probabilities: n independent ballots as a "
                                "Bayesian mass (test_reductions.py)",
    "dominating_manipulation": "incomplete preferences: dominance over every "
                               "completion (test_oracles.py, criterion 9)",
    "parse_trace": "the trace round trip; perfbench/worker.py reads traces "
                   "back",
}


class _References(ast.NodeVisitor):
    """Names referenced outside the `def` of the same name, aliases
    resolved to the imported name; `attributes` holds those referenced as
    an attribute."""

    def __init__(self, aliases: dict[str, str]):
        self.aliases = aliases
        self.enclosing: list[str] = []
        self.found: set[str] = set()
        self.attributes: set[str] = set()

    def _add(self, name: str) -> None:
        name = self.aliases.get(name, name)
        if name not in self.enclosing:
            self.found.add(name)

    def visit_FunctionDef(self, node):
        self.enclosing.append(node.name)
        self.generic_visit(node)
        self.enclosing.pop()

    def visit_Name(self, node):
        self._add(node.id)

    def visit_Attribute(self, node):
        if node.attr not in self.enclosing:
            self.attributes.add(node.attr)
        self._add(node.attr)
        self.generic_visit(node)


def package_references() -> tuple[set[str], set[str]]:
    """All names referenced in the package, and those referenced as an
    attribute."""
    found, attributes = set(), set()
    for path in pathlib.Path(credalvote.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        aliases = {alias.asname: alias.name for node in ast.walk(tree)
                   if isinstance(node, (ast.Import, ast.ImportFrom))
                   for alias in node.names if alias.asname}
        visitor = _References(aliases)
        visitor.visit(tree)
        found |= visitor.found
        attributes |= visitor.attributes
    return found, attributes


def exported_functions() -> set[str]:
    return {name for name, obj in vars(credalvote).items()
            if not name.startswith("_") and inspect.isfunction(obj)}


def exported_members() -> dict[str, str]:
    """`Class.member` -> member name, for the public methods, properties,
    classmethods and staticmethods defined on each exported class."""
    kinds = (property, classmethod, staticmethod)
    return {f"{cls_name}.{name}": name
            for cls_name, cls in vars(credalvote).items()
            if not cls_name.startswith("_") and inspect.isclass(cls)
            for name, obj in vars(cls).items()
            if not name.startswith("_")
            and (inspect.isfunction(obj) or isinstance(obj, kinds))}


def test_every_exported_function_has_a_caller_or_a_claim():
    unreached = exported_functions() - package_references()[0]
    assert sorted(unreached - set(ALLOWED)) == []
    # An allowed name that gained a caller, or stopped being exported,
    # leaves the list.
    assert sorted(set(ALLOWED) - unreached) == []



def test_every_public_member_has_an_attribute_caller():
    attributes = package_references()[1]
    members = exported_members()
    # A classmethod and a property are among the members walked.
    assert {"FocalElement.from_box",
            "LayeredBelief.has_decreasing_weights"} <= set(members)
    assert sorted(qualified for qualified, name in members.items()
                  if name not in attributes) == []
