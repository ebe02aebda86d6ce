"""Tooling guard: no module but ``scheduler`` branches on a ``PolicyKind``.

Each module of ``src/diversity_lab`` is parsed with ``ast``. Only
``scheduler`` may compare a value with a ``PolicyKind.<member>`` (``is``,
``is not``, ``==``, ``!=``, ``in``, ``not in``, or a ``match`` case), so
each kind's rules live in one module. Naming a member is no comparison:
``simulator.POLICY_STREAM`` keys each kind's stream id by its member.
"""

import ast

import pytest

from test_draw_guard import MODULES, dotted, source_of

COMPARISONS = (ast.Is, ast.IsNot, ast.Eq, ast.NotEq, ast.In, ast.NotIn)


def is_member(node) -> bool:
    """Whether ``node`` is ``PolicyKind.<member>``, however ``PolicyKind`` is reached."""
    return isinstance(node, ast.Attribute) and dotted(node.value).rpartition(".")[2] == "PolicyKind"


def kind_comparisons(source: str) -> list[str]:
    """Each comparison in ``source`` with a ``PolicyKind`` member in an operand, and each ``case`` on a member."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare) and any(isinstance(op, COMPARISONS) for op in node.ops):
            operands = [node.left, *node.comparators]
            if any(is_member(part) for operand in operands for part in ast.walk(operand)):
                found.append(ast.unparse(node))
        elif isinstance(node, ast.MatchValue) and is_member(node.value):
            found.append(f"case {ast.unparse(node.value)}")
    return found


@pytest.mark.parametrize("module", [name for name in MODULES if name != "scheduler.py"])
def test_only_scheduler_compares_kinds(module):
    assert kind_comparisons(source_of(module)) == []


def test_guard_sees_the_comparisons_of_scheduler():
    assert "kind is PolicyKind.RANDOM_K" in kind_comparisons(source_of("scheduler.py"))


@pytest.mark.parametrize(
    "source",
    [
        "kind is PolicyKind.DIVERSITY",
        "kind is not PolicyKind.UNIFORM",
        "kind == PolicyKind.RANDOM_K",
        "kind != core.PolicyKind.UNIFORM",
        "PolicyKind.DIVERSITY is kind",
        "kind in (PolicyKind.UNIFORM, PolicyKind.RANDOM_K)",
        "kind not in {PolicyKind.DIVERSITY}",
        "0 < k and kind.value == PolicyKind.UNIFORM.value",
        "match kind:\n    case PolicyKind.UNIFORM:\n        pass\n",
    ],
)
def test_guard_flags_each_form(source):
    assert kind_comparisons(source)


def test_guard_passes_stream_keys_and_annotations():
    source = (
        "POLICY_STREAM = {PolicyKind.DIVERSITY: 1, PolicyKind.UNIFORM: 2, PolicyKind.RANDOM_K: 3}\n"
        "DEFAULT_POLICY_KINDS = tuple(POLICY_STREAM)\n"
        "def f(kind: PolicyKind, kinds: tuple[PolicyKind, ...] = DEFAULT_POLICY_KINDS) -> PolicyKind:\n"
        "    return POLICY_STREAM[kind] if kind in POLICY_STREAM else None\n"
    )
    assert kind_comparisons(source) == []
