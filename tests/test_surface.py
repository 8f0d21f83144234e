"""The public surface: the README's library tour runs as printed, and
`finsite.__all__` lists exactly the names `finsite/__init__.py` binds."""

import ast
import os

import finsite

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_readme_library_tour_runs():
    """Each line of the tour that is an expression with a literal comment,
    `expr  # value`, evaluates to that value."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        source = fh.read().split("```python\n", 1)[1].split("```", 1)[0]
    lines = source.splitlines()
    namespace = {}
    shown = []
    for stmt in ast.parse(source).body:
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
        expected = ast.literal_eval(lines[stmt.lineno - 1].partition("#")[2].strip())
        assert (type(value), value) == (type(expected), expected), lines[stmt.lineno - 1]
        shown.append(value)
    assert shown == [4, True, True]


def test_all_resolves_without_repeats_and_matches_the_bindings():
    names = finsite.__all__
    assert len(set(names)) == len(names)
    assert [n for n in names if not hasattr(finsite, n)] == []
    with open(finsite.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    bound = set()
    for stmt in tree.body:
        if isinstance(stmt, ast.ImportFrom):
            bound.update(alias.asname or alias.name for alias in stmt.names)
        elif isinstance(stmt, ast.Assign):
            bound.update(t.id for t in stmt.targets if isinstance(t, ast.Name))
    assert set(names) == {n for n in bound if not n.startswith("_")}
