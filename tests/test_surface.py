"""The public surface of `src/bertfit` is what the package uses.

Every public module-level function and class, and every public method or
property (matched by attribute name), must be referred to somewhere in
`src/bertfit` outside its own body, be exported in `bertfit.__all__`, be
the CLI entry, or be on one of the lists below with the reason it stays.
A list entry that no longer needs its list fails too, so the lists only
shrink. The files that hold an entry (`tests/test_acceptance.py`,
`perfbench/`, README.md) are read, never changed.
"""

import ast
import functools
import re
from pathlib import Path

import pytest

import bertfit

SRC = Path(bertfit.__file__).parent
REPO = SRC.parent.parent

# Each list maps `module.name` (or `module.Class.method`) to why it stays
# with no caller in `src/`; HOLDERS names the files that must name it.
ACCEPTANCE_API = {
    "pretraining.held_out_mlm_loss": "test_8's held-out loss, before/after",
    "toytask.make_marker_task": "the marker-order task of tests 7, 9, 10",
    "toytask.marker_vocab_corpus": "that task's vocabulary, tests 6-10",
    "toytask.marker_benchmark": "test_7's model config and recipe",
}
BENCHMARK_HELD = {
    "model.encode": "traced as glue: instrument.GLUE",
    "model.classify": "traced as glue: instrument.GLUE",
    "autodiff.tsum": "test_benchlib.py's traced loss",
}
PAPER_API = {
    "pretraining.assemble_corpus":
        "Sec. 5.4's within-task, in-domain and cross-domain corpora",
    "pretraining.write_corpus": "writes such a corpus as pretrain input",
}
LISTS = {"ACCEPTANCE_API": ACCEPTANCE_API, "BENCHMARK_HELD": BENCHMARK_HELD,
         "PAPER_API": PAPER_API}
HOLDERS = {"ACCEPTANCE_API": ["tests/test_acceptance.py"],
           "BENCHMARK_HELD": sorted(str(p.relative_to(REPO)) for p in
                                    REPO.glob("perfbench/**/*.py")),
           "PAPER_API": ["README.md"]}


def _bindings(tree, relative=False):
    """Each local name that an import in `tree` binds to a module of the
    package ("autodiff") or to a module-level name ("model.encode"): from
    `bertfit`, or, in a module of the package, `relative`ly."""
    bound = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if relative and node.level == 1:
            mod = node.module
        elif node.level == 0 and node.module == "bertfit":
            mod = None
        elif node.level == 0 and (node.module or "").startswith("bertfit."):
            mod = node.module.removeprefix("bertfit.")
        else:
            continue
        for alias in node.names:
            bound[alias.asname or alias.name] = \
                alias.name if mod is None else f"{mod}.{alias.name}"
    return bound


def _refs(node, bound, module=None):
    """What the expression node refers to: `module.name` for a name bound
    here or defined in `module`, and `.attr` (plus `module.attr` through a
    module binding) for an attribute."""
    if isinstance(node, ast.Name):
        if node.id in bound:
            return [bound[node.id]]
        return [f"{module}.{node.id}"] if module else []
    if isinstance(node, ast.Attribute):
        value = node.value
        via = [f"{bound[value.id]}.{node.attr}"] \
            if isinstance(value, ast.Name) and value.id in bound else []
        return [f".{node.attr}", *via]
    return []


def _uses(module, tree):
    """(target, owners) of every reference in a `src/bertfit` module; the
    owners are the qualified names of the module-level definition and the
    method whose bodies the reference sits in."""
    bound = _bindings(tree, relative=True)

    def visit(node, owners, scope):
        if scope and isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            owners += (f"{scope}.{node.name}",)
            scope = owners[-1] if isinstance(node, ast.ClassDef) else None
        for target in _refs(node, bound, module):
            yield target, owners
        for child in ast.iter_child_nodes(node):
            yield from visit(child, owners, scope)

    yield from visit(tree, (), module)


def _public_defs(trees):
    """Qualified name -> the name a reference matches, for each public
    module-level function and class and each public method or property
    of a module-level class."""
    defs = {}
    for module, tree in trees.items():
        for top in tree.body:
            if not isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not top.name.startswith("_"):
                defs[f"{module}.{top.name}"] = f"{module}.{top.name}"
            if isinstance(top, ast.ClassDef):
                defs.update({f"{module}.{top.name}.{m.name}": f".{m.name}"
                             for m in top.body
                             if isinstance(m, ast.FunctionDef)
                             and not m.name.startswith("_")})
    return defs


def _src():
    return {p.stem: ast.parse(p.read_text(encoding="utf-8"))
            for p in sorted(SRC.glob("*.py"))}


def _has_caller(trees, defs):
    """The public definitions that `src/bertfit` refers to outside their
    own bodies."""
    by_match = {}
    for q, match in defs.items():
        by_match.setdefault(match, []).append(q)
    called = set()
    for module, tree in trees.items():
        for target, owners in _uses(module, tree):
            called.update(q for q in by_match.get(target, ())
                          if q not in owners)
    return called


def _exempt(trees):
    """The names exported in `bertfit.__all__`, and the CLI entry that
    pyproject.toml's `[project.scripts]` names."""
    init = _bindings(trees["__init__"], relative=True)
    scripts = (REPO / "pyproject.toml").read_text(encoding="utf-8")
    entries = re.findall(r'^\w+ = "bertfit\.(\w+):(\w+)"$', scripts, re.M)
    assert entries, "pyproject.toml names no bertfit CLI entry"
    return {init[n] for n in bertfit.__all__} | \
        {f"{m}.{f}" for m, f in entries}


@functools.cache
def _named_by(path):
    """Everything a holder file names: in Python, what `_refs` finds plus
    every string literal (perfbench traces "model.encode"); in Markdown,
    every word."""
    text = (REPO / path).read_text(encoding="utf-8")
    if path.endswith(".md"):
        return set(re.findall(r"\w+", text))
    tree = ast.parse(text)
    bound = _bindings(tree)
    names = {n.value for n in ast.walk(tree)
             if isinstance(n, ast.Constant) and isinstance(n.value, str)}
    for node in ast.walk(tree):
        names.update(_refs(node, bound))
    return names


def _holders_name(list_name, entry, match):
    """Whether a holder of `list_name` names `entry`: by its qualified
    name or, for a method, its attribute; a Markdown holder by the bare
    name."""
    for path in HOLDERS[list_name]:
        names = _named_by(path)
        if ({entry.rsplit(".", 1)[1]} if path.endswith(".md")
                else {entry, match}) & names:
            return True
    return False


@pytest.fixture(scope="module")
def surface():
    trees = _src()
    defs = _public_defs(trees)
    return defs, _has_caller(trees, defs) | _exempt(trees)


def test_every_public_name_has_a_caller_or_a_listed_reason(surface):
    defs, used = surface
    listed = set().union(*LISTS.values())
    unused = sorted(set(defs) - used - listed)
    assert not unused, f"no caller in src/ and on no list: {unused}"


@pytest.mark.parametrize("name", sorted(LISTS))
def test_no_list_entry_is_stale(surface, name):
    """An entry is stale once it names no public definition, gains a
    `src/` caller (or is exported), or its holders stop naming it."""
    defs, used = surface
    entries = LISTS[name]

    def why(entry):
        if entry not in defs:
            return "no such public definition"
        if entry in used:
            return "has a caller in src/ or is exported"
        if not _holders_name(name, entry, defs[entry]):
            return f"not named by {HOLDERS[name]}"
        return None

    stale = {e: why(e) for e in entries if why(e)}
    assert not stale, f"stale {name} entries: {stale}"
    assert all(reason and "\n" not in reason for reason in entries.values())
