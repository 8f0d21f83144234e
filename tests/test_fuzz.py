"""Fuzzed site documents: any input parses or raises a FinsiteError, and the
CLI answers with an exit code from 0 to 3, never a traceback, under
`validate`, `topologies`, `dense`, `sheafify` and `report`.

Each example takes a valid named site document and replaces one of its
blocks (any node of the JSON tree) with small random JSON whose strings are
mostly names the document already uses, so the parser gets past the name
lookups and into the law checks.  Hypothesis runs derandomized with a fixed
example budget, so the test is deterministic.
"""

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from finsite.cli import main
from finsite.corpus import named_site
from finsite.errors import FinsiteError
from finsite.siteio import SiteFile, parse_site, serialize_site

SITES = ("arrow-j2", "vee-cover", "square-cover", "z2-atomic", "idem-e", "z2-trivial")
DOCUMENTS = {name: json.loads(serialize_site(named_site(name))) for name in SITES}


def _first(names, default):
    return min(names, default=default)


# the subcategory and presheaf each document's `dense` and `sheafify` ask for
SUBS = {name: _first(doc.get("subcategories", {}), "S") for name, doc in DOCUMENTS.items()}
PRESHEAVES = {
    name: _first(doc.get("presheaves", {}), "P") for name, doc in DOCUMENTS.items()
}


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield from _paths(child, prefix + (key,))


def _names(node):
    if isinstance(node, str):
        yield node
    elif isinstance(node, dict):
        for key, child in node.items():
            yield key
            yield from _names(child)
    elif isinstance(node, list):
        for child in node:
            yield from _names(child)


PATHS = {name: list(_paths(doc)) for name, doc in DOCUMENTS.items()}
NAMES = {name: sorted(set(_names(doc))) for name, doc in DOCUMENTS.items()}


def _replaced(doc, path, value):
    if not path:
        return value
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


@st.composite
def fuzzed_documents(draw):
    name = draw(st.sampled_from(SITES))
    doc = DOCUMENTS[name]
    names = NAMES[name]
    strings = st.sampled_from(names) | st.text("ab*", max_size=2)
    scalars = (
        st.none() | st.booleans() | st.integers(-2, 4) | st.floats(0, 2) | strings
    )
    value = draw(
        st.recursive(
            scalars,
            lambda inner: st.lists(inner, max_size=4)
            | st.dictionaries(strings, inner, max_size=4),
            max_leaves=10,
        )
    )
    path = draw(st.sampled_from(PATHS[name]))
    return name, json.dumps(_replaced(doc, path, value))


@pytest.fixture(scope="module")
def site_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "site.json"


@settings(
    derandomize=True,
    max_examples=120,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(case=fuzzed_documents())
def test_fuzzed_documents_parse_or_raise_finsite_errors(site_path, case):
    name, text = case
    try:
        assert isinstance(parse_site(text), SiteFile)
    except FinsiteError:
        pass
    site_path.write_text(text, encoding="ascii")
    path = str(site_path)
    for argv in (
        ("validate", path),
        ("topologies", path),
        ("dense", "--sub", SUBS[name], "--enumerate", path),
        ("sheafify", "--presheaf", PRESHEAVES[name], path),
        ("report", path),
    ):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
        assert code in (0, 1, 2, 3), argv
        assert "Traceback" not in err.getvalue(), argv
