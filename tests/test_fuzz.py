"""Fuzzed site documents: any input parses or raises a FinsiteError, and the
CLI answers with an exit code from 0 to 3, never a traceback, under
`validate`, `topologies`, `dense`, `sheafify` and `report`.

The first strategy takes a valid named site document and replaces one of
its blocks (any node of the JSON tree) with small random JSON whose strings
are mostly names the document already uses, so the parser gets past the name
lookups and into the law checks.  Most such documents break a law and stop
at load.  The second strategy makes one to three changes, of different
kinds, that keep the category and presheaf laws, so the downstream
subcommands see odd but valid sites: a consistent rename of an object or an
arrow, dropping or adding one right-closed sieve in the coverage, moving the
coverage from J_D to J_D' where D' is D with one retract class added (with
the classes below it) or dropped (with the classes above it), or replacing
one presheaf action table with another that keeps the presheaf functorial.
Every retract-closed D' gives a topology (`topology.py`), so only the sieve
changes can break the axioms.  Hypothesis runs derandomized with a fixed
example budget, so the tests are deterministic.
"""

import contextlib
import functools
import io
import itertools
import json
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from finsite.category import whole_subcategory
from finsite.cli import main
from finsite.corpus import corpus, named_site
from finsite.errors import FinsiteError, PresheafLawError
from finsite.presheaf import Presheaf, random_presheaf
from finsite.sieves import sieve_masks_on
from finsite.siteio import SiteFile, parse_site, serialize_site, topology_data
from finsite.topology import GrothendieckTopology, _retract_classes

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


def run_subcommands(site_path, text, sub, presheaf):
    """Write the document and run the five subcommands on it; returns the
    exit code of `validate`."""
    site_path.write_text(text, encoding="ascii")
    path = str(site_path)
    codes = []
    for argv in (
        ("validate", path),
        ("topologies", path),
        ("dense", "--sub", sub, "--enumerate", path),
        ("sheafify", "--presheaf", presheaf, path),
        ("report", path),
    ):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
        assert code in (0, 1, 2, 3), argv
        assert "Traceback" not in err.getvalue(), argv
        codes.append(code)
    return codes[0]


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
    run_subcommands(site_path, text, SUBS[name], PRESHEAVES[name])


# ---------------------------------------------------------------------------
# Changes within the laws.


def _lawful_sites():
    """Every corpus site, given a subcategory and a presheaf if it has none,
    so that `dense` and `sheafify` reach their computations."""
    out = {}
    for site in corpus(seed=0, random_count=4):
        cat = site.category
        subs = dict(site.subcategories) or {"whole": whole_subcategory(cat)}
        presheaves = dict(site.presheaves) or {
            "P": random_presheaf(cat, random.Random(site.name))
        }
        out[site.name] = SiteFile(site.name, cat, site.topology, subs, presheaves)
    return out


LAWFUL = _lawful_sites()
LAWFUL_DOCS = {name: json.loads(serialize_site(site)) for name, site in LAWFUL.items()}


def _rename_object(doc, old, new):
    cat = doc["category"]
    cat["objects"] = [new if o == old else o for o in cat["objects"]]
    cat["morphisms"] = [
        [m, new if a == old else a, new if b == old else b]
        for m, a, b in cat["morphisms"]
    ]
    cat["identities"] = {
        new if o == old else o: m for o, m in cat["identities"].items()
    }
    for sub in doc.get("subcategories", {}).values():
        sub["objects"] = [new if o == old else o for o in sub["objects"]]
    for P in doc.get("presheaves", {}).values():
        P["sizes"] = {new if o == old else o: n for o, n in P["sizes"].items()}
    coverage = doc["topology"]["coverage"]
    doc["topology"]["coverage"] = {
        new if o == old else o: sieves for o, sieves in coverage.items()
    }


def _rename_arrow(doc, old, new):
    def swap(names):
        return [new if m == old else m for m in names]

    cat = doc["category"]
    cat["morphisms"] = [[new if m == old else m, a, b] for m, a, b in cat["morphisms"]]
    cat["identities"] = {
        o: new if m == old else m for o, m in cat["identities"].items()
    }
    cat["composites"] = [swap(entry) for entry in cat["composites"]]
    for sub in doc.get("subcategories", {}).values():
        sub["morphisms"] = swap(sub["morphisms"])
    for P in doc.get("presheaves", {}).values():
        P["actions"] = {new if m == old else m: t for m, t in P["actions"].items()}
    for o, sieves in doc["topology"]["coverage"].items():
        doc["topology"]["coverage"][o] = [swap(S) for S in sieves]


@functools.lru_cache(maxsize=None)
def _sieve_names(name):
    """Per object name, the arrow-name lists of every sieve on it."""
    cat = LAWFUL[name].category
    return {
        cat.objects[c]: [
            sorted(cat.morphisms[f] for f in range(len(cat.morphisms)) if S >> f & 1)
            for S in sieve_masks_on(cat, c)
        ]
        for c in range(len(cat.objects))
    }


@functools.lru_cache(maxsize=None)
def _functorial_tables(name, presheaf, arrow):
    """The action tables of the arrow, other than its own, that keep the
    presheaf functorial when they replace its own."""
    P = LAWFUL[name].presheaves[presheaf]
    cat = P.category
    f = cat.mor_index(arrow)
    out = []
    for table in itertools.product(
        range(P.sizes[cat.dom[f]]), repeat=P.sizes[cat.cod[f]]
    ):
        if table == P.actions[f]:
            continue
        actions = P.actions[:f] + (table,) + P.actions[f + 1 :]
        try:
            Presheaf(cat, P.sizes, actions)
        except PresheafLawError:
            continue
        out.append(list(table))
    return out


def _fresh_names(doc):
    used = set(_names(doc))
    return st.text("abpqxyz*>-", min_size=1, max_size=3).filter(
        lambda n: n not in used
    )


# the kinds of lawful change, in the order they are applied: the sieve and
# action changes name objects and arrows as the site does, so renames go last
CHANGES = ("retract", "add", "drop", "action", "object", "arrow")
# the changes after which the document is a valid site
VALID = {"retract", "action", "object", "arrow"}


def _retract_change(site, k):
    """The coverage block of J_D' for D' the retract classes D of the site's
    topology with class k added, with the classes below it, or dropped, with
    the classes above it."""
    cat = site.category
    classes = _retract_classes(cat)
    D = classes.downset(site.topology.minimal)
    if D >> k & 1:
        D &= ~sum(1 << j for j, down in enumerate(classes.down) if down >> k & 1)
    else:
        D |= classes.down[k]
    return topology_data(cat, GrothendieckTopology(cat, classes.minimal(D)))


@st.composite
def lawful_documents(draw):
    """(site name, kinds of change, document text) after one to three
    changes of different kinds that keep the category and presheaf laws."""
    name = draw(st.sampled_from(sorted(LAWFUL_DOCS)))
    doc = json.loads(json.dumps(LAWFUL_DOCS[name]))
    site = LAWFUL[name]
    cat = site.category
    actions = [
        (p, m)
        for p, P in sorted(doc["presheaves"].items())
        for m in sorted(P["actions"])
        if _functorial_tables(name, p, m)
    ]
    kinds = draw(
        st.lists(
            st.sampled_from([k for k in CHANGES if k != "action" or actions]),
            min_size=1,
            max_size=3,
            unique=True,
        )
    )
    for kind in CHANGES:
        if kind not in kinds:
            continue
        coverage = doc["topology"]["coverage"]
        if kind == "retract":
            k = draw(st.integers(0, len(_retract_classes(cat).least) - 1))
            doc["topology"] = _retract_change(site, k)
        elif kind == "add":
            obj = draw(st.sampled_from(cat.objects))
            listed = [sorted(S) for S in coverage[obj]]
            fresh = [S for S in _sieve_names(name)[obj] if S not in listed]
            if fresh:
                coverage[obj].append(draw(st.sampled_from(fresh)))
        elif kind == "drop":
            obj = draw(st.sampled_from(sorted(o for o, S in coverage.items() if S)))
            coverage[obj].pop(draw(st.integers(0, len(coverage[obj]) - 1)))
        elif kind == "action":
            p, m = draw(st.sampled_from(actions))
            doc["presheaves"][p]["actions"][m] = draw(
                st.sampled_from(_functorial_tables(name, p, m))
            )
        else:
            rename = _rename_object if kind == "object" else _rename_arrow
            names = cat.objects if kind == "object" else cat.morphisms
            rename(doc, draw(st.sampled_from(names)), draw(_fresh_names(doc)))
    return name, tuple(kinds), json.dumps(doc)


@settings(
    derandomize=True,
    max_examples=200,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(case=lawful_documents())
def test_changes_within_the_laws_reach_every_subcommand(site_path, case):
    name, kinds, text = case
    sub = min(LAWFUL_DOCS[name]["subcategories"])
    presheaf = min(LAWFUL_DOCS[name]["presheaves"])
    code = run_subcommands(site_path, text, sub, presheaf)
    if VALID.issuperset(kinds):
        # renames, functorial action changes and retract-class moves leave
        # a valid site
        assert code == 0, kinds


def test_each_retract_class_move_loads_to_another_topology():
    for name, site in LAWFUL.items():
        for k in range(len(_retract_classes(site.category).least)):
            doc = dict(LAWFUL_DOCS[name], topology=_retract_change(site, k))
            assert parse_site(json.dumps(doc)).topology != site.topology, (name, k)
