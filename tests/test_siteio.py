"""Site-file parsing, canonical serialization, golden bytes."""

import contextlib
import io
import json
import os

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from finsite import cli
from finsite.category import bits
from finsite.corpus import corpus, named_site, named_sites
from finsite.errors import ParseError
from finsite.siteio import (
    SCHEMA,
    canonical_json,
    load_site,
    parse_site,
    save_site,
    serialize_site,
    site_data,
)

HERE = os.path.dirname(__file__)


def site_fingerprint(site):
    cat = site.category
    fp = {
        "name": site.name,
        "objects": cat.objects,
        "morphisms": cat.morphisms,
        "table": sorted(cat.table.items()),
        "covering": site.topology.covering if site.topology else None,
        "subs": sorted(
            (n, s.objects_mask, s.morphisms_mask)
            for n, s in site.subcategories.items()
        ),
        "presheaves": sorted(
            (n, P.sizes, P.actions) for n, P in site.presheaves.items()
        ),
    }
    return repr(fp)


def test_round_trip_and_idempotence_across_the_corpus():
    for site in corpus(seed=3, random_count=3):
        text = serialize_site(site)
        back = parse_site(text)
        assert site_fingerprint(back) == site_fingerprint(site)
        assert serialize_site(back) == text


def test_golden_site_bytes():
    path = os.path.join(HERE, "golden", "arrow-j2.site.json")
    with open(path, encoding="ascii") as fh:
        frozen = fh.read()
    assert serialize_site(named_site("arrow-j2")) == frozen
    site = parse_site(frozen)
    assert site.name == "arrow-j2"
    assert site.presheaves["P"].sizes == (1, 2)


def test_canonical_json_shape():
    text = canonical_json({"b": 1, "a": [2, 1]})
    assert text == '{\n  "a": [\n    2,\n    1\n  ],\n  "b": 1\n}\n'
    assert text == canonical_json(json.loads(text))


def stdlib_json(data):
    return json.dumps(data, sort_keys=True, indent=2, ensure_ascii=True) + "\n"


ODD_CHARS = '"\\/\x00\x08\x0c\x1f\x7f\x80\xe9\u2028\ud800\U0001f600'
TEXT = st.text(st.one_of(st.characters(), st.sampled_from(ODD_CHARS)), max_size=6)
SCALARS = st.one_of(
    TEXT,
    st.integers(),
    st.integers(min_value=-(10**40), max_value=10**40),
    st.booleans(),
    st.none(),
)


def json_trees(scalars, keys):
    """JSON-shaped values, each listed twice so that equal tuples recur at
    one indent and at deeper ones."""
    values = st.recursive(
        scalars,
        lambda inner: st.one_of(
            st.lists(inner, max_size=4),
            st.lists(inner, max_size=4).map(tuple),
            st.dictionaries(keys, inner, max_size=4),
        ),
        max_leaves=24,
    )
    return st.lists(values, max_size=3).map(lambda xs: xs + [tuple(xs)] + xs)


ORACLE_SETTINGS = settings(
    derandomize=True,
    max_examples=100,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@ORACLE_SETTINGS
@given(data=json_trees(SCALARS, TEXT))
@example(data=[(1,), (True,), (0,), (False,), ("a",), ("a",), [("a",), ()]])
@example(data={"k": (("f", "id_b"), ("id_a",)), "l": [(("f", "id_b"), ("id_a",))]})
def test_canonical_json_matches_the_stdlib_bytes(data):
    assert canonical_json(data) == stdlib_json(data)


@ORACLE_SETTINGS
@given(
    data=json_trees(
        st.one_of(SCALARS, st.floats(), st.sets(st.integers(), max_size=2)),
        st.one_of(TEXT, st.integers(), st.booleans(), st.none(), st.floats()),
    )
)
def test_other_values_match_the_stdlib_bytes_or_raise_type_error(data):
    try:
        text = canonical_json(data)
    except TypeError:
        return
    assert text == stdlib_json(data)


@pytest.mark.parametrize(
    "value",
    [1.5, [0.0], (1.0,), [(1,), (1.0,)], {1: "a"}, {None: 1}, {"a", "b"}, frozenset()],
    ids=repr,
)
def test_floats_other_keys_and_sets_raise_type_error(value):
    with pytest.raises(TypeError):
        canonical_json(value)


class Name(str):
    def __str__(self):
        return "renamed"


class Count(int):
    def __repr__(self):
        return "counted"


@pytest.mark.parametrize(
    "data",
    [
        [True, 1, False, 0, None, "1", "true"],
        {"a": True, "b": 1, "c": False, "d": 0, "e": None, "f": "x"},
        [[], {}, (), [[]], {"a": {}}, {"a": []}, ([], {}), [{"b": ()}]],
        {"a": [{}, [], 0, [None]], "b": {"c": ()}},
        [Name("n"), Count(5), {"k": Name("m"), "j": Count(-2)}, (Name("t"),)],
        [1, "a", (True, 2, None), {"x": [False, "y", 3]}, -(10**30)],
    ],
    ids=repr,
)
def test_scalars_written_inline_match_the_stdlib_bytes(data):
    """Items and values of exact type str, int, bool or None are written
    inline; subclasses take the type checks, which print their JSON value."""
    assert canonical_json(data) == stdlib_json(data)


@pytest.mark.parametrize(
    "value", [[1, 2.5], {"a": 1, "b": 0.5}, [True, {"c": [float("nan")]}]], ids=repr
)
def test_a_float_among_inline_scalars_raises_type_error(value):
    with pytest.raises(TypeError):
        canonical_json(value)


def test_every_subcommand_emits_the_stdlib_bytes(tmp_path, monkeypatch):
    emitted = []

    def checked(data):
        text = canonical_json(data)
        assert text == stdlib_json(data)
        emitted.append(data)
        return text

    monkeypatch.setattr(cli, "canonical_json", checked)
    calls = [["corpus", "--seed", str(seed)] for seed in range(3)]
    sites = {site.name: site for seed in range(3) for site in corpus(seed=seed)}
    for site in sites.values():
        path = str(tmp_path / ("%s.json" % site.name))
        save_site(site, path)
        calls += [["validate", path], ["topologies", path], ["classify", path]]
        calls += [["dense", "--sub", sub, "--enumerate", path]
                  for sub in sorted(site.subcategories)]
        calls += [["sheafify", "--presheaf", p, path] for p in sorted(site.presheaves)]
        if site.topology is not None:
            calls.append(["report", path])
    for argv in calls:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["--format", "json"] + argv) == 0
    assert len(emitted) == len(calls)


def test_hand_written_file_parses():
    site = load_site(os.path.join(HERE, "sites", "square-gen.site.json"))
    cat = site.category
    s = cat.obj_index("s")
    legs = (1 << cat.mor_index("q->s")) | (1 << cat.mor_index("r->s"))
    covers = site.topology.covering_masks(s)
    assert any(mask & legs == legs and mask != cat.maximal_sieve(s)
               for mask in covers)
    # subcategory block without a morphism list means the full one
    sides = site.subcategories["sides"]
    assert sorted(bits(sides.morphisms_mask)) == [
        cat.mor_index("id_q"), cat.mor_index("id_r"),
    ]
    # identity actions were omitted and inferred
    P = site.presheaves["heights"]
    assert P.actions[cat.mor_index("id_p")] == (0, 1)


def test_named_topology_forms():
    base = {
        "schema": SCHEMA,
        "name": "t",
        "category": {
            "objects": ["*"],
            "morphisms": [["id", "*", "*"]],
            "identities": {"*": "id"},
        },
    }
    for name, masks in (
        ("trivial", (1,)),
        ("maximal", (0, 1)),
        ("atomic", (1,)),
    ):
        doc = dict(base, topology={"named": name})
        site = parse_site(json.dumps(doc))
        assert site.topology.covering == (masks,)
    doc = dict(base, topology={"named": "chaotic"})
    with pytest.raises(ParseError):
        parse_site(json.dumps(doc))


def test_parse_errors_carry_context():
    good = json.loads(serialize_site(named_site("arrow-j2")))

    def expect(message, mutate):
        doc = json.loads(json.dumps(good))
        mutate(doc)
        with pytest.raises(ParseError) as err:
            parse_site(json.dumps(doc))
        assert message in str(err.value)

    expect("expected schema", lambda d: d.update(schema="bogus/9"))
    with pytest.raises(ParseError):
        parse_site("{not json")
    expect("missing 'objects'", lambda d: d["category"].pop("objects"))
    expect("missing 'identities'", lambda d: d["category"].pop("identities"))
    expect(
        "must be [name, dom, cod]",
        lambda d: d["category"]["morphisms"].append(["x", "a"]),
    )
    expect(
        "listed twice",
        lambda d: d["category"].update(
            composites=[["f", "id_a", "f"], ["f", "id_a", "f"]]
        ),
    )
    expect(
        "does not land in",
        lambda d: d["topology"]["coverage"]["a"][0].append("f"),
    )
    expect(
        "missing object",
        lambda d: d["topology"]["coverage"].pop("a"),
    )
    expect(
        "lists a sieve twice",
        lambda d: d["topology"]["coverage"]["b"].append(
            d["topology"]["coverage"]["b"][0]
        ),
    )
    expect(
        "exactly one of",
        lambda d: d["topology"].update(named="trivial"),
    )
    expect(
        "exactly one of",
        lambda d: d.update(topology={}),
    )
    expect(
        "must be a nonnegative int",
        lambda d: d["presheaves"]["P"]["sizes"].update(a=-1),
    )
    expect(
        "missing a size",
        lambda d: d["presheaves"]["P"]["sizes"].pop("a"),
    )
    expect(
        "missing the action",
        lambda d: d["presheaves"]["P"]["actions"].pop("f"),
    )


def test_law_violations_surface_as_their_own_errors():
    from finsite.errors import PresheafLawError, TopologyAxiomViolation

    good = json.loads(serialize_site(named_site("arrow-j2")))
    bad_top = json.loads(json.dumps(good))
    # drop the maximal sieve from b: maximality fails
    bad_top["topology"]["coverage"]["b"] = [["f"]]
    with pytest.raises(TopologyAxiomViolation):
        parse_site(json.dumps(bad_top))
    bad_p = json.loads(json.dumps(good))
    bad_p["presheaves"]["P"]["actions"]["f"] = [0, 7]
    with pytest.raises(PresheafLawError):
        parse_site(json.dumps(bad_p))


def test_topology_block_is_optional():
    doc = json.loads(serialize_site(named_site("arrow-j2")))
    del doc["topology"]
    site = parse_site(json.dumps(doc))
    assert site.topology is None
    assert "topology" not in site_data(site)


def test_save_and_load(tmp_path):
    path = tmp_path / "z2.site.json"
    save_site(named_site("z2-atomic"), str(path))
    site = load_site(str(path))
    assert site.name == "z2-atomic"
    with pytest.raises(ParseError):
        load_site(str(tmp_path / "absent.site.json"))


def test_every_named_site_serializes_to_stable_bytes():
    for site in named_sites():
        one = serialize_site(site)
        two = serialize_site(parse_site(one))
        assert one == two
        assert one.endswith("\n") and one == one.encode("ascii").decode()
