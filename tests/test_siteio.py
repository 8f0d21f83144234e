"""Site-file parsing, canonical serialization, golden bytes."""

import collections
import contextlib
import hashlib
import io
import json
import os
import tracemalloc

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from finsite import cli
from finsite.category import bits
from finsite.corpus import corpus, named_site, named_sites
from finsite.errors import ParseError, SizeBoundExceeded
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


# tuple objects met more than once in one call, which the writer memoises
# by identity and indent
SHARED = ("f", 1, None)
MIXED = ([1, "a"], {"b": (True,)})
Pair = collections.namedtuple("Pair", "left right")
PAIR = Pair(("x",), [1, SHARED])


class Table(dict):
    pass


@ORACLE_SETTINGS
@given(data=json_trees(SCALARS, TEXT))
@example(data=[(1,), (True,), (0,), (False,), ("a",), ("a",), [("a",), ()]])
@example(data={"k": (("f", "id_b"), ("id_a",)), "l": [(("f", "id_b"), ("id_a",))]})
@example(data=[SHARED, [SHARED], {"k": [[SHARED]]}, SHARED])
@example(data=[{"k": SHARED}, {"j": SHARED, "k": SHARED}, [{"k": SHARED}], {"k": SHARED}])
@example(data=[tuple([1]), tuple([True]), tuple([1]), tuple([True])])
@example(data={"a": MIXED, "b": [MIXED, (MIXED, MIXED)], "c": MIXED})
@example(data=[PAIR, {"p": PAIR}, PAIR.left, PAIR])
@example(data=[Table(a=SHARED, b=MIXED, c=SHARED), {"t": Table(d=SHARED)}, SHARED])
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


def tuple_places(value):
    """Every tuple in a JSON tree, once per place it occurs."""
    if type(value) is tuple:
        yield value
    if isinstance(value, dict):
        value = value.values()
    elif not isinstance(value, (list, tuple)):
        return
    for x in value:
        yield from tuple_places(x)


def test_every_subcommand_emits_the_stdlib_bytes(tmp_path, monkeypatch):
    """Also counts the places of tuple objects met more than once in one
    call, such as the covering sieves describe() shares between topologies,
    so the writer's memo is on the path checked here."""
    emitted, shared = [], 0

    def checked(data):
        nonlocal shared
        text = canonical_json(data)
        assert text == stdlib_json(data)
        emitted.append(data)
        places = list(tuple_places(data))
        shared += len(places) - len(set(map(id, places)))
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
    assert shared > 0


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


def test_coverage_in_any_order_loads_to_the_ascending_covering():
    longest = 0
    for site in corpus(seed=0, random_count=6):
        if site.topology is None:
            continue
        doc = json.loads(serialize_site(site))
        for sieves in doc["topology"]["coverage"].values():
            sieves.reverse()
        J = parse_site(json.dumps(doc)).topology
        assert J.covering == site.topology.covering
        assert J.covering == tuple(
            J.covering_masks(c) for c in range(len(site.category.objects))
        )
        longest = max(longest, *map(len, J.covering))
    assert longest == 4


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


# Site files are read as bytes and decoded as ASCII once.  The messages
# below are those of the earlier text-mode read, recorded from it: line ends
# are turned as text mode turns them, so JSON error positions count no "\r".


def test_a_crlf_site_file_loads_as_its_lf_copy(tmp_path):
    for site in corpus(seed=0, random_count=2):
        text = serialize_site(site)
        lf, crlf = tmp_path / "lf.json", tmp_path / "crlf.json"
        lf.write_bytes(text.encode("ascii"))
        crlf.write_bytes(text.replace("\n", "\r\n").encode("ascii"))
        assert load_site(str(crlf)) == load_site(str(lf)), site.name


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_json_errors_name_the_positions_of_the_text_mode_read(tmp_path, newline):
    text = serialize_site(named_site("vee-cover"))
    broken = text.replace('"objects": [', '"objects": [,', 1)
    path = tmp_path / "broken.json"
    path.write_bytes(broken.replace("\n", newline).encode("ascii"))
    with pytest.raises(ParseError) as exc:
        load_site(str(path))
    assert str(exc.value) == (
        "invalid JSON: Expecting value: line 36 column 17 (char 454)"
    )


def test_a_non_ascii_byte_deep_in_a_file_is_named_by_its_offset(tmp_path):
    text = serialize_site(named_site("vee-cover"))
    raw = (text[:-2] + ', "pad": "' + "x" * 9000 + '\xe9"}\n').encode("latin-1")
    path = tmp_path / "latin1.json"
    path.write_bytes(raw)
    with pytest.raises(ParseError) as exc:
        load_site(str(path))
    assert raw.index(b"\xe9") == 10032 > 8192
    assert str(exc.value) == (
        "%s is not ASCII text: 'ascii' codec can't decode byte 0xe9 in "
        "position 10032: ordinal not in range(128)" % path
    )


def test_a_directory_or_a_missing_path_cannot_be_read(tmp_path):
    for path, reason in (
        (str(tmp_path), "[Errno 21] Is a directory"),
        (str(tmp_path / "absent.json"), "[Errno 2] No such file or directory"),
    ):
        with pytest.raises(ParseError) as exc:
            load_site(path)
        assert str(exc.value) == "cannot read %s: %s: %r" % (path, reason, path)


def test_every_named_site_serializes_to_stable_bytes():
    for site in named_sites():
        one = serialize_site(site)
        two = serialize_site(parse_site(one))
        assert one == two
        assert one.endswith("\n") and one == one.encode("ascii").decode()


# sha256 of `serialize_site` for each named site, in `named_sites()` order,
# and of the concatenated site files of `corpus(seed, random_count=8)`.
NAMED_SITE_DIGESTS = {
    "point-trivial": "705f7b411a1bdcaea813d3b78a4327747d59c033dc0b8ac7de8bb93b2c95eee0",
    "arrow-trivial": "b51b00fccf3c5a5d832c12554eee9fb989ec562712c529fed0ce9270d7d89500",
    "arrow-j2": "2f50b50da28f9d29024073a79d091cc76ce61142faccf24ab779d2aef0321123",
    "arrow-emptycover": "75f9aea618c1eb8049e2d99fd52c303c26e2adf42393d9b35317e8fd43527d4b",
    "pair-trivial": "a8fe6e6a90358e6029d63655fb3a5e3356a3b237c5da10ae25b989d7a6074dfa",
    "vee-trivial": "af5871a6255d9f17b5d459cb169bb21467638ed127af09552dc956f75d532ab1",
    "vee-cover": "bbc4e0b65558b7551a24ae63ddc1737e0928ce1038ce36a7543308839587a094",
    "square-cover": "1ed391d04c1016a6c06598977cc8592cc0f37c928d5d1fffc34d266bf1c83f38",
    "z2-trivial": "eed62a049f36ded0c724c9e736fb81ca5fe68928bb89256d6230022657353f1a",
    "z2-atomic": "43b769e0e265def256b3862d47e0db5c8c463c39e12f505ff2c08f8944a49be2",
    "idem-trivial": "71fc8ed0d03ab9a554c6e0e7a8ef2f3542ce04ed2df4812142e88dfd22be8373",
    "idem-e": "641d1f286da462bfc2cc7c2879e034a6a9b0eb12d4ebcd1e674d709891eb53df",
    "discrete2-trivial": "fc03add4bf582b88fa8f53e80f3d4123e8a91aa1776df509331fe75178d21c64",
    "discrete2-maximal": "f7f438c1193c16377b7e1487aa26a773089b4506e75463068c3771aae234e291",
}
CORPUS_DIGESTS = {
    0: "23b2e8d42f93bbbc16546f042ff3d3828260b8ab4da27377ef33da28b8f98a4e",
    1: "a6f37931f5e6139869affa9b4d04b2f0969a474e7295c87d2d95b9652206114a",
    2: "268ba3999e1659c1ca2723130d60bab1e7784aa56aa47fc5df5b201c55a2f8b8",
    3: "be3556317797f948d2afe5bb779779a9db09b8484bcec3f9f60a99be55a51737",
}


def _sha256(text):
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def test_named_site_bytes_are_pinned():
    assert [site.name for site in named_sites()] == list(NAMED_SITE_DIGESTS)
    for name, digest in NAMED_SITE_DIGESTS.items():
        assert _sha256(serialize_site(named_site(name))) == digest, name


@pytest.mark.parametrize("seed", sorted(CORPUS_DIGESTS))
def test_corpus_bytes_are_pinned(seed):
    sites = corpus(seed=seed, random_count=8)
    assert _sha256("".join(map(serialize_site, sites))) == CORPUS_DIGESTS[seed]


def test_an_unknown_site_name_raises_key_error_naming_the_sites():
    with pytest.raises(KeyError, match="unknown site 'nope' \\(have arrow-emptycover, "):
        named_site("nope")


def one_object_document(*sizes):
    """A site on the one-arrow category with a presheaf of each size, their
    identity actions left out."""
    return json.dumps(
        {
            "schema": SCHEMA,
            "category": {
                "objects": ["*"],
                "morphisms": [["id", "*", "*"]],
                "identities": {"*": "id"},
            },
            "presheaves": {
                "P%d" % i: {"sizes": {"*": n}, "actions": {}}
                for i, n in enumerate(sizes)
            },
        }
    )


def test_presheaf_sizes_over_the_bound_are_refused_before_any_table():
    text = one_object_document(10**12)
    tracemalloc.start()
    try:
        with pytest.raises(SizeBoundExceeded) as err:
            parse_site(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert (err.value.required, err.value.bound) == (10**12, 1 << 16)
    assert str(err.value) == (
        "presheaf 'P0' has 1000000000000 elements in all, over the bound 65536"
    )


def test_the_presheaf_bound_is_on_the_elements_of_each_presheaf(monkeypatch):
    site = parse_site(one_object_document(1 << 16, 1 << 16))
    assert site.presheaves["P1"].actions == (tuple(range(1 << 16)),)
    with pytest.raises(SizeBoundExceeded):
        parse_site(one_object_document(1, (1 << 16) + 1))
    # the sum over the objects: 2 x 40000 elements, refused before the
    # action of f, which lists too few values, is read
    doc = json.loads(serialize_site(named_site("arrow-j2")))
    doc["presheaves"]["P"]["sizes"] = {"a": 40000, "b": 40000}
    with pytest.raises(SizeBoundExceeded) as err:
        parse_site(json.dumps(doc))
    assert err.value.required == 80000
    monkeypatch.setenv("FINSITE_MAX_ASSIGNMENTS", "3")
    assert parse_site(one_object_document(3)).presheaves["P0"].sizes == (3,)
    with pytest.raises(SizeBoundExceeded) as err:
        parse_site(one_object_document(4))
    assert (err.value.required, err.value.bound) == (4, 3)
