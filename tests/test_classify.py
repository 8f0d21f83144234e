"""Site classes, comparison along dense subcategories, the report bundle."""

import hashlib
import importlib
import random
import sys
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from itertools import product

import pytest

from finsite.classify import (
    RIGID_EQUIVALENCE,
    SEPARATING,
    TRANSFER,
    classify_report,
    comparison_functors,
    irreducibles_sieve_mask,
    is_atomic_site,
    is_coherent_site,
    is_locally_connected_site,
    is_regular_site,
    is_rigid,
    j_irreducible_objects,
    presheaf_type_test,
    right_kan_extension,
)
from finsite.category import full_subcategory_from_mask, is_cartesian
from finsite.cli import _render_text
from finsite.corpus import arrow, corpus, named_site, named_sites, poset_category, vee
from finsite.density import is_dense
from finsite.errors import NotDense
from finsite.objects import (
    is_atom,
    is_indecomposable,
    representable_properties,
    subobjects,
)
from finsite.presheaf import Presheaf, are_isomorphic, random_presheaf, yoneda
from finsite.sheaf import is_sheaf, is_subcanonical, representable_sheaf
from finsite.siteio import canonical_json
from finsite.topology import enumerate_topologies, generated_topology, trivial_topology


def test_locally_connected_fails_on_disconnected_covers():
    site = named_site("vee-cover")
    verdict = is_locally_connected_site(site.category, site.topology)
    assert not verdict
    assert verdict.witness == ("z", ["x->z", "y->z"])
    for name in ("arrow-j2", "idem-e", "z2-atomic"):
        s = named_site(name)
        assert is_locally_connected_site(s.category, s.topology)


def test_empty_covering_sieve_is_disconnected():
    site = named_site("arrow-emptycover")
    verdict = is_locally_connected_site(site.category, site.topology)
    assert not verdict
    assert verdict.witness == ("a", [])


def test_atomic_sites():
    for name in ("arrow-j2", "idem-e", "z2-atomic"):
        s = named_site(name)
        assert is_atomic_site(s.category, s.topology)
    vs = named_site("vee-cover")
    verdict = is_atomic_site(vs.category, vs.topology)
    assert not verdict and verdict.witness[0] == "right-ore"
    tr = named_site("arrow-trivial")
    differs = is_atomic_site(tr.category, tr.topology)
    assert not differs and differs.witness == ("covering-differs",)


def test_irreducibles_and_rigidity():
    j2 = named_site("arrow-j2")
    assert j_irreducible_objects(j2.category, j2.topology) == (
        j2.category.obj_index("a"),
    )
    assert is_rigid(j2.category, j2.topology)

    vs = named_site("vee-cover")
    cat = vs.category
    assert j_irreducible_objects(cat, vs.topology) == (
        cat.obj_index("x"), cat.obj_index("y"),
    )
    assert is_rigid(cat, vs.topology)

    ie = named_site("idem-e")
    verdict = is_rigid(ie.category, ie.topology)
    assert not verdict and verdict.witness == "*"
    assert j_irreducible_objects(ie.category, ie.topology) == ()


def test_irreducibles_sieve_is_the_legs_sieve():
    vs = named_site("vee-cover")
    cat = vs.category
    z = cat.obj_index("z")
    mask = irreducibles_sieve_mask(cat, vs.topology, z)
    want = (1 << cat.mor_index("x->z")) | (1 << cat.mor_index("y->z"))
    assert mask == want


def test_coherent_site_flags_degeneracy():
    j2 = named_site("arrow-j2")
    verdict = is_coherent_site(j2.category, j2.topology)
    assert verdict and verdict.degenerate
    vs = named_site("vee-cover")
    verdict = is_coherent_site(vs.category, vs.topology)
    assert not verdict and verdict.witness[0] == "cartesian"


def test_regular_site_readings():
    j2 = named_site("arrow-j2")
    verdict = is_regular_site(j2.category, j2.topology)
    assert verdict.ok and verdict.strict and verdict.covering_variant

    vs = named_site("vee-cover")
    verdict = is_regular_site(vs.category, vs.topology)
    assert not verdict.ok
    assert not verdict.cartesian
    assert not verdict.strict and not verdict.covering_variant
    assert verdict.witness == ("z", ["x->z", "y->z"])


def test_regular_readings_can_disagree():
    # the empty-cover site: the empty sieve has no members at all, so the
    # strict reading fails while supercompactness also fails; both readings
    # agree here, and the agreement flag is what the report carries
    ec = named_site("arrow-emptycover")
    verdict = is_regular_site(ec.category, ec.topology)
    assert verdict.strict == verdict.covering_variant == False  # noqa: E712


TRIVIAL_SITES = ("arrow-j2", "vee-cover", "idem-e", "square-cover")


def test_trivial_topology_is_subcanonical_without_representables(monkeypatch):
    # every M_c is maximal, so no representable has a sieve to check: the
    # check builds no representable and reads no block of the presheaf site
    calls = Counter()
    for attr in ("yoneda", "_blocks"):
        original = getattr(importlib.import_module("finsite.sheaf"), attr)

        def counted(*args, _original=original, _attr=attr):
            calls[_attr] += 1
            return _original(*args)

        monkeypatch.setattr("finsite.sheaf." + attr, counted)
    for name in TRIVIAL_SITES:
        cat = named_site(name).category
        assert is_subcanonical(cat, trivial_topology(cat))
    assert calls == {}
    # the counter sees the reads under a topology that is not trivial
    vee = named_site("vee-cover")
    assert is_subcanonical(vee.category, vee.topology)
    assert calls["_blocks"] > 0 and calls["yoneda"] == 0


def test_trivial_topology_scans_no_covering_set():
    # each object's only covering sieve is maximal: connected, and generated
    # by the identity
    for name in TRIVIAL_SITES:
        cat = named_site(name).category
        J = trivial_topology(cat)
        assert is_locally_connected_site(cat, J)
        assert "covering" not in J.__dict__
        assert is_regular_site(cat, J).strict
        assert "covering" not in J.__dict__


def test_fan_witnesses_are_read_off_the_least_sieve(monkeypatch):
    # the legs of a 24-leg fan cover its apex, which has 2^24 + 1 sieves;
    # both site checks name the legs sieve without listing them
    legs = ["l%02d" % i for i in range(24)]
    cat = poset_category(legs + ["t"], [(leg, "t") for leg in legs])
    t = cat.obj_index("t")
    J = generated_topology(cat, {t: [[cat.mor_index(leg + "->t") for leg in legs]]})

    def unlisted(*args):
        raise AssertionError("sieve_masks_on was called")

    for module in ("finsite.topology", "finsite.sieves"):
        monkeypatch.setattr(importlib.import_module(module), "sieve_masks_on", unlisted)
    classes = classify_report(cat, J)["classes"]
    want = ("t", sorted(leg + "->t" for leg in legs))
    assert classes["locally_connected"] == {"holds": False, "witness": want}
    assert classes["regular"]["witness"] == want


def test_right_kan_extension_reconstructs_representables():
    vs = named_site("vee-cover")
    cat, J = vs.category, vs.topology
    fun = comparison_functors(cat, J, vs.subcategories["legs"])
    for obj in ("x", "y", "z"):
        F = representable_sheaf(cat, J, cat.obj_index(obj))
        back = fun.extend(fun.restrict(F))
        assert are_isomorphic(back, F) is not None


def test_right_kan_values_are_compatible_families():
    vs = named_site("vee-cover")
    cat = vs.category
    fun = comparison_functors(cat, vs.topology, vs.subcategories["legs"])
    G = fun.restrict(representable_sheaf(cat, vs.topology, cat.obj_index("z")))
    ran = right_kan_extension(cat, fun.realized, G)
    # one compatible family per object: both legs have singleton values
    assert ran.sizes == (1, 1, 1)


def brute_right_kan(parent, realized, G):
    """Sizes and action tables of the right Kan extension, by filtering
    every assignment of values to the pairs (d, f: d -> c)."""
    D = realized.category

    def pairs(c):
        return [
            (d, f)
            for d in range(len(D.objects))
            for f in parent.hom(realized.parent_object(d), c)
        ]

    values = []
    for c in range(len(parent.objects)):
        ps = pairs(c)
        found = []
        for combo in product(*(range(G.sizes[d]) for d, _ in ps)):
            val = dict(zip(ps, combo))
            if all(
                val[(D.dom[h], parent.compose(f, realized.parent_morphism(h)))]
                == G.actions[h][val[(d, f)]]
                for d, f in ps
                for h in range(len(D.morphisms))
                if D.cod[h] == d
            ):
                found.append(combo)
        values.append(found)
    actions = []
    for m in range(len(parent.morphisms)):
        c2, c = parent.dom[m], parent.cod[m]
        tab = []
        for alpha in values[c]:
            val = dict(zip(pairs(c), alpha))
            beta = tuple(val[(d, parent.compose(m, g))] for d, g in pairs(c2))
            tab.append(values[c2].index(beta))
        actions.append(tuple(tab))
    return tuple(len(v) for v in values), tuple(actions)


def test_right_kan_extension_matches_brute_force():
    rng = random.Random(60)
    checked = 0
    for site in corpus(seed=0, random_count=4):
        cat, J = site.category, site.topology
        for mask in range(1, 1 << len(cat.objects)):
            sub = full_subcategory_from_mask(cat, mask)
            if not is_dense(cat, J, sub):
                continue
            realized = sub.realize()
            for _ in range(2):
                G = random_presheaf(realized.category, rng, max_value=2)
                ran = right_kan_extension(cat, realized, G)
                assert (ran.sizes, ran.actions) == brute_right_kan(
                    cat, realized, G
                ), site.name
                # built unchecked; the law check runs on a rebuilt copy
                Presheaf(cat, ran.sizes, ran.actions)
                checked += 1
    assert checked >= 40


def test_restriction_lands_in_the_induced_site():
    vs = named_site("vee-cover")
    cat, J = vs.category, vs.topology
    fun = comparison_functors(cat, J, vs.subcategories["legs"])
    F = representable_sheaf(cat, J, cat.obj_index("z"))
    restricted = fun.restrict(F)
    assert is_sheaf(fun.realized.category, fun.sub_topology, restricted)


def test_comparison_requires_density():
    sq = named_site("square-cover")
    with pytest.raises(NotDense):
        comparison_functors(sq.category, sq.topology,
                            sq.subcategories["corner"])


def test_representables_separate_by_property():
    # the separating-set reading checks a property on every representable
    cat = arrow()
    J = trivial_topology(cat)
    props = [representable_properties(cat, J, c) for c in range(len(cat.objects))]
    assert all(p["indecomposable"] for p in props)
    # y(b) has the proper nonempty subobject {f} at a
    assert not all(p["atom"] for p in props)
    z2s = named_site("z2-atomic")
    zcat, zJ = z2s.category, z2s.topology
    assert all(
        representable_properties(zcat, zJ, c)["atom"] for c in range(len(zcat.objects))
    )


def test_report_writes_compactness_as_degenerate():
    # covering sieves of a finite category are finite, so every object is
    # compact and the report writes it as a degenerate constant
    for site in named_sites():
        rep = classify_report(site.category, site.topology, name=site.name)
        assert "compactness is identically true at finite scale" in rep["degeneracies"]
        assert len(rep["objects"]) == len(site.category.objects)
        for entry in rep["objects"].values():
            assert entry["compact"] == {"holds": True, "degenerate": True}


def test_presheaf_type_three_outcomes():
    vs = named_site("vee-cover")
    both = presheaf_type_test(vs.category, vs.topology)
    assert both["is_presheaf_topos"] is True
    assert both["direction"] == "both"
    assert both["via"] == RIGID_EQUIVALENCE
    assert both["irreducible_objects"] == ["x", "y"]

    j2 = named_site("arrow-j2")
    fwd = presheaf_type_test(j2.category, j2.topology)
    assert fwd["is_presheaf_topos"] is True
    assert fwd["direction"] == "forward-only"
    assert not fwd["hypotheses"]["subcanonical"]

    ie = named_site("idem-e")
    null = presheaf_type_test(ie.category, ie.topology)
    assert null["is_presheaf_topos"] is None
    assert null["via"] == "inapplicable"
    assert "note" in null


def test_negative_rigidity_decides_under_hypotheses():
    # subcanonical and retract-closed but not rigid: licensed to say no
    vs = named_site("vee-trivial")
    out = presheaf_type_test(vs.category, vs.topology)
    # the trivial topology is rigid on this base (every object irreducible)
    assert out["rigid"] is True and out["is_presheaf_topos"] is True


def test_report_structure_and_licensing():
    vs = named_site("vee-cover")
    rep = classify_report(vs.category, vs.topology, name="vee-cover")
    assert rep["schema"] == "finsite-report/1"
    assert rep["site"] == "vee-cover"
    assert rep["category"] == {"objects": 3, "morphisms": 5}
    classes = rep["classes"]
    assert classes["rigid"]["holds"] is True
    assert classes["locally_connected"]["holds"] is False
    assert classes["regular"]["readings_agree"] is True
    assert rep["irreducible_objects"] == ["x", "y"]
    assert len(rep["degeneracies"]) == 2

    by_name = {d["property"]: d for d in rep["derived"]}
    # a failed representable check never asserts a negative
    assert by_name["locally connected topos"]["holds"] is None
    assert by_name["atomic topos"]["holds"] is None
    assert by_name["presheaf topos"]["holds"] is True
    assert by_name["presheaf topos"]["licensed_by"] == RIGID_EQUIVALENCE
    assert all(
        d["licensed_by"] == SEPARATING
        for d in rep["derived"]
        if d["property"] != "presheaf topos"
    )
    transfers = {t["from"]: t for t in rep["transfers"]}
    assert set(transfers) == {"rigid site"}
    assert transfers["rigid site"]["verified"] is True
    assert transfers["rigid site"]["induced_topology_trivial"] is True
    assert transfers["rigid site"]["licensed_by"] == TRANSFER


def test_report_transfers_on_friendly_sites():
    j2 = named_site("arrow-j2")
    rep = classify_report(j2.category, j2.topology, name="arrow-j2")
    transfers = {t["from"]: t for t in rep["transfers"]}
    assert set(transfers) == {
        "locally connected site", "atomic site", "rigid site",
        "regular site", "coherent site",
    }
    assert all(t["verified"] for t in transfers.values())
    by_name = {d["property"]: d for d in rep["derived"]}
    assert by_name["locally connected topos"]["holds"] is True
    assert by_name["regular topos"]["holds"] is True

    z2s = named_site("z2-atomic")
    rep2 = classify_report(z2s.category, z2s.topology, name="z2-atomic")
    by_name2 = {d["property"]: d for d in rep2["derived"]}
    assert by_name2["atomic topos"]["holds"] is True
    # a group base has no products, so regularity is not licensed either way
    assert by_name2["regular topos"]["holds"] is None


def test_report_is_deterministic_and_mapper_independent():
    from concurrent.futures import ThreadPoolExecutor

    vs = named_site("vee-cover")
    plain = classify_report(vs.category, vs.topology, name="vee-cover")
    again = classify_report(vs.category, vs.topology, name="vee-cover")
    assert plain == again
    with ThreadPoolExecutor(max_workers=4) as pool:
        pooled = classify_report(
            vs.category, vs.topology, name="vee-cover", mapper=pool.map
        )
    assert pooled == plain


def test_report_without_objects_is_a_subset():
    vs = named_site("vee-cover")
    small = classify_report(vs.category, vs.topology, name="vee-cover",
                            include_objects=False)
    assert "objects" not in small and "derived" not in small
    assert "classes" in small and "presheaf_type" in small


REPORT_DIGESTS = {
    0: "b9844a7bc4fdbd125aec2653785a421e40266e39d04102e5e982c619a8e91a5f",
    1: "adbdb767d47fd0bbb2b6371c956f6f6eed6ac860e26b2788089e9bc44a7352f6",
    2: "ba70fd0db95db086d3a3d9122cfecd8c917d94af54984a78f6c22d958ce3cd1d",
    3: "2087d712f2bc0c5c00e57e1094de799b990a1b2907e746d636b73ce02bd4cee5",
    4: "0ea86528bbf03d9c1a38bc70f0b496bf50ca6ce923063dd4c4298d338fdc87b1",
    5: "fceebc21a98fdb292bcac1721c5a90a7e9f418be4e114afc375fd975c8ec0b70",
    6: "e8b12f1cd2858446d329a383bf0441f30a6774a12dd13f358db45c6002e392d6",
    7: "692fd134376b6c7bf21325bb2dae4dbfe4d5f8e1cb917a5e4a4a8d0bc157e14f",
}


def report_digest(seed):
    """sha256 over every report of the seed's corpus: each distinct category
    under every topology, as JSON with and without objects and as the text
    form `classify` prints."""
    digest = hashlib.sha256()
    cats = []
    for site in corpus(seed, random_count=8):
        if site.category in cats:
            continue
        cats.append(site.category)
        for k, J in enumerate(enumerate_topologies(site.category).elements):
            name = "%s/%d" % (site.name, k)
            full = classify_report(site.category, J, name=name)
            small = classify_report(site.category, J, name=name,
                                    include_objects=False)
            digest.update(canonical_json(full).encode())
            digest.update(canonical_json(small).encode())
            digest.update(_render_text(small).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("seed", sorted(REPORT_DIGESTS))
def test_report_bytes_are_pinned(seed):
    """The JSON and text bytes of the report, key order in the text form
    included, are those recorded for each corpus seed."""
    assert report_digest(seed) == REPORT_DIGESTS[seed]


def test_report_object_fields_match_the_object_checks():
    sizes = set()
    for site in corpus(seed=0, random_count=8):
        cat, J = site.category, site.topology
        objects = classify_report(cat, J)["objects"]
        for c, name in enumerate(cat.objects):
            rep = representable_sheaf(cat, J, c)
            assert objects[name]["atom"] == is_atom(cat, J, rep)
            assert objects[name]["indecomposable"] == is_indecomposable(cat, J, rep)
            sizes.add(min(len(subobjects(cat, J, rep)), 3))
    # degenerate (one subobject), two-element and larger lattices all occur
    assert sizes == {1, 2, 3}


# The private computations behind the memoised site facts.
FACTS = (
    ("finsite.category", "_is_cartesian"),
    ("finsite.category", "_has_right_ore"),
    ("finsite.category", "_is_cauchy_complete"),
    ("finsite.classify", "_j_irreducible_objects"),
    ("finsite.classify", "_is_rigid"),
    ("finsite.sheaf", "_is_subcanonical"),
    ("finsite.sheaf", "_representable_sizes"),
)


@pytest.mark.parametrize("jobs", [1, 4])
@pytest.mark.parametrize("name", ["arrow-j2", "vee-cover", "z2-atomic", "square-cover"])
def test_classify_report_decides_each_fact_once(monkeypatch, name, jobs):
    calls = Counter()
    for module, attr in FACTS:
        original = getattr(importlib.import_module(module), attr)

        def counted(*args, _original=original, _attr=attr):
            calls[_attr] += 1
            return _original(*args)

        monkeypatch.setattr("%s.%s" % (module, attr), counted)
    site = named_site(name)
    cat, J = site.category, site.topology
    if jobs == 1:
        first = classify_report(cat, J)
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            first = classify_report(cat, J, mapper=pool.map)
    once = {attr: 1 for _, attr in FACTS}
    # the sizes are one fact per object, which the values field and the
    # subcanonical check share
    once["_representable_sizes"] = len(cat.objects)
    assert calls == once
    # a second report on the same category reads every fact from the memo
    assert classify_report(cat, J) == first
    assert calls == once


def test_racing_threads_compute_a_fact_once(monkeypatch):
    calls = []
    original = importlib.import_module("finsite.category")._is_cartesian

    def counted(cat):
        calls.append(cat)
        time.sleep(0.001)  # hold the computation open while other threads ask
        return original(cat)

    monkeypatch.setattr("finsite.category._is_cartesian", counted)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        cats = [named_site("square-cover").category for _ in range(20)]
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(
                pool.map(lambda k: is_cartesian(cats[k % 20]), range(160), timeout=60)
            )
    finally:
        sys.setswitchinterval(interval)
    # equal categories, each with its own memo: one computation apiece
    assert sorted(map(id, calls)) == sorted(map(id, cats))
    assert all(r is results[k % 20] for k, r in enumerate(results))


def test_a_fact_in_progress_blocks_only_its_own_category():
    busy, other = named_site("square-cover").category, named_site("vee-cover").category
    with ThreadPoolExecutor(max_workers=1) as pool:
        with busy._fact_lock:  # as if this thread were computing a fact of busy
            report = pool.submit(is_cartesian, other).result(timeout=60)
            waiting = pool.submit(is_cartesian, busy)
            time.sleep(0.05)
            assert not waiting.done()
        assert waiting.result(timeout=60) == is_cartesian(busy)
    assert report == is_cartesian(other)
