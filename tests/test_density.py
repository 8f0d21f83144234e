"""Density of subcategories and the family of topologies witnessing it."""

from finsite.category import full_subcategory, whole_subcategory
from finsite.corpus import arrow, corpus, named_site, vee
from finsite.density import DensityFailure, is_dense, topologies_with_dense
from finsite.topology import maximal_topology


def test_legs_are_dense_for_the_cover_but_not_trivially():
    site = named_site("vee-cover")
    cat = site.category
    legs = site.subcategories["legs"]
    assert is_dense(cat, site.topology, legs)
    plain = named_site("vee-trivial")
    verdict = is_dense(plain.category, plain.topology,
                       full_subcategory(plain.category, ["x", "y"]))
    assert not verdict
    assert any(f.condition == "i" and f.witness == "z"
               for f in verdict.failures)


def test_non_full_subcategory_fails_through_missing_morphism():
    site = named_site("idem-e")
    verdict = is_dense(site.category, site.topology,
                       site.subcategories["strict"])
    assert verdict.failures == (DensityFailure("ii", "morphism", "e"),)


def test_corner_misses_the_square_cover():
    site = named_site("square-cover")
    verdict = is_dense(site.category, site.topology,
                       site.subcategories["corner"])
    assert not verdict
    assert any(f.condition == "i" and f.witness == "q"
               for f in verdict.failures)
    sides = is_dense(site.category, site.topology,
                     site.subcategories["sides"])
    assert not sides
    assert any(f.condition == "i" and f.witness == "p"
               for f in sides.failures)
    assert is_dense(site.category, site.topology,
                    full_subcategory(site.category, ["p", "q", "r"]))


def test_isolated_object_is_dense_when_empty_sieves_cover():
    site = named_site("discrete2-maximal")
    assert is_dense(site.category, site.topology,
                    site.subcategories["first"])


def test_whole_category_is_always_dense():
    for site in corpus(seed=7, random_count=2):
        if site.topology is None:
            continue
        sub = whole_subcategory(site.category)
        assert is_dense(site.category, site.topology, sub)


def test_maximal_topology_makes_everything_dense():
    # the empty sieve covers everywhere, and it is generated by no arrows,
    # so any subcategory qualifies; the dense family is never empty
    for site in corpus(seed=8, random_count=2):
        cat = site.category
        J = maximal_topology(cat)
        for sub in site.subcategories.values():
            assert is_dense(cat, J, sub)
        assert is_dense(cat, J, full_subcategory(cat, [cat.objects[0]]))


def test_dense_family_on_the_vee_legs():
    cat = vee()
    sub = full_subcategory(cat, ["x", "y"])
    family = topologies_with_dense(cat, sub)
    assert family.member_indices == (0, 2, 4, 6)
    assert family.minimum_index == 6
    legs_site = named_site("vee-cover")
    assert family.minimum.covering == legs_site.topology.covering


def test_dense_families_on_arrow_endpoints():
    cat = arrow()

    left = topologies_with_dense(cat, full_subcategory(cat, ["a"]))
    assert left.member_indices == (0, 2)
    j2 = named_site("arrow-j2").topology
    assert left.minimum.covering == j2.covering

    right = topologies_with_dense(cat, full_subcategory(cat, ["b"]))
    assert right.member_indices == (0, 1)
    empties = named_site("arrow-emptycover").topology
    assert right.minimum.covering == empties.covering


def test_family_members_accessor_and_up_closure():
    cat = arrow()
    sub = full_subcategory(cat, ["a"])
    family = topologies_with_dense(cat, sub)
    lattice = family.lattice
    members = family.members()
    assert len(members) == len(family.member_indices)
    got = set(family.member_indices)
    for i in got:
        for j in range(len(lattice.elements)):
            if lattice.leq(i, j):
                assert j in got
        assert lattice.meet(i, family.minimum_index) == family.minimum_index


def test_family_is_meet_closed():
    cat = vee()
    sub = full_subcategory(cat, ["x", "y"])
    family = topologies_with_dense(cat, sub)
    got = set(family.member_indices)
    for i in got:
        for j in got:
            assert family.lattice.meet(i, j) in got

