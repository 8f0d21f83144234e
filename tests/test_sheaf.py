"""Matching families, the sheaf condition, sheafification, canonicity."""

import gc
import random
import weakref
from itertools import product

import pytest

from finsite.category import bits
from finsite.classify import classify_report
from finsite.corpus import arrow, idem, named_site, point, vee, z2
from finsite.errors import NotASheaf
from finsite.presheaf import (
    NatTransformation,
    Presheaf,
    compose_nat,
    presheaf_homs,
    random_presheaf,
    terminal_presheaf,
    yoneda,
)
from finsite.sheaf import (
    _plus,
    is_sheaf,
    is_subcanonical,
    matching_families,
    representable_sheaf,
    require_sheaf,
    sheafify,
)
from finsite.topology import (
    GrothendieckTopology,
    enumerate_topologies,
    trivial_topology,
)


def brute_matching(cat, P, c, mask):
    """Filter raw value tuples by the compatibility condition."""
    arrows = tuple(bits(mask))
    if not arrows:
        return [()]
    out = []
    for combo in product(*(range(P.sizes[cat.dom[f]]) for f in arrows)):
        val = dict(zip(arrows, combo))
        if all(
            val[cat.compose(f, g)] == P.apply(g, val[f])
            for f in arrows
            for g in cat.into(cat.dom[f])
        ):
            out.append(combo)
    return out


def test_matching_families_against_brute_force():
    rng = random.Random(50)
    site = named_site("square-cover")
    cat, J = site.category, site.topology
    for _ in range(4):
        P = random_presheaf(cat, rng)
        for c in range(len(cat.objects)):
            for mask in J.covering_masks(c):
                got = matching_families(cat, P, c, mask)
                assert list(got) == sorted(brute_matching(cat, P, c, mask))
                assert len(set(got)) == len(got)


def test_empty_sieve_has_one_empty_family():
    cat = arrow()
    P = yoneda(cat, 1)
    assert matching_families(cat, P, 0, 0) == ((),)
    # its amalgamations are every element of a presheaf at that object
    J = GrothendieckTopology(cat, (0, cat.maximal_sieve(1)))
    T = terminal_presheaf(cat)
    TT = Presheaf(cat, (2, 2), ((0, 1),) * 3)  # T + T
    assert is_sheaf(cat, J, T)
    assert is_sheaf(cat, J, TT).witness == (0, 0, (), 2)


def test_amalgamation_counts_detect_failure():
    site = named_site("arrow-j2")
    cat, J = site.category, site.topology
    P = site.presheaves["P"]
    f_sieve = 1 << cat.mor_index("f")
    fams = matching_families(cat, P, 1, f_sieve)
    assert fams == ((0,),)
    # both elements over b restrict to the same section, so two amalgamations
    verdict = is_sheaf(cat, J, P)
    assert not verdict
    assert verdict.witness == (1, f_sieve, (0,), 2)


def test_representable_fails_where_sections_are_missing():
    site = named_site("arrow-j2")
    cat, J = site.category, site.topology
    assert not is_sheaf(cat, J, yoneda(cat, cat.obj_index("a")))
    assert is_sheaf(cat, J, yoneda(cat, cat.obj_index("b")))


def test_everything_is_a_sheaf_for_the_trivial_topology():
    rng = random.Random(51)
    for build in (point, arrow, vee, z2, idem):
        cat = build()
        J = trivial_topology(cat)
        for c in range(len(cat.objects)):
            assert is_sheaf(cat, J, yoneda(cat, c))
        assert is_sheaf(cat, J, random_presheaf(cat, rng))


def test_sheafify_output_is_a_sheaf_and_collapses():
    site = named_site("arrow-j2")
    cat, J = site.category, site.topology
    P = site.presheaves["P"]
    F, unit = sheafify(cat, J, P)
    assert is_sheaf(cat, J, F)
    assert F.sizes == (1, 1)
    # the two elements over b collapse onto the one section
    assert unit.is_componentwise_surjective()
    assert not unit.is_componentwise_injective()


def test_unit_is_iso_on_sheaves():
    site = named_site("arrow-j2")
    cat, J = site.category, site.topology
    F = yoneda(cat, cat.obj_index("b"))
    G, unit = sheafify(cat, J, F)
    assert unit.is_componentwise_bijective()
    once, unit1 = _plus(cat, J, F)
    assert unit1.is_componentwise_bijective()


def test_sheafification_universal_property():
    rng = random.Random(52)
    for name in ("arrow-j2", "arrow-emptycover", "square-cover", "idem-e"):
        site = named_site(name)
        cat, J = site.category, site.topology
        for _ in range(3):
            P = random_presheaf(cat, rng, max_value=2)
            Psh, unit = sheafify(cat, J, P)
            F, _ = sheafify(cat, J, random_presheaf(cat, rng, max_value=2))
            lifted = {t.components for t in presheaf_homs(Psh, F)}
            direct = {t.components for t in presheaf_homs(P, F)}
            composed = {
                tuple(
                    tuple(t.components[c][unit.components[c][x]]
                          for x in range(P.sizes[c]))
                    for c in range(len(cat.objects))
                )
                for t in presheaf_homs(Psh, F)
            }
            assert len(lifted) == len(direct)
            assert composed == direct


def test_representable_sheaf_is_cached():
    site = named_site("arrow-j2")
    cat, J = site.category, site.topology
    one = representable_sheaf(cat, J, 0)
    two = representable_sheaf(cat, J, 0)
    assert one is two
    assert is_sheaf(cat, J, one)


def test_memos_are_released_with_their_category():
    site = named_site("square-cover")
    cat, J = site.category, site.topology
    representable_sheaf(cat, J, 0)
    site.subcategories["sides"].realize()
    classify_report(cat, J)
    assert ("rigid", J.minimal) in cat._facts and "cartesian" in cat._facts
    assert ("rep-sheaf", J.minimal, 0) in cat._facts
    assert ("retracts",) in cat._facts
    ref = weakref.ref(cat)
    del site, cat, J
    gc.collect()
    assert ref() is None


def test_subcanonical_verdicts():
    site = named_site("arrow-j2")
    bad = is_subcanonical(site.category, site.topology)
    assert not bad and bad.witness == "a"
    for name in ("arrow-trivial", "vee-cover", "z2-atomic"):
        site = named_site(name)
        assert is_subcanonical(site.category, site.topology)


def canonical_index(cat, lattice):
    """Lattice index of the join of the subcanonical topologies."""
    members = [
        i for i, J in enumerate(lattice.elements) if is_subcanonical(cat, J)
    ]
    best = members[0]
    for i in members[1:]:
        best = lattice.join(best, i)
    return best


def test_canonical_topology_on_the_arrow():
    cat = arrow()
    lattice = enumerate_topologies(cat)
    J = lattice.elements[canonical_index(cat, lattice)]
    a, b = cat.obj_index("a"), cat.obj_index("b")
    assert set(J.covering_masks(a)) == {0, cat.maximal_sieve(a)}
    assert set(J.covering_masks(b)) == {cat.maximal_sieve(b)}


def test_canonical_topology_is_largest_subcanonical():
    for build in (point, arrow, z2, idem, vee):
        cat = build()
        lattice = enumerate_topologies(cat)
        top = canonical_index(cat, lattice)
        assert is_subcanonical(cat, lattice.elements[top])
        for i, K in enumerate(lattice.elements):
            if is_subcanonical(cat, K):
                assert lattice.leq(i, top)
            else:
                assert i != top


def test_sheaf_coproduct_respects_empty_cover():
    site = named_site("arrow-emptycover")
    cat, J = site.category, site.topology
    T = terminal_presheaf(cat)
    assert is_sheaf(cat, J, T)
    S = Presheaf(cat, (2, 2), ((0, 1),) * 3)  # T + T
    in1, in2 = (NatTransformation(T, S, ((x,), (x,))) for x in (0, 1))
    R, unit = sheafify(cat, J, S)
    in1, in2 = compose_nat(unit, in1), compose_nat(unit, in2)
    assert is_sheaf(cat, J, R)
    # the empty sieve covers a, so sections over a are forced to a point
    assert R.sizes == (1, 2)
    assert in1.components[1] != in2.components[1]


def test_require_sheaf_raises_with_witness():
    site = named_site("arrow-j2")
    cat, J = site.category, site.topology
    with pytest.raises(NotASheaf):
        require_sheaf(cat, J, yoneda(cat, cat.obj_index("a")))
    require_sheaf(cat, J, yoneda(cat, cat.obj_index("b")))
