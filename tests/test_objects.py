"""Subobject lattices and the object-level property zoo."""

import gc
import random
import sys
import weakref

import pytest

from finsite.corpus import arrow, corpus, discrete2, named_site, z2
from finsite.errors import NotASheaf, WrongTopology
from finsite.objects import (
    closed_hull,
    is_atom,
    is_indecomposable,
    is_indecomposable_projective,
    is_supercompact_object,
    rep_is_coherent,
    rep_is_irreducible,
    rep_is_regular,
    rep_is_supercompact,
    subobjects,
)
from finsite.presheaf import (
    Presheaf,
    compose_nat,
    presheaf_homs,
    random_presheaf,
    terminal_presheaf,
    yoneda,
)
from finsite.topology import trivial_topology


def test_subobject_counts():
    cat = arrow()
    J = trivial_topology(cat)
    yb = yoneda(cat, cat.obj_index("b"))
    lat = subobjects(cat, J, yb)
    # empty, the sections over a alone, everything
    assert len(lat) == 3
    assert lat.zero == (0, 0)
    assert lat.top == (1, 1)
    assert (1, 0) in lat.elements

    d2 = discrete2()
    lat2 = subobjects(d2, trivial_topology(d2), terminal_presheaf(d2))
    assert len(lat2) == 4


def test_subobjects_requires_a_sheaf():
    site = named_site("arrow-j2")
    cat = site.category
    with pytest.raises(NotASheaf):
        subobjects(cat, site.topology, yoneda(cat, cat.obj_index("a")))


def test_lattice_laws_hold():
    cat = arrow()
    J = trivial_topology(cat)
    lat = subobjects(cat, J, yoneda(cat, cat.obj_index("b")))
    for x in lat.elements:
        assert lat.leq(lat.zero, x) and lat.leq(x, lat.top)
        for y in lat.elements:
            m, j = lat.meet(x, y), lat.join(x, y)
            assert m in lat.elements and j in lat.elements
            assert lat.leq(m, x) and lat.leq(x, j)
    assert lat.index_of(lat.top) == len(lat) - 1


def test_closed_hull_depends_on_the_topology():
    site = named_site("arrow-j2")
    cat = site.category
    yb = yoneda(cat, cat.obj_index("b"))
    # under the cover the section over a already determines one over b
    assert closed_hull(cat, site.topology, yb, (1, 0)) == (1, 1)
    assert closed_hull(cat, trivial_topology(cat), yb, (1, 0)) == (1, 0)


def test_atoms_shrink_with_finer_covers():
    site = named_site("arrow-j2")
    cat = site.category
    yb = yoneda(cat, cat.obj_index("b"))
    assert is_atom(cat, site.topology, yb)
    assert not is_atom(cat, trivial_topology(cat), yb)


def test_group_action_representable_is_an_atom():
    site = named_site("z2-atomic")
    cat = site.category
    assert is_atom(cat, site.topology, yoneda(cat, 0))


def test_indecomposable_and_supercompact_split_on_coproducts():
    cat = arrow()
    J = trivial_topology(cat)
    T = terminal_presheaf(cat)
    TT = Presheaf(cat, (2, 2), ((0, 1),) * 3)  # T + T
    assert is_indecomposable(cat, J, T)
    assert is_supercompact_object(cat, J, T)
    assert not is_indecomposable(cat, J, TT)
    assert not is_supercompact_object(cat, J, TT)


def test_sieve_level_criteria_on_the_vee_cover():
    site = named_site("vee-cover")
    cat, J = site.category, site.topology
    x, y, z = (cat.obj_index(n) for n in "xyz")
    assert rep_is_irreducible(cat, J, x)
    assert rep_is_irreducible(cat, J, y)
    assert not rep_is_irreducible(cat, J, z)
    # the legs cover z but neither leg does alone
    assert not rep_is_supercompact(cat, J, z)
    assert rep_is_supercompact(cat, J, x)


def test_sieve_and_object_criteria_agree_on_subcanonical_sites():
    site = named_site("vee-cover")
    cat, J = site.category, site.topology
    for c in range(len(cat.objects)):
        assert rep_is_supercompact(cat, J, c) == is_supercompact_object(
            cat, J, yoneda(cat, c)
        )


def test_indecomposable_projectives():
    cat = z2()
    J = trivial_topology(cat)
    assert is_indecomposable_projective(cat, J, yoneda(cat, 0))
    # the one-point action has no map into the regular one
    assert not is_indecomposable_projective(cat, J, terminal_presheaf(cat))
    # on this group the atomic coverings coincide with the trivial ones,
    # so the guard must accept them
    site = named_site("z2-atomic")
    assert is_indecomposable_projective(site.category, site.topology,
                                        yoneda(site.category, 0))
    j2 = named_site("arrow-j2")
    with pytest.raises(WrongTopology):
        is_indecomposable_projective(j2.category, j2.topology,
                                     yoneda(j2.category, 0))


def retract_of_representable(cat, P):
    """Search every section P -> y(c) against every retraction y(c) -> P."""
    ident = tuple(tuple(range(n)) for n in P.sizes)
    for c in range(len(cat.objects)):
        rep = yoneda(cat, c)
        for s in presheaf_homs(P, rep):
            for r in presheaf_homs(rep, P):
                if compose_nat(r, s).components == ident:
                    return True
    return False


def test_indecomposable_projectives_match_the_retraction_search():
    rng = random.Random(70)
    verdicts = []
    for site in corpus(seed=0, random_count=4):
        cat = site.category
        J = trivial_topology(cat)
        samples = [yoneda(cat, c) for c in range(len(cat.objects))]
        samples += [random_presheaf(cat, rng) for _ in range(6)]
        samples.append(terminal_presheaf(cat))
        for P in samples:
            verdict = is_indecomposable_projective(cat, J, P)
            assert verdict == retract_of_representable(cat, P), site.name
            verdicts.append(verdict)
    assert True in verdicts and False in verdicts


def test_regularity_probes_and_their_flags():
    site = named_site("vee-cover")
    cat, J = site.category, site.topology
    z = cat.obj_index("z")
    reg = rep_is_regular(cat, J, z)
    assert not reg and reg.witness == ("supercompact", "z")
    assert reg.probe_restricted
    coh = rep_is_coherent(cat, J, z)
    assert coh and coh.degenerate

    j2 = named_site("arrow-j2")
    b = j2.category.obj_index("b")
    reg2 = rep_is_regular(j2.category, j2.topology, b)
    assert reg2 and not reg2.degenerate
    coh2 = rep_is_coherent(j2.category, j2.topology, b)
    assert coh2 and coh2.degenerate


def test_hull_memos_are_released_with_their_presheaf():
    site = named_site("square-cover")
    cat, J = site.category, site.topology
    A = terminal_presheaf(cat)
    subobjects(cat, J, A)
    assert A._orbits and J.minimal in A._hull_steps
    ref = weakref.ref(A)
    del A
    gc.collect()
    assert ref() is None


def test_the_object_predicates_check_the_sheaf_condition_once(monkeypatch):
    """The sheaf verdict is memoised on the presheaf per least sieves."""
    sheaf = sys.modules["finsite.sheaf"]
    checked = []

    def counting(category, J, P):
        checked.append(J.minimal)
        return original(category, J, P)

    original = sheaf._is_sheaf
    monkeypatch.setattr(sheaf, "_is_sheaf", counting)
    site = named_site("arrow-j2")
    cat, J = site.category, site.topology
    A = sheaf.representable_sheaf(cat, J, 1)
    for check in (is_atom, is_indecomposable, is_supercompact_object, subobjects):
        check(cat, J, A)
    assert checked == [J.minimal]
    trivial = trivial_topology(cat)
    assert is_atom(cat, trivial, A) == is_atom(cat, trivial, A)
    assert checked == [J.minimal, trivial.minimal]
    P = random_presheaf(cat, random.Random(0))
    assert sheaf.is_sheaf(cat, J, P) is sheaf.is_sheaf(cat, J, P)
    assert checked == [J.minimal, trivial.minimal, J.minimal]
