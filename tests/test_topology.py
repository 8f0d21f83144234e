"""Topology axioms, enumeration against a naive oracle, and the lattice."""

import tracemalloc
from itertools import combinations, product

import pytest

from finsite.category import bits
from finsite.corpus import (
    arrow,
    discrete2,
    idem,
    parallel_pair,
    point,
    poset_category,
    square,
    vee,
    z2,
)
from finsite.errors import (
    InvalidSubcategory,
    RightOreFails,
    SizeBoundExceeded,
    TopologyAxiomViolation,
)
from finsite.sieves import sieve_masks_on
from finsite.topology import (
    GrothendieckTopology,
    atomic_topology,
    count_candidate_assignments,
    enumerate_topologies,
    generated_topology,
    induced_topology,
    is_topology,
    maximal_topology,
    topology,
    trivial_topology,
)


# An independent re-statement of the axioms, quantifying literally.


def naive_pullback(cat, mask, h):
    out = 0
    for g in range(len(cat.morphisms)):
        if cat.cod[g] == cat.dom[h] and mask >> cat.compose(h, g) & 1:
            out |= 1 << g
    return out


def naive_is_topology(cat, covering):
    for c in range(len(cat.objects)):
        if cat.maximal_sieve(c) not in covering[c]:
            return False
    for c in range(len(cat.objects)):
        for S in covering[c]:
            for h in cat.into(c):
                if naive_pullback(cat, S, h) not in covering[cat.dom[h]]:
                    return False
    for c in range(len(cat.objects)):
        for S in sieve_masks_on(cat, c):
            if S in covering[c]:
                continue
            for R in covering[c]:
                if all(
                    naive_pullback(cat, S, g) in covering[cat.dom[g]]
                    for g in bits(R)
                ):
                    return False
    return True


def naive_enumerate(cat):
    options = []
    for c in range(len(cat.objects)):
        top = cat.maximal_sieve(c)
        rest = [m for m in sieve_masks_on(cat, c) if m != top]
        opts = []
        for k in range(len(rest) + 1):
            for chosen in combinations(rest, k):
                opts.append(tuple(sorted(chosen + (top,))))
        options.append(opts)
    found = set()
    for assignment in product(*options):
        covering = tuple(frozenset(masks) for masks in assignment)
        if naive_is_topology(cat, covering):
            found.add(tuple(tuple(sorted(masks)) for masks in covering))
    return found


@pytest.mark.parametrize(
    "build", [point, arrow, parallel_pair, vee, square, z2, idem, discrete2]
)
def test_enumeration_matches_naive_oracle(build):
    cat = build()
    lattice = enumerate_topologies(cat)
    got = {J.covering for J in lattice.elements}
    assert got == naive_enumerate(cat)


def test_topology_counts_on_small_categories():
    assert len(enumerate_topologies(point()).elements) == 2
    assert len(enumerate_topologies(arrow()).elements) == 4
    assert len(enumerate_topologies(z2()).elements) == 2
    assert len(enumerate_topologies(idem()).elements) == 3
    assert len(enumerate_topologies(vee()).elements) == 8


def test_every_enumerated_covering_is_up_closed():
    for build in (arrow, vee, idem):
        cat = build()
        for J in enumerate_topologies(cat).elements:
            for c in range(len(cat.objects)):
                members = set(J.covering[c])
                for S in members:
                    for T in sieve_masks_on(cat, c):
                        if T & S == S:
                            assert T in members


def test_trivial_and_maximal_constructors():
    cat = vee()
    bottom = trivial_topology(cat)
    top = maximal_topology(cat)
    for c in range(len(cat.objects)):
        assert bottom.covering[c] == (cat.maximal_sieve(c),)
        assert set(top.covering[c]) == set(sieve_masks_on(cat, c))
    assert bottom.leq(top)
    assert not top.leq(bottom)


def test_atomic_topology_needs_right_ore():
    with pytest.raises(RightOreFails):
        atomic_topology(vee())
    # on the two-element group the only sieves are empty and maximal
    assert atomic_topology(z2()).covering == trivial_topology(z2()).covering
    got = atomic_topology(idem())
    cat = idem()
    e = 1 << cat.mor_index("e")
    assert got.covering[0] == tuple(sorted((e, cat.maximal_sieve(0))))


def test_topology_constructor_validates():
    cat = arrow()
    with pytest.raises(TopologyAxiomViolation) as info:
        topology(cat, ((1 << 0,), ((1 << 2),)))
    assert info.value.axiom == "maximality"


def test_masks_that_are_not_sieves_are_refused():
    cat = z2()
    e, s = 1 << cat.mor_index("e"), 1 << cat.mor_index("s")
    # {e} and {s} are not closed under composition with s on the right
    with pytest.raises(TopologyAxiomViolation) as info:
        topology(cat, [[e, s, e | s]])
    assert info.value.axiom == "sieve" and info.value.witness == (0, e)
    assert is_topology(cat, ((s, e | s),)).axiom == "sieve"
    # an arrow that lands in another object
    cat = arrow()
    f = 1 << cat.mor_index("f")
    covering = ((f, cat.maximal_sieve(0)), (cat.maximal_sieve(1),))
    verdict = is_topology(cat, covering)
    assert not verdict and verdict.axiom == "sieve" and verdict.witness == (0, f)


def test_stability_violation_detected():
    cat = vee()
    z = cat.obj_index("z")
    u = 1 << cat.mor_index("x->z")
    covering = [
        (cat.maximal_sieve(c),) for c in range(len(cat.objects))
    ]
    covering[z] = tuple(sorted((u, cat.maximal_sieve(z))))
    verdict = is_topology(cat, tuple(covering))
    assert not verdict.ok
    assert verdict.axiom == "stability"


def test_transitivity_violation_detected():
    cat = vee()
    x, z = cat.obj_index("x"), cat.obj_index("z")
    u = 1 << cat.mor_index("x->z")
    v = 1 << cat.mor_index("y->z")
    covering = [
        (cat.maximal_sieve(c),) for c in range(len(cat.objects))
    ]
    covering[x] = tuple(sorted((0, cat.maximal_sieve(x))))
    covering[z] = tuple(sorted((u | v, cat.maximal_sieve(z))))
    verdict = is_topology(cat, tuple(covering))
    assert not verdict.ok
    assert verdict.axiom == "transitivity"
    # adding the sieve it demands repairs the assignment
    covering[z] = tuple(sorted((v, u | v, cat.maximal_sieve(z))))
    assert is_topology(cat, tuple(covering)).ok


def test_generated_topology_is_least_containing_the_seeds():
    cat = square()
    s = cat.obj_index("s")
    seeds = {s: [[cat.mor_index("q->s"), cat.mor_index("r->s")]]}
    J = generated_topology(cat, seeds)
    lattice = enumerate_topologies(cat)
    legs_mask = 0
    for f in (cat.mor_index("q->s"), cat.mor_index("r->s"), cat.mor_index("p->s")):
        legs_mask |= 1 << f
    holders = [
        i
        for i, K in enumerate(lattice.elements)
        if legs_mask in K.covering[s]
    ]
    low = holders[0]
    for i in holders[1:]:
        low = lattice.meet(low, i)
    assert lattice.elements[low].covering == J.covering


def test_generated_topology_from_nothing_is_trivial():
    for build in (arrow, vee, square):
        cat = build()
        assert generated_topology(cat, {}).covering == trivial_topology(cat).covering


def test_generated_topology_closes_under_stability():
    # covering the top of the square forces covers of q and r by pullback
    cat = square()
    s = cat.obj_index("s")
    J = generated_topology(cat, {s: [[cat.mor_index("p->s")]]})
    q = cat.obj_index("q")
    pq = 1 << cat.mor_index("p->q")
    assert pq in J.covering[q]


def test_leq_and_describe():
    cat = arrow()
    lattice = enumerate_topologies(cat)
    bottom = lattice.elements[lattice.bottom]
    top = lattice.elements[lattice.top]
    assert bottom.covering == trivial_topology(cat).covering
    assert top.covering == maximal_topology(cat).covering
    desc = trivial_topology(cat).describe()
    assert desc == {"a": (("id_a",),), "b": (("f", "id_b"),)}


def test_lattice_order_and_meet_join_laws():
    for build in (arrow, vee, idem):
        cat = build()
        lattice = enumerate_topologies(cat)
        n = len(lattice.elements)
        for i in range(n):
            assert lattice.leq(lattice.bottom, i)
            assert lattice.leq(i, lattice.top)
            for j in range(n):
                m = lattice.meet(i, j)
                assert lattice.leq(m, i) and lattice.leq(m, j)
                for k in range(n):
                    if lattice.leq(k, i) and lattice.leq(k, j):
                        assert lattice.leq(k, m)
                jn = lattice.join(i, j)
                assert lattice.leq(i, jn) and lattice.leq(j, jn)
                for k in range(n):
                    if lattice.leq(i, k) and lattice.leq(j, k):
                        assert lattice.leq(jn, k)


def test_meet_is_objectwise_intersection():
    for build in (arrow, vee):
        cat = build()
        lattice = enumerate_topologies(cat)
        n = len(lattice.elements)
        for i in range(n):
            for j in range(n):
                m = lattice.elements[lattice.meet(i, j)]
                want = tuple(
                    tuple(sorted(set(a) & set(b)))
                    for a, b in zip(
                        lattice.elements[i].covering, lattice.elements[j].covering
                    )
                )
                assert m.covering == want


def test_heyting_adjunction_holds_exhaustively():
    for build in (arrow, vee, idem):
        cat = build()
        lattice = enumerate_topologies(cat)
        n = len(lattice.elements)
        for a in range(n):
            for b in range(n):
                impl = lattice.implication(a, b)
                for x in range(n):
                    assert lattice.leq(lattice.meet(x, a), b) == lattice.leq(
                        x, impl
                    )


def test_index_of_roundtrips():
    lattice = enumerate_topologies(arrow())
    for i, J in enumerate(lattice.elements):
        assert lattice.index_of(J) == i
    rebuilt = GrothendieckTopology(arrow(), lattice.elements[0].minimal)
    assert lattice.index_of(rebuilt) == 0


def test_candidate_bound_enforced():
    # the square's 16 topologies are the subsets of its four objects (a
    # poset's only idempotents are its identities, none a retract of
    # another), so the search is a full binary tree of 2^5 - 1 nodes; the
    # bound counts them
    cat = square()
    assert count_candidate_assignments(cat) == 1024
    needed = 31
    with pytest.raises(SizeBoundExceeded) as info:
        enumerate_topologies(cat, max_assignments=needed - 1)
    assert info.value.required == needed
    assert info.value.bound == needed - 1
    assert len(enumerate_topologies(cat, max_assignments=needed).elements) > 0


def chain(n):
    names = ["c%d" % i for i in range(n)]
    return poset_category(names, [(a, b) for a, b in zip(names, names[1:])])


def boolean_lattice(k):
    names = [format(i, "0%db" % k) for i in range(1 << k)]
    return poset_category(
        names,
        [
            (names[i], names[i | 1 << b])
            for i in range(1 << k)
            for b in range(k)
            if not i >> b & 1
        ],
    )


@pytest.mark.parametrize(
    "build,count",
    [
        (lambda: chain(6), 64),
        (lambda: chain(7), 128),
        (lambda: chain(8), 256),
        (lambda: boolean_lattice(3), 256),
    ],
    ids=["chain6", "chain7", "chain8", "2^3"],
)
def test_enumeration_past_the_covering_set_count(build, count):
    # each has more than 2^16 covering-set assignments, yet the search tries
    # few enough sieves to finish under the default bound
    cat = build()
    assert count_candidate_assignments(cat) > 1 << 16
    assert len(enumerate_topologies(cat)) == count


def test_default_bound_refuses_the_boolean_lattice_2_4():
    # 16 objects, so 65,536 topologies and a search tree of 2^17 - 1 nodes
    with pytest.raises(SizeBoundExceeded) as info:
        enumerate_topologies(boolean_lattice(4))
    assert info.value.required == info.value.bound + 1 == (1 << 16) + 1


def test_search_depth_is_not_bounded_by_recursion():
    # 1500 levels deep under the default bound, holding one mask per
    # down-set found until the bound refuses the search
    cat = poset_category(["x%d" % i for i in range(1500)], [])
    tracemalloc.start()
    try:
        with pytest.raises(SizeBoundExceeded) as info:
            enumerate_topologies(cat)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert info.value.required == (1 << 16) + 1
    assert peak < 32 << 20


def test_candidate_bound_from_environment(monkeypatch):
    monkeypatch.setenv("FINSITE_MAX_ASSIGNMENTS", "8")
    with pytest.raises(SizeBoundExceeded):
        enumerate_topologies(square())
    monkeypatch.setenv("FINSITE_MAX_ASSIGNMENTS", "2048")
    assert len(enumerate_topologies(square()).elements) > 0


def test_induced_topology_on_dense_legs_is_trivial():
    from finsite.corpus import named_site

    site = named_site("vee-cover")
    sub = site.subcategories["legs"]
    J_D = induced_topology(site.category, site.topology, sub)
    realized = sub.realize()
    assert J_D.covering == trivial_topology(realized.category).covering


def test_induced_topology_rejects_unstable_restriction():
    cat = square()
    s = cat.obj_index("s")
    J = generated_topology(cat, {s: [[cat.mor_index("p->s")]]})
    from finsite.category import full_subcategory

    upper = full_subcategory(cat, ("q", "r", "s"))
    with pytest.raises(InvalidSubcategory):
        induced_topology(cat, J, upper)


def test_induced_topology_on_whole_category_is_same():
    from finsite.category import whole_subcategory
    from finsite.corpus import named_site

    site = named_site("arrow-j2")
    J_D = induced_topology(
        site.category, site.topology, whole_subcategory(site.category)
    )
    assert J_D.covering == site.topology.covering
