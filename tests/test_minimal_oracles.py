"""Reference implementations that scan whole covering sets, compared with the
library's least-covering-sieve (M_c) paths.

Each oracle decides its question the long way: over every covering sieve,
or for the plus construction over every (covering sieve, matching family)
pair with the colimit identification done by pairwise comparison.  They run
on every topology of every corpus category with at most 12 morphisms, plus
the chain 0 < 1 < 2 < 3, on seeded random presheaves and subcategories.
"""

import random

import pytest

from finsite.category import bits, subcategory_from_masks
from finsite.corpus import corpus, poset_category
from finsite.density import is_dense
from finsite.objects import closed_hull, rep_is_irreducible, rep_is_supercompact
from finsite.presheaf import random_presheaf
from finsite.sheaf import _plus, amalgamations, is_sheaf, matching_families
from finsite.sieves import generate_mask, pullback_mask
from finsite.topology import enumerate_topologies


def _categories():
    out = []
    for site in corpus(seed=0, random_count=4):
        cat = site.category
        if len(cat.morphisms) <= 12 and cat not in out:
            out.append(cat)
    out.append(
        poset_category(("0", "1", "2", "3"), (("0", "1"), ("1", "2"), ("2", "3")))
    )
    return out


CATEGORIES = _categories()
_LATTICES = {}


def lattice(cat):
    if cat not in _LATTICES:
        _LATTICES[cat] = enumerate_topologies(cat)
    return _LATTICES[cat]


def random_subcategory(cat, rng):
    """Random, not necessarily full, subcategory: closed under composition."""
    objects = 0
    for c in range(len(cat.objects)):
        if rng.random() < 0.6:
            objects |= 1 << c
    morphisms = 0
    for f in range(len(cat.morphisms)):
        if objects >> cat.dom[f] & 1 and objects >> cat.cod[f] & 1:
            if cat.is_identity(f) or rng.random() < 0.5:
                morphisms |= 1 << f
    grown = True
    while grown:
        grown = False
        for g in bits(morphisms):
            for f in bits(morphisms):
                if cat.cod[f] == cat.dom[g]:
                    h = cat.compose(g, f)
                    if not morphisms >> h & 1:
                        morphisms |= 1 << h
                        grown = True
    return subcategory_from_masks(cat, objects, morphisms)


def cases():
    """(category, topology, seeded rng) for every topology of every category."""
    for k, cat in enumerate(CATEGORIES):
        for i, J in enumerate(lattice(cat).elements):
            yield cat, J, random.Random(1000 * k + i)


# ---------------------------------------------------------------------------
# Oracles over whole covering sets.


def scan_is_sheaf(cat, J, P):
    for c in range(len(cat.objects)):
        for S in J.covering_masks(c):
            for family in matching_families(cat, P, c, S):
                if len(amalgamations(cat, P, c, S, family)) != 1:
                    return False
    return True


def pairs_plus(cat, J, P):
    """Plus construction as the colimit over all (covering sieve, family)
    pairs: two pairs are identified when they agree on a covering sieve
    inside both.  Returns (sizes, actions, unit components)."""
    n_obj = len(cat.objects)
    class_of = []
    reps = []
    for c in range(n_obj):
        covers = J.covering_masks(c)
        pairs = [
            (S, fam) for S in covers for fam in matching_families(cat, P, c, S)
        ]

        def restrict(pair, T):
            S, fam = pair
            at = {f: i for i, f in enumerate(bits(S))}
            return tuple(fam[at[f]] for f in bits(T))

        def same(p, q):
            inter = p[0] & q[0]
            return any(
                not T & ~inter and restrict(p, T) == restrict(q, T)
                for T in covers
            )

        classes = []
        for p in pairs:
            for members in classes:
                if same(members[0], p):
                    members.append(p)
                    break
            else:
                classes.append([p])
        classes.sort(key=min)
        class_of.append({p: k for k, members in enumerate(classes) for p in members})
        reps.append([min(members) for members in classes])

    actions = []
    for h in range(len(cat.morphisms)):
        d, c = cat.dom[h], cat.cod[h]
        tab = []
        for S, fam in reps[c]:
            at = {f: i for i, f in enumerate(bits(S))}
            Sd = pullback_mask(cat, S, h)
            tab.append(
                class_of[d][(Sd, tuple(fam[at[cat.compose(h, g)]] for g in bits(Sd)))]
            )
        actions.append(tuple(tab))
    unit = []
    for c in range(n_obj):
        top = cat.maximal_sieve(c)
        unit.append(
            tuple(
                class_of[c][(top, tuple(P.apply(f, x) for f in bits(top)))]
                for x in range(P.sizes[c])
            )
        )
    return tuple(len(r) for r in reps), tuple(actions), tuple(unit)


def scan_density_failures(cat, J, sub):
    def qualifies(c, keep):
        for R in J.covering_masks(c):
            if generate_mask(cat, [g for g in bits(R) if keep(g)]) == R:
                return True
        return False

    out = []
    for c in range(len(cat.objects)):
        if not qualifies(c, lambda g: sub.has_object(cat.dom[g])):
            out.append(("i", cat.objects[c]))
    for f in range(len(cat.morphisms)):
        if sub.has_object(cat.cod[f]) and not qualifies(
            cat.dom[f], lambda g: sub.has_morphism(cat.compose(f, g))
        ):
            out.append(("ii", cat.morphisms[f]))
    return out


def scan_rep_is_supercompact(cat, J, c):
    return all(
        any(J.covers(c, cat.principal_sieve(f)) for f in bits(S))
        for S in J.covering_masks(c)
    )


def scan_closed_hull(cat, J, A, masks):
    masks = list(masks)
    while True:
        grown = False
        for f in range(len(cat.morphisms)):
            for x in bits(masks[cat.cod[f]]):
                y = A.apply(f, x)
                if not masks[cat.dom[f]] >> y & 1:
                    masks[cat.dom[f]] |= 1 << y
                    grown = True
        for c in range(len(cat.objects)):
            for x in range(A.sizes[c]):
                if masks[c] >> x & 1:
                    continue
                if any(
                    all(masks[cat.dom[f]] >> A.apply(f, x) & 1 for f in bits(S))
                    for S in J.covering_masks(c)
                ):
                    masks[c] |= 1 << x
                    grown = True
        if not grown:
            return tuple(masks)


# ---------------------------------------------------------------------------
# Comparisons.


def test_corpus_cases_are_covered():
    assert len(CATEGORIES) >= 10
    assert sum(len(lattice(cat)) for cat in CATEGORIES) >= 60


@pytest.mark.parametrize("cat", CATEGORIES, ids=str)
def test_minimal_sieve_is_the_least_covering_sieve(cat):
    for J in lattice(cat).elements:
        for c, M in enumerate(J.minimal):
            assert J.covers(c, M)
            assert all(not M & ~S for S in J.covering_masks(c))
            assert rep_is_irreducible(cat, J, c) == (
                J.covering_masks(c) == (cat.maximal_sieve(c),)
            )
            assert rep_is_supercompact(cat, J, c) == scan_rep_is_supercompact(
                cat, J, c
            )


@pytest.mark.parametrize("cat", CATEGORIES, ids=str)
def test_lattice_order_and_meet_match_covering_sets(cat):
    lat = lattice(cat)
    sets = [[set(m) for m in J.covering] for J in lat.elements]
    for i in range(len(lat)):
        for j in range(len(lat)):
            assert lat.leq(i, j) == all(a <= b for a, b in zip(sets[i], sets[j]))
            meet = lat.elements[lat.meet(i, j)]
            assert [set(m) for m in meet.covering] == [
                a & b for a, b in zip(sets[i], sets[j])
            ]


def test_sheaf_condition_and_plus_match_the_pair_colimit():
    for cat, J, rng in cases():
        for _ in range(6):
            P = random_presheaf(cat, rng)
            assert bool(is_sheaf(cat, J, P)) == scan_is_sheaf(cat, J, P)
            plus, unit = _plus(cat, J, P)
            assert (plus.sizes, plus.actions, unit.components) == pairs_plus(
                cat, J, P
            )


def test_density_matches_the_covering_scan():
    for cat, J, rng in cases():
        for _ in range(6):
            sub = random_subcategory(cat, rng)
            got = [(v.condition, v.witness) for v in is_dense(cat, J, sub).failures]
            assert got == scan_density_failures(cat, J, sub)


def test_closed_hull_matches_the_covering_scan():
    for cat, J, rng in cases():
        for _ in range(2):
            A = random_presheaf(cat, rng)
            for _ in range(4):
                seed = tuple(rng.randrange(1 << n) for n in A.sizes)
                assert closed_hull(cat, J, A, seed) == scan_closed_hull(
                    cat, J, A, seed
                )
