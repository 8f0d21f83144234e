"""The topology lattice checked against the presheaf site and against double
negation, on the 406 oracle categories.

Count.  The subtoposes of Sh(C, J) are its local operators, which are the
topologies K of C that contain J (a standard fact); on a finite C this says
K.minimal[c] lies in J.minimal[c] for every c.  With J = J_D,
Sh(C, J_D) ~ [E_D^op, Set] (proof in the `objects.py` docstring), and the
subtoposes of a presheaf topos on E_D are the topologies of E_D.  An
equivalence of toposes carries subtoposes to subtoposes, so the number of
topologies of C finer than J equals the number of topologies of E_D.  The
two counts come from enumerations on different categories, so neither
checks itself.

Double negation.  J_nn covers a sieve S on c when every f: d -> c has some
g with f.g in S.  It is computed here from that definition, and:

1. It is a topology.  The maximal sieve holds each f = f.1.  Stability: if
   S covers c and h: e -> c, each f into e has h.f.g in S for some g, so
   f.g is in h^*S.  Transitivity: let S cover c and R be a sieve on c with
   k^*R covering for every k in S.  Given f into c, take g with f.g in S;
   (f.g)^*R covers dom g, so it holds 1.x for some x, and f.(g.x) is in R.
   So it is in the enumerated lattice.
2. Its covering sieves are nonempty (take f = 1_c), and it is the largest
   such topology.  If every K-covering sieve is nonempty and S K-covers c,
   then for f into c, f^*S K-covers dom f, so holds some g: f.g is in S,
   and S covers for J_nn.  In least sieves: J_nn.minimal[c] lies in
   K.minimal[c] for every K whose least sieves are all nonempty.
3. Its E_D is a groupoid.  Sh(C, J_nn) is Boolean, as the sheaves for the
   double-negation topology always are, so [E_D^op, Set] is.  In a Boolean
   presheaf topos on E, let u: a -> b and S the sieve u generates on b, a
   subobject of the representable at b.  Its complement T is a sieve on b
   disjoint from S whose union with S is every arrow into b.  T does not
   hold 1_b, or it would be every arrow into b and miss u; so 1_b is in S,
   1_b = u.v.  The same holds for v, v.w = 1, and then
   u = u.v.w = w, so v.u = 1 and u is invertible.
4. Under the right Ore condition it is the atomic topology.  Let S on c be
   nonempty, h in S, and f into c: right Ore gives f.g = h.k, which is in
   S, so S covers.  With 2, J_nn covers exactly the nonempty sieves.
"""

from functools import reduce
from operator import and_

from finsite.category import has_right_ore
from finsite.objects import presheaf_site
from finsite.sieves import sieve_masks_on
from finsite.topology import atomic_topology, enumerate_topologies

from test_minimal_oracles import oracle_categories


def assert_subtopos_counts(cat):
    """Assert, under each topology J of cat, that the topologies finer than J
    are as many as the topologies of its presheaf site.  Returns the number
    of topologies of cat."""
    lattice = enumerate_topologies(cat).elements
    for J in lattice:
        finer = sum(
            all(k & ~j == 0 for k, j in zip(K.minimal, J.minimal)) for K in lattice
        )
        site_topologies = enumerate_topologies(presheaf_site(cat, J)).elements
        assert finer == len(site_topologies), (cat.morphisms, J.minimal)
    return len(lattice)


def double_negation_covers(cat, c):
    """The sieves on c that J_nn covers: every f into c has some g with f.g
    in the sieve."""
    return [
        S
        for S in sieve_masks_on(cat, c)
        if all(
            any(S >> cat.compose(f, g) & 1 for g in cat.into(cat.dom[f]))
            for f in cat.into(c)
        )
    ]


def is_groupoid(cat):
    return all(
        any(
            cat.compose(g, f) == cat.identity[cat.dom[f]]
            and cat.compose(f, g) == cat.identity[cat.cod[f]]
            for g in cat.hom(cat.cod[f], cat.dom[f])
        )
        for f in range(len(cat.morphisms))
    )


def test_subtoposes_counted_on_the_presheaf_site():
    categories = oracle_categories()
    assert len(categories) == 406
    assert sum(assert_subtopos_counts(cat) for cat in categories) == 5722


def test_double_negation_topology():
    categories = oracle_categories()
    ore = 0
    for cat in categories:
        lattice = enumerate_topologies(cat).elements
        least = []
        for c in range(len(cat.objects)):
            covers = double_negation_covers(cat, c)
            M = reduce(and_, covers)
            assert covers == [S for S in sieve_masks_on(cat, c) if S & M == M]
            least.append(M)
        nn = [K for K in lattice if K.minimal == tuple(least)]
        assert len(nn) == 1, (cat.morphisms, least)
        assert all(least)
        assert all(
            all(m & ~k == 0 for m, k in zip(least, K.minimal))
            for K in lattice
            if all(K.minimal)
        )
        assert is_groupoid(presheaf_site(cat, nn[0])), (cat.morphisms, least)
        if has_right_ore(cat):
            ore += 1
            assert atomic_topology(cat).minimal == tuple(least)
    assert len(categories) == 406 and ore == 242
