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

Order.  The correspondence is an order isomorphism, and it is explicit on
the idempotents.  A finer K is J_D' for a retract-closed D' inside D, and a
topology of E_D is read off its own set of idempotents.  D' goes to the
idempotents u: e_j -> e_j of E_D, idempotents of C themselves, that lie in
D'.  Each side is ordered by inclusion of these sets, the reverse of the
inclusion of least sieves.

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


def idempotents(cat):
    return [
        e
        for e in range(len(cat.morphisms))
        if cat.dom[e] == cat.cod[e] and cat.compose(e, e) == e
    ]


def idempotents_in(cat, minimal):
    """D = {e idempotent : e in M_dom(e)} of the topology with these least
    sieves, as a set of arrows."""
    return frozenset(e for e in idempotents(cat) if minimal[cat.dom[e]] >> e & 1)


def finer_or_equal(K, L):
    """K's least sieves lie in L's: K has every covering sieve of L."""
    return all(k & ~m == 0 for k, m in zip(K.minimal, L.minimal))


def assert_subtopos_counts(cat):
    """Assert, under each topology J = J_D of cat, that its subtoposes, the
    topologies K = J_D' finer than J, correspond to the topologies of its
    presheaf site E_D by an order isomorphism: D' goes to the idempotents
    u: e_j -> e_j of E_D with u in D'.  The map is a bijection onto the sets
    of idempotents of E_D's topologies, and it preserves and reflects the
    order: K is finer than K' exactly when D' lies in the other's, and then
    exactly when the image of K is finer than that of K'.  Returns the
    number of topologies of cat."""
    lattice = enumerate_topologies(cat).elements
    for J in lattice:
        finer = [K for K in lattice if finer_or_equal(K, J)]
        E = presheaf_site(cat, J)
        on_site = {
            idempotents_in(E, T.minimal): T for T in enumerate_topologies(E).elements
        }
        loops = idempotents(E)
        image = []
        for K in finer:
            D = idempotents_in(cat, K.minimal)
            image.append(frozenset(f for f in loops if E.morphisms[f][0] in D))
        assert len(set(image)) == len(finer), (cat.morphisms, J.minimal)
        assert set(image) == set(on_site), (cat.morphisms, J.minimal)
        for K1, D1 in zip(finer, image):
            for K2, D2 in zip(finer, image):
                assert (
                    finer_or_equal(K1, K2)
                    == (D1 <= D2)
                    == finer_or_equal(on_site[D1], on_site[D2])
                ), (cat.morphisms, J.minimal, K1.minimal, K2.minimal)
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
