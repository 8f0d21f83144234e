"""The report's derived topos verdicts against exact rules on the presheaf
site, under every topology of the 406 oracle categories.

Sh(C, J_D) ~ [E^op, Set] for the presheaf site E = E_D (proof in the
`objects.py` docstring), and each property below is invariant under
equivalence, so it is decided on the finite category E:

1. Presheaf topos: always true, by the equivalence.
2. Locally connected: always true.  A topos is locally connected when the
   constant functor Delta: Set -> [E^op, Set] has a left adjoint.  Here it
   is pi_0, which sends P to the set of connected components of its
   category of elements: a natural map P -> Delta(S) takes x and P(u)x to
   one point, so it is constant on each component, and every function on
   the components is natural.
3. Connected and locally connected: iff E is nonempty and connected.  By 2
   this is connectedness, Delta fully faithful, which for the right adjoint
   Delta means the counit pi_0(Delta S) -> S is a bijection for every set
   S.  The category of elements of Delta(S) is E x S with S discrete, so
   pi_0(Delta S) = pi_0(E) x S and the counit is the projection, bijective
   for every S exactly when pi_0(E) is one point.
4. Atomic: iff E is a groupoid.  If E is a groupoid, y = P(u)x gives
   x = P(u^-1)y, so the orbits {P(u)x : u into c} of the elements x of
   P(c) partition the elements of P, and a subpresheaf is a union of
   orbits.  Each orbit is then a subpresheaf with no subobjects but 0 and
   itself, an atom, and P is their coproduct: the topos is atomic.
   Conversely, in an atomic topos every object is a coproduct of atoms
   (Johnstone, Elephant C3.5).  A representable y(e) is indecomposable, its
   category of elements having the terminal object 1_e, so it is one atom.
   Its subobjects are the sieves on e, so the sieve an arrow u into e
   generates is maximal and holds 1_e = u.v.  The same holds for v,
   v.w = 1, and then u = u.v.w = w, so v.u = 1 and u is invertible.

The report writes a derived verdict True only where a representable check
proves it and null otherwise (`classify._derived`).  So every entry that
is not null must be True, and True by its exact rule, which
`test_true_verdicts_hold_by_the_exact_rules` asserts.  It also pins how
many null entries the exact rules read True: a report that proves more
moves those counts down.
"""

from collections import Counter

from finsite.classify import classify_report
from finsite.corpus import corpus
from finsite.sheaf import presheaf_site
from finsite.topology import enumerate_topologies

from test_minimal_oracles import oracle_categories
from test_subtoposes import is_groupoid


def is_nonempty_and_connected(cat):
    """One object reaches every other along arrows taken either way."""
    if not cat.objects:
        return False
    reached, todo = {0}, [0]
    while todo:
        c = todo.pop()
        for f in cat.into(c) + cat.outof(c):
            for d in (cat.dom[f], cat.cod[f]):
                if d not in reached:
                    reached.add(d)
                    todo.append(d)
    return len(reached) == len(cat.objects)


def exact_verdicts(cat, J):
    E = presheaf_site(cat, J)
    connected = is_nonempty_and_connected(E)
    return {
        "presheaf topos": True,
        "locally connected topos": True,
        "connected and locally connected topos": connected,
        "atomic topos": is_groupoid(E),
    }


def test_true_verdicts_hold_by_the_exact_rules():
    cats = []
    for cat in oracle_categories() + [
        site.category for seed in range(4) for site in corpus(seed, random_count=8)
    ]:
        if cat not in cats:
            cats.append(cat)
    counts = Counter()
    for cat in cats:
        for J in enumerate_topologies(cat).elements:
            exact = exact_verdicts(cat, J)
            for entry in classify_report(cat, J)["derived"]:
                prop, holds = entry["property"], entry["holds"]
                if prop not in exact:
                    continue
                if holds is not None:
                    assert holds is True and exact[prop], (prop, cat.objects, J.minimal)
                elif exact[prop]:
                    counts[prop] += 1
            counts["topologies"] += 1
    assert len(cats) == 406
    assert counts == {
        "topologies": 5722,
        "locally connected topos": 3633,
        "connected and locally connected topos": 2263,
        "atomic topos": 2109,
        "presheaf topos": 588,
    }
