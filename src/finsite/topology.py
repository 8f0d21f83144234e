"""Grothendieck topologies on a finite category, and the lattice of all of them.

On a finite category the covering sieves on c are closed upward and under
intersection, so they are exactly the sieves containing one least covering
sieve M_c (Mac Lane-Moerdijk, Sheaves in Geometry and Logic, III).  A
topology is stored as these minimal sieves, one mask per object; the sorted
tuple of covering sieve masks of an object is derived from its M_c when
asked for, and is what reports and site files list.

A category and its Karoubi envelope have the same presheaf topos, so the
topologies are read off the idempotents.  An idempotent e' is a retract of e,
e' <= e, when e' = r.e.s for some arrows r and s, that is when e' lies in the
sieve generated by the arrows g.e.  For a set D of idempotents closed under
retracts, J_D is the topology whose least covering sieve M_c(D) is generated
by the arrows g.e with e in D and g: dom e -> c.

Theorem.  D |-> J_D is a bijection from the retract-closed sets of
idempotents onto the topologies, with inverse J |-> {e : e in M_dom(e)}, and
J_D <= J_D' exactly when D contains D'.

Proof.  Sieves M_c are the least covering sieves of a topology exactly when
they are stable (h.M_d lies in M_c for h: d -> c) and transitive (every h in
M_c is f.k with f in M_c and k in M_dom(f)).  Given such M, let D be the
idempotents e with e in M_dom(e).  D is retract-closed: if e is in M_a and
e' = r.e.s, stability puts r.e, hence r.e.s, in M_dom(e').  M_c(D) lies in
M_c by stability.  Conversely, applying transitivity n times writes any h in
M_c as f1...fn.k with each fi in M of its codomain.  Take n larger than the
number of arrows: two prefixes f1...fi and f1...fj (i < j) are equal, so
P = P.u for P = f1...fi and the endomorphism u = f(i+1)...fj, which lies in
M_dom(u) because f(i+1) does.  The idempotent power e of u is in M_dom(u)
too, so e is in D and h = P.e.x lies in M_c(D).  Hence M = M(D).  Every
retract-closed D gives stable and transitive M(D) (g.e = (g.e).e with e in
M_dom(e)), and e in M_dom(e)(D) means e = g.d.x with d in D, a retract of d,
so D is read back from J_D.  Inclusion of the M(D) reverses inclusion of D.

So the topologies are the down-sets of the retract classes (mutual
retracts, such as the two constant self-maps of a two-point set, form one
class); M_c(D) is the OR of per-class sieves computed once per category.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property, reduce
from operator import and_, or_

from .category import bits, has_right_ore
from .errors import (
    CodomainMismatch,
    InvalidSubcategory,
    ParseError,
    RightOreFails,
    SizeBoundExceeded,
    TopologyAxiomViolation,
)
from .sieves import generate_mask, is_right_closed, pullback_mask, sieve_masks_on

DEFAULT_MAX_ASSIGNMENTS = 1 << 16
ENV_MAX_ASSIGNMENTS = "FINSITE_MAX_ASSIGNMENTS"


@dataclass(frozen=True)
class GrothendieckTopology:
    category: object
    minimal: tuple  # per object index, the mask of the least covering sieve

    @cached_property
    def covering(self):
        """Per object index, the ascending masks of the covering sieves."""
        return tuple(map(self.covering_masks, range(len(self.minimal))))

    def covers(self, c, mask):
        return not self.minimal[c] & ~mask

    def covering_masks(self, c):
        """The ascending masks of the sieves on c that contain M_c."""
        M = self.minimal[c]
        return tuple(S for S in sieve_masks_on(self.category, c) if not M & ~S)

    def leq(self, other):
        return not any(b & ~a for a, b in zip(self.minimal, other.minimal))

    def describe(self):
        """Name-level view: object name -> tuple of sorted arrow-name tuples,
        one per covering sieve.  The covering sieves on c depend only on M_c,
        so each (c, M_c) is named once per category and its tuple is shared
        by every topology with that least sieve."""
        cat = self.category
        out = {}
        for c, M in enumerate(self.minimal):
            names = cat._described.get((c, M))
            if names is None:
                names = cat._described[(c, M)] = tuple(
                    tuple(sorted(cat.morphisms[f] for f in bits(S)))
                    for S in self.covering_masks(c)
                )
            out[cat.objects[c]] = names
        return out


@dataclass(frozen=True)
class TopologyVerdict:
    ok: bool
    axiom: str = ""
    witness: tuple = ()

    def __bool__(self):
        return self.ok


def is_topology(category, covering):
    """Check the three axioms; report the first violated one with a witness.

    covering: per object, an iterable of sieve masks.  A mask that is not a
    sieve on its object (an arrow into another object, or not closed under
    composition on the right) fails first, as axiom "sieve".  The remaining
    axioms are decided on the least sieves M (see `_decides_on_least`); only
    an assignment that fails there is scanned axiom by axiom, which names
    the first violation as the axioms state it.
    """
    cov = [sorted(set(masks)) for masks in covering]
    n_obj = len(category.objects)
    if len(cov) != n_obj:
        return TopologyVerdict(False, "shape", (len(cov), n_obj))
    sets = [set(masks) for masks in cov]
    for c in range(n_obj):
        for S in cov[c]:
            if S & ~category.maximal_sieve(c) or not is_right_closed(category, S):
                return TopologyVerdict(False, "sieve", (c, S))
    if _decides_on_least(category, sets):
        return TopologyVerdict(True)
    return _scan_axioms(category, cov, sets)


def _decides_on_least(category, sets):
    """Is the assignment of sieve sets a topology?  With M_c the
    intersection of the sieves listed at c, it is exactly when each listed
    set holds M_c and is closed under S |-> S | principal(f) for f into c,
    so that it is the set of sieves containing M_c, and M is stable and
    transitive (the theorem above): M_d lies in h^*M_c for h: d -> c, and
    M_c is the set of f.k with f in M_c and k in M_dom(f)."""
    M = _least(category, sets)
    principal = category.principal_sieve
    for c, listed in enumerate(sets):
        if M[c] not in listed:
            return False
        into = category.into(c)
        for S in listed:
            for f in into:
                if not S >> f & 1 and S | principal(f) not in listed:
                    return False
    maximal = [category.maximal_sieve(c) for c in range(len(M))]
    dom, cod = category.dom, category.cod
    for h in range(len(category.morphisms)):
        c = cod[h]
        # a maximal M_c pulls back to a maximal sieve, which holds M_dom(h)
        if M[c] != maximal[c] and M[dom[h]] & ~pullback_mask(category, M[c], h):
            return False
    for c, M_c in enumerate(M):
        reached = 0
        for f in bits(M_c):
            d = dom[f]
            if M[d] == maximal[d]:  # f.k for every k into d
                reached |= principal(f)
            else:
                for k in bits(M[d]):
                    reached |= 1 << category.compose(f, k)
        if reached != M_c:
            return False
    return True


def _scan_axioms(category, cov, sets):
    """The first violated axiom of an assignment of sieves, scanning every
    covering sieve, and for transitivity every sieve."""
    n_obj = len(category.objects)
    for c in range(n_obj):
        if category.maximal_sieve(c) not in sets[c]:
            return TopologyVerdict(False, "maximality", (c,))
    for c in range(n_obj):
        for S in cov[c]:
            for h in category.into(c):
                if pullback_mask(category, S, h) not in sets[category.dom[h]]:
                    return TopologyVerdict(False, "stability", (c, S, h))
    for c in range(n_obj):
        all_sieves = sieve_masks_on(category, c)
        for R in cov[c]:
            for S in all_sieves:
                if S in sets[c]:
                    continue
                if all(
                    pullback_mask(category, S, g) in sets[category.dom[g]]
                    for g in bits(R)
                ):
                    return TopologyVerdict(False, "transitivity", (c, R, S))
    return TopologyVerdict(True)


def _least(category, covering):
    """Per object, the intersection of the given covering masks."""
    return tuple(
        reduce(and_, masks, category.maximal_sieve(c))
        for c, masks in enumerate(covering)
    )


@dataclass(frozen=True)
class _RetractClasses:
    """The idempotents of a category up to mutual retracts, retracts first.

    least: per class, (dom e, e) for its least idempotent e.
    down: per class, the mask over classes of the classes at or below it.
    sieves: per class, (c, the sieve on c generated by the arrows g.e with
        g: dom e -> c) for each object c that dom e has an arrow to.
    """

    n_obj: int
    least: tuple
    down: tuple
    sieves: tuple

    def minimal(self, D):
        """Least covering sieves M_c(D) of J_D; D is a mask over classes."""
        M = [0] * self.n_obj
        for k in bits(D):
            for c, mask in self.sieves[k]:
                M[c] |= mask
        return tuple(M)

    def downset(self, minimal):
        """The mask over classes of D = {e : e in M_dom(e)}."""
        return sum(
            1 << k for k, (a, e) in enumerate(self.least) if minimal[a] >> e & 1
        )


def _retract_classes(category):
    """The retract classes of the category's idempotents, memoised on it."""
    if category._retracts is not None:
        return category._retracts
    cat = category
    idempotents = [f for f in range(len(cat.morphisms)) if cat.table.get((f, f)) == f]
    on = {}
    for e in idempotents:
        on.setdefault(cat.dom[e], []).append(e)
    sieves, classes = {}, {}
    for e in idempotents:
        generated = {}
        for g in cat.outof(cat.dom[e]):
            c = cat.cod[g]
            generated[c] = generated.get(c, 0) | cat.principal_sieve(cat.compose(g, e))
        sieves[e] = tuple(sorted(generated.items()))
        # the retracts of e: the same for a mutual retract, fewer for a strict one
        below = frozenset(
            x for c, mask in generated.items() for x in on.get(c, ()) if mask >> x & 1
        )
        classes.setdefault(below, []).append(e)
    order = sorted(classes.items(), key=lambda item: (len(item[0]), item[1][0]))
    position = {e: k for k, (_, members) in enumerate(order) for e in members}
    category._retracts = _RetractClasses(
        len(cat.objects),
        tuple((cat.dom[members[0]], members[0]) for _, members in order),
        tuple(reduce(or_, (1 << position[x] for x in below), 0) for below, _ in order),
        tuple(sieves[members[0]] for _, members in order),
    )
    return category._retracts


def topology(category, covering):
    cov = tuple(tuple(masks) for masks in covering)
    verdict = is_topology(category, cov)
    if not verdict:
        raise TopologyAxiomViolation(
            "covering assignment violates %s at %r"
            % (verdict.axiom, verdict.witness),
            verdict.axiom,
            verdict.witness,
        )
    return GrothendieckTopology(category, _least(category, cov))


def trivial_topology(category):
    """Only maximal sieves cover."""
    return GrothendieckTopology(
        category,
        tuple(category.maximal_sieve(c) for c in range(len(category.objects))),
    )


def maximal_topology(category):
    """Every sieve covers."""
    return GrothendieckTopology(category, (0,) * len(category.objects))


def atomic_topology(category):
    """All nonempty sieves cover; requires the right Ore condition.

    Under it the nonempty sieves on c are closed under intersection, so the
    least covering sieve is the intersection of all of them.  Each contains
    the principal sieve of any of its arrows, so that is the intersection of
    the principal sieves on c.
    """
    ore = has_right_ore(category)
    if not ore:
        raise RightOreFails(
            "atomic topology needs the right Ore condition; cospan %r fails"
            % (ore.counterexample,),
            ore.counterexample,
        )
    return GrothendieckTopology(
        category,
        tuple(
            reduce(and_, map(category.principal_sieve, category.into(c)))
            for c in range(len(category.objects))
        ),
    )


def generated_topology(category, families):
    """Smallest topology whose covering sets contain the generated sieves.

    families: mapping object index -> iterable of arrow-index families.
    It is J_D for the largest retract-closed D with M_c(D) inside every
    generated sieve R on c: the idempotents e with g.e in R for every such R
    and every g: dom e -> c.
    """
    allowed = [category.maximal_sieve(c) for c in range(len(category.objects))]
    for c, fams in families.items():
        for fam in fams:
            for f in fam:
                if category.cod[f] != c:
                    raise CodomainMismatch(
                        "family member %r does not end at %r"
                        % (category.morphisms[f], category.objects[c])
                    )
            allowed[c] &= generate_mask(category, fam)
    classes = _retract_classes(category)
    D = 0
    for k, sieves in enumerate(classes.sieves):
        if not any(mask & ~allowed[c] for c, mask in sieves):
            D |= 1 << k
    return GrothendieckTopology(category, classes.minimal(D))


def induced_topology(category, J, sub):
    """Topology on the realized subcategory: a sieve covers iff the sieve it
    generates in the parent is J-covering.

    For a dense subcategory this always satisfies the axioms; otherwise the
    validation here may fail, which is reported as InvalidSubcategory.
    """
    realized = sub.realize()
    cat = realized.category
    cov = []
    for d in range(len(cat.objects)):
        masks = []
        parent_obj = realized.parent_object(d)
        for S in sieve_masks_on(cat, d):
            parent_arrows = [realized.parent_morphism(f) for f in bits(S)]
            gen = generate_mask(category, parent_arrows)
            if J.covers(parent_obj, gen):
                masks.append(S)
        cov.append(masks)
    verdict = is_topology(cat, cov)
    if not verdict:
        raise InvalidSubcategory(
            "induced covering violates %s at %r; the subcategory is not dense enough"
            % (verdict.axiom, verdict.witness)
        )
    return GrothendieckTopology(cat, _least(cat, cov))


def _resolve_bound(max_assignments):
    if max_assignments is not None:
        return max_assignments
    env = os.environ.get(ENV_MAX_ASSIGNMENTS)
    if env:
        try:
            bound = int(env)
        except ValueError:
            bound = None
        if bound is None or bound < 0:
            raise ParseError(
                "%s must be a non-negative integer, got %r" % (ENV_MAX_ASSIGNMENTS, env)
            )
        return bound
    return DEFAULT_MAX_ASSIGNMENTS


class TopologyLattice:
    """All topologies on a category, ordered by inclusion of covering sets.

    Elements are sorted by their minimal sieves, which is the order of their
    covering tuples (M_c is the first mask of covering[c]), so indices are
    stable across runs; `bottom` is the trivial topology and `top` the
    maximal one.  No table is built up front: J_i <= J_j when M_j lies inside
    M_i at every object, and the meet takes the objectwise unions.  With
    J_i = J_(D_i), the join is J with D_i & D_j, and the Heyting implication
    i => j is J with the retract closure of D_j minus D_i.
    """

    def __init__(self, category, elements):
        self.category = category
        self.elements = tuple(sorted(elements, key=lambda J: J.minimal))
        self._index = {J.minimal: i for i, J in enumerate(self.elements)}
        self.bottom = self._index[trivial_topology(category).minimal]
        self.top = self._index[maximal_topology(category).minimal]

    def __len__(self):
        return len(self.elements)

    def index_of(self, J):
        try:
            return self._index[J.minimal]
        except KeyError:
            raise KeyError("topology is not an element of this lattice") from None

    def leq(self, i, j):
        return self.elements[i].leq(self.elements[j])

    def meet(self, i, j):
        pairs = zip(self.elements[i].minimal, self.elements[j].minimal)
        return self._index[tuple(a | b for a, b in pairs)]

    def _downset(self, i):
        return _retract_classes(self.category).downset(self.elements[i].minimal)

    def _of_downset(self, D):
        return self._index[_retract_classes(self.category).minimal(D)]

    def join(self, i, j):
        return self._of_downset(self._downset(i) & self._downset(j))

    def implication(self, i, j):
        down = _retract_classes(self.category).down
        missing = self._downset(j) & ~self._downset(i)
        return self._of_downset(reduce(or_, (down[k] for k in bits(missing)), 0))


def count_candidate_assignments(category):
    """Number of covering-set assignments, 2^(|Sieves(c)| - 1) per object.

    A size measure of the category, used to pick corpus and benchmark sites;
    the topology search itself is bounded by the nodes it visits.
    """
    total = 1
    for c in range(len(category.objects)):
        total *= 1 << (len(sieve_masks_on(category, c)) - 1)
    return total


def enumerate_topologies(category, max_assignments=None):
    """Enumerate Groth(C), the J_D of the down-sets D of the retract classes,
    as a TopologyLattice.

    The classes are decided in a linear extension of the retract order on an
    explicit stack, and one is taken in only once every class below it is
    in, so every branch ends in a down-set, held as one mask.  Raises
    SizeBoundExceeded once the nodes visited, the root included, pass the
    bound (argument, FINSITE_MAX_ASSIGNMENTS, or the default 2^16).
    """
    bound = _resolve_bound(max_assignments)
    classes = _retract_classes(category)
    n = len(classes.down)
    strictly_below = [D & ~(1 << k) for k, D in enumerate(classes.down)]
    tried = 0
    found = []
    stack = [(0, 0)]
    while stack:
        k, D = stack.pop()
        tried += 1
        if tried > bound:
            raise SizeBoundExceeded(
                "%d candidate assignments (partial down-sets of retract classes) "
                "visited exceed the bound %d" % (tried, bound), tried, bound
            )
        if k == n:
            found.append(D)
            continue
        stack.append((k + 1, D))
        if not strictly_below[k] & ~D:
            stack.append((k + 1, D | 1 << k))
    return TopologyLattice(
        category, [GrothendieckTopology(category, classes.minimal(D)) for D in found]
    )
