"""Grothendieck topologies on a finite category, and the lattice of all of them.

On a finite category the covering sieves on c are closed upward and under
intersection, so they are exactly the sieves containing one least covering
sieve M_c (Mac Lane-Moerdijk, Sheaves in Geometry and Logic, III).  A
topology is stored as these minimal sieves, one mask per object; the sorted
tuple of covering sieve masks of an object is derived from its M_c when
asked for, or kept from the coverage `topology` checked, and is what reports
and site files list.

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
set D of idempotents, retract-closed or not, gives stable and transitive
M(D): h.(g.e.x) = (h.g).e.x, and g.e.x = (g.e).(e.x) with g.e in M_c(D) and
e.x in M_dom(e)(D).  So sieves M are the least covering sieves of a
topology exactly when M = M(D) for D = {e : e in M_dom(e)}, which is one
pass over the idempotents (`_least_if_topology`).  For retract-closed D,
e in M_dom(e)(D) means e = g.d.x with d in D, a retract of d, so D is read
back from J_D.  So M(D) lies in M(D') exactly when D lies in D': the
topologies reverse, J_D <= J_D' exactly when D' lies in D.

So the topologies are the down-sets of the retract classes (mutual
retracts, such as the two constant self-maps of a two-point set, form one
class); M(D), on every object at once, is the OR of one arrow mask per
class computed once per category.
D also gives each topology a second site: Sh(C, J_D) is the presheaf topos
on the least idempotents of the classes in D, where the report decides its
per-object checks (proof in the `sheaf.py` docstring).
"""

import os
from collections import namedtuple
from functools import cached_property, reduce
from operator import and_, or_

from .category import Frozen, bits, fact, has_right_ore, unions
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


class GrothendieckTopology(Frozen):
    """A topology on `category`, given by `minimal`: per object index, the
    mask of the least covering sieve."""

    _fields = ("category", "minimal")

    def __init__(self, category, minimal):
        self.__dict__.update(category=category, minimal=minimal)

    @cached_property
    def covering(self):
        """Per object index, the ascending masks of the covering sieves."""
        return tuple(map(self.covering_masks, range(len(self.minimal))))

    def covers(self, c, mask):
        return not self.minimal[c] & ~mask

    def covering_masks(self, c):
        """The ascending masks of the sieves on c that contain M_c: the unions
        started at M_c of the principal sieves on c that M_c misses."""
        cat, M = self.category, self.minimal[c]
        missed = (P for P in map(cat.principal_sieve, cat.into(c)) if P & ~M)
        return unions(missed, M)

    def leq(self, other):
        return not any(b & ~a for a, b in zip(self.minimal, other.minimal))

    def describe(self):
        """Name-level view: object name -> tuple of sorted arrow-name tuples,
        one per covering sieve.  The covering sieves on c depend only on M_c,
        so each (c, M_c) is listed once per category and its tuple is shared
        by every topology with that least sieve; each sieve, above many M_c,
        is named once per category, its memo key the sieve's mask."""
        cat = self.category
        memo = cat._described
        out = {}
        for c, M in enumerate(self.minimal):
            names = memo.get((c, M))
            if names is None:
                masks = self.covering_masks(c)
                for S in masks:
                    if S not in memo:
                        memo[S] = tuple(sorted(cat.morphisms[f] for f in bits(S)))
                names = memo[(c, M)] = tuple(map(memo.__getitem__, masks))
            out[cat.objects[c]] = names
        return out


class TopologyVerdict(namedtuple("TopologyVerdict", "ok axiom witness", defaults=("", ()))):
    __slots__ = ()

    def __bool__(self):
        return self.ok


def is_topology(category, covering):
    """Check the three axioms; report the first violated one with a witness.

    covering: per object, an iterable of sieve masks.  A mask that is not a
    sieve on its object (an arrow into another object, or not closed under
    composition on the right) fails first, as axiom "sieve".  The remaining
    axioms are decided on the least sieves M (see `_least_if_topology`);
    only an assignment that fails there is scanned axiom by axiom, which
    names the first violation as the axioms state it.
    """
    sets = [masks if type(masks) is set else set(masks) for masks in covering]
    if _least_if_topology(category, sets) is not None:
        return TopologyVerdict(True)
    return _violation(category, sets)


def _violation(category, sets):
    """The first violated axiom of an assignment of sets of masks that is
    not a topology."""
    cov = tuple(map(tuple, map(sorted, sets)))
    n_obj = len(category.objects)
    if len(cov) != n_obj:
        return TopologyVerdict(False, "shape", (len(cov), n_obj))
    for c in range(n_obj):
        for S in cov[c]:
            if S & ~category.maximal_sieve(c) or not is_right_closed(category, S):
                return TopologyVerdict(False, "sieve", (c, S))
    return _scan_axioms(category, cov, sets)


def _least_if_topology(category, sets):
    """The least sieves M of an assignment of sieve sets that is a
    topology, else None.

    With M_c the intersection of the sets listed at c, the sets are those
    of a topology exactly when every listed set holds M_c, every listed
    mask is a sieve on c and the set is closed under S |-> S | principal(f)
    for f into c, so that it is the set of sieves containing M_c, and M is
    stable and transitive.  The last holds exactly when M = M(D) for the
    idempotents D = {e : e in M_dom(e)} (proof in the module docstring):
    one pass ORs the sieve generated by g.e into M_(cod g)(D) for each
    such e and each g out of dom e."""
    maximal = category._maximal
    if len(sets) != len(maximal):
        return None
    principal, into = category._principal, category._into
    M = []
    for listed, top, into_c in zip(sets, maximal, into):
        M_c = reduce(and_, listed, top)
        if M_c not in listed:
            return None
        M.append(M_c)
        for S in listed:
            if S == top:  # a sieve, and S | principal(f) is S
                continue
            if S & ~top:
                return None
            for f in into_c:
                if S >> f & 1:
                    if principal[f] & ~S:  # not closed on the right
                        return None
                elif S | principal[f] not in listed:
                    return None
    M = tuple(M)
    if M == maximal:  # the trivial topology: every identity is in D
        return M
    table, cod, outof = category.table, category.cod, category._outof
    reached = [0] * len(M)
    for e, d in enumerate(category.dom):
        if M[d] >> e & 1 and cod[e] == d and table[e, e] == e:
            for g in outof[d]:
                reached[cod[g]] |= principal[table[g, e]]
    return M if tuple(reached) == M else None


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


class _RetractClasses(
    namedtuple("_RetractClasses", "maximal least down generated fixed")
):
    """The idempotents of a category up to mutual retracts, retracts first.

    maximal: per object c, the mask of the arrows into c.
    least: per class, (dom e, e) for its least idempotent e.
    down: per class, the mask over classes of the classes at or below it.
    generated: per class, one arrow mask: the sieves generated by the arrows
        g.e, g out of dom e, on every object at once.
    fixed: per class, one arrow mask: the arrows g.e, g out of dom e, that
        is the x out of dom e with x.e = x (`sheaf.py`).

    A sieve on c holds only arrows into c, so sieves on different objects
    share no arrow, and a set of sieves, one per object, is one mask: its
    sieve on c is the mask's part inside maximal(c).  The sieves M_c(D) of
    all objects are the union over k in D of the generated masks, which is
    all `minimal` computes, and a test of M(D) against a sieve per object is
    one mask test against their union (`generated_topology`,
    `density.topologies_with_dense`).
    """

    __slots__ = ()

    def minimal(self, D):
        """Least covering sieves M_c(D) of J_D; D is a mask over classes."""
        G = reduce(or_, map(self.generated.__getitem__, bits(D)), 0)
        return tuple(map(G.__and__, self.maximal))

    def downset(self, minimal):
        """The mask over classes of D = {e : e in M_dom(e)}."""
        return sum(
            1 << k for k, (a, e) in enumerate(self.least) if minimal[a] >> e & 1
        )


def _retract_classes(category):
    """The retract classes of the category's idempotents, memoised on it."""
    return fact(category, ("retracts",), _retracts)


def _retracts(cat):
    table, dom, outof, principal = cat.table, cat.dom, cat._outof, cat._principal
    idempotents = [f for f in range(len(cat.morphisms)) if table.get((f, f)) == f]
    marked = reduce(or_, (1 << e for e in idempotents), 0)
    generated, fixed, classes = {}, {}, {}
    for e in idempotents:
        row = fix = 0
        for g in outof[dom[e]]:
            x = table[g, e]
            row |= principal[x]
            fix |= 1 << x
        generated[e], fixed[e] = row, fix
        # the retracts of e, the idempotents in its sieves: the same for a
        # mutual retract, fewer for a strict one
        classes.setdefault(row & marked, []).append(e)
    order = sorted(classes.items(), key=lambda item: (item[0].bit_count(), item[1][0]))
    position = {e: k for k, (_, members) in enumerate(order) for e in members}
    down = []
    for below, _ in order:
        D = 0
        while below:
            low = below & -below
            D |= 1 << position[low.bit_length() - 1]
            below ^= low
        down.append(D)
    return _RetractClasses(
        cat._maximal,
        tuple((dom[members[0]], members[0]) for _, members in order),
        tuple(down),
        tuple(generated[members[0]] for _, members in order),
        tuple(fixed[members[0]] for _, members in order),
    )


def topology(category, covering):
    """The topology with the given covering sieves, checked as by
    `is_topology`; a set of masks in `covering` is read, not copied.

    The checked coverage is stored as the topology's `covering`: each listed
    mask is then a sieve containing M_c, the intersection of the list, and
    the list is closed under S |-> S | principal(f) for f into c, so it
    holds every sieve S containing M_c (add to M_c the principal sieves of
    the arrows of S one by one: each step stays in the list and ends at S).
    Sorted, it is the ascending tuple `covering_masks(c)` would enumerate.
    """
    sets = [masks if type(masks) is set else set(masks) for masks in covering]
    M = _least_if_topology(category, sets)
    if M is None:
        verdict = _violation(category, sets)
        raise TopologyAxiomViolation(
            "covering assignment violates %s at %r"
            % (verdict.axiom, verdict.witness),
            verdict.axiom,
            verdict.witness,
        )
    J = GrothendieckTopology(category, M)
    J.__dict__["covering"] = tuple([tuple(sorted(masks)) for masks in sets])
    return J


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
    and every g: dom e -> c.  The intersections of the R on each c form one
    arrow mask, and a class is in D when its generated mask lies inside it.
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
    inside = reduce(or_, allowed, 0)
    D = sum(1 << k for k, G in enumerate(classes.generated) if not G & ~inside)
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
        cov.append(set(masks))
    M = _least_if_topology(cat, cov)
    if M is None:
        verdict = _violation(cat, cov)
        raise InvalidSubcategory(
            "induced covering violates %s at %r; the subcategory is not dense enough"
            % (verdict.axiom, verdict.witness)
        )
    return GrothendieckTopology(cat, M)


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
    stable across runs.  The lattice keeps, per element, its least sieves
    `minimals` and the down-set of retract classes D with J = J_D
    (`downsets`); the topologies themselves are built when `elements` is
    first read.  Every M_c lies between the empty sieve and the maximal one,
    so `top`, the maximal topology, sorts first and `bottom`, the trivial
    one, last.  No table is built up front: J_D <= J_D' when D' lies inside
    D, the meet is J with D | D' (M(D | D') is the objectwise union), the
    join is J with D & D', and the Heyting implication i => j is J with the
    retract closure of D_j minus D_i.

    `pairs`, when given, are the (minimal, downset) pairs of the elements,
    sorted; `elements` is then empty and built from them.
    """

    def __init__(self, category, elements, pairs=None):
        if pairs is None:
            elements = sorted(elements, key=lambda J: J.minimal)
            downset = _retract_classes(category).downset
            pairs = [(J.minimal, downset(J.minimal)) for J in elements]
            self._elements = tuple(elements)
        else:
            self._elements = None
        self.category = category
        self.minimals = tuple([M for M, _ in pairs])
        self.downsets = tuple([D for _, D in pairs])
        self._index = {D: i for i, D in enumerate(self.downsets)}
        self.top, self.bottom = 0, len(pairs) - 1

    @property
    def elements(self):
        # two threads reading it first may each build the tuple; they are equal
        if self._elements is None:
            category = self.category
            self._elements = tuple(
                [GrothendieckTopology(category, M) for M in self.minimals]
            )
        return self._elements

    def __len__(self):
        return len(self.minimals)

    def index_of(self, J):
        M = J.minimal
        i = self._index.get(_retract_classes(self.category).downset(M))
        if i is None or self.minimals[i] != M:
            raise KeyError("topology is not an element of this lattice")
        return i

    def leq(self, i, j):
        return not self.downsets[j] & ~self.downsets[i]

    def meet(self, i, j):
        return self._of_downset(self.downsets[i] | self.downsets[j])

    def _of_downset(self, D):
        return self._index[D]

    def join(self, i, j):
        return self._of_downset(self.downsets[i] & self.downsets[j])

    def implication(self, i, j):
        down = _retract_classes(self.category).down
        missing = self.downsets[j] & ~self.downsets[i]
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
    in, so every branch ends in a down-set, held as one mask over classes
    beside one arrow mask, its least sieves on every object
    (`_RetractClasses`).  The per-object tuples are split off the arrow
    masks once the search ends, and sorted once with their down-sets.  Raises
    SizeBoundExceeded once the nodes visited, the root included, pass the
    bound (argument, FINSITE_MAX_ASSIGNMENTS, or the default 2^16).
    """
    bound = _resolve_bound(max_assignments)
    classes = _retract_classes(category)
    n, generated = len(classes.down), classes.generated
    strictly_below = [D & ~(1 << k) for k, D in enumerate(classes.down)]
    tried = 0
    found = []
    stack = [(0, 0, 0)]
    while stack:
        k, D, G = stack.pop()
        tried += 1
        if tried > bound:
            raise SizeBoundExceeded(
                "%d candidate assignments (partial down-sets of retract classes) "
                "visited exceed the bound %d" % (tried, bound), tried, bound
            )
        if k == n:
            found.append((D, G))
            continue
        stack.append((k + 1, D, G))
        if not strictly_below[k] & ~D:
            stack.append((k + 1, D | 1 << k, G | generated[k]))
    maximal = category._maximal
    pairs = sorted([(tuple(map(G.__and__, maximal)), D) for D, G in found])
    return TopologyLattice(category, (), pairs=pairs)
