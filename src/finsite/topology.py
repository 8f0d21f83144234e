"""Grothendieck topologies on a finite category, and the lattice of all of them.

On a finite category the covering sieves on c are closed upward and under
intersection, so they are exactly the sieves containing one least covering
sieve M_c (Mac Lane-Moerdijk, Sheaves in Geometry and Logic, III).  A
topology is stored as these minimal sieves, one mask per object; the sorted
tuple of covering sieve masks of each object is derived from them on first
use, and is what reports and site files list.

`enumerate_topologies` is a depth-first search over the objects that assigns
M_c one object at a time and prunes a partial assignment at the first failed
condition, so its work follows the topologies found rather than the product
of the sieves.  Its size bound counts the candidate sieves it tries.  The
smallest topology in which given sieves cover, used for generated topologies
and for lattice joins, is one fixed point on the minimal sieves.
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
        """Per object index, the ascending masks of the covering sieves:
        the sieves that contain the least one."""
        return tuple(
            tuple(S for S in sieve_masks_on(self.category, c) if not M & ~S)
            for c, M in enumerate(self.minimal)
        )

    def covers(self, c, mask):
        return not self.minimal[c] & ~mask

    def covering_masks(self, c):
        return self.covering[c]

    def leq(self, other):
        return not any(b & ~a for a, b in zip(self.minimal, other.minimal))

    def describe(self):
        """Name-level view: object name -> list of sorted arrow-name lists."""
        cat = self.category
        out = {}
        for c, masks in enumerate(self.covering):
            out[cat.objects[c]] = [
                sorted(cat.morphisms[f] for f in bits(m)) for m in masks
            ]
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
    composition on the right) fails first, as axiom "sieve".
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


def _close(category, minimal):
    """Least covering sieves of the smallest topology in which minimal[c]
    covers c for every object c.

    Shrinks the sieves until they are stable (M_d inside h^*M_c for every
    h: d -> c) and transitive (M_c generated by the composites f after k with
    f in M_c and k in M_dom(f)).  Both steps are monotone and any topology in
    which the given sieves cover has its least sieves inside every iterate,
    so the fixed point is the greatest such assignment.
    """
    cat = category
    M = list(minimal)
    changed = True
    while changed:
        changed = False
        for h in range(len(cat.morphisms)):
            d = cat.dom[h]
            S = M[d] & pullback_mask(cat, M[cat.cod[h]], h)
            if S != M[d]:
                M[d] = S
                changed = True
        for c in range(len(M)):
            S = generate_mask(
                cat,
                [cat.compose(f, k) for f in bits(M[c]) for k in bits(M[cat.dom[f]])],
            )
            if S != M[c]:
                M[c] = S
                changed = True
    return tuple(M)


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
    least covering sieve is the intersection of all of them.
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
            reduce(and_, (m for m in sieve_masks_on(category, c) if m))
            for c in range(len(category.objects))
        ),
    )


def generated_topology(category, families):
    """Smallest topology whose covering sets contain the generated sieves.

    families: mapping object index -> iterable of arrow-index families.
    """
    start = [category.maximal_sieve(c) for c in range(len(category.objects))]
    for c, fams in families.items():
        for fam in fams:
            for f in fam:
                if category.cod[f] != c:
                    raise CodomainMismatch(
                        "family member %r does not end at %r"
                        % (category.morphisms[f], category.objects[c])
                    )
            start[c] &= generate_mask(category, fam)
    return GrothendieckTopology(category, _close(category, start))


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
            return int(env)
        except ValueError:
            raise ParseError(
                "%s must be an integer, got %r" % (ENV_MAX_ASSIGNMENTS, env)
            ) from None
    return DEFAULT_MAX_ASSIGNMENTS


class TopologyLattice:
    """All topologies on a category, ordered by inclusion of covering sets.

    Elements are sorted by their minimal sieves, which is the order of their
    covering tuples (M_c is the first mask of covering[c]), so indices are
    stable across runs; `bottom` is the trivial topology and `top` the
    maximal one.  No table is built up front: J_i <= J_j when M_j lies inside
    M_i at every object, the meet is the topology whose minimal sieves are
    the objectwise unions, and the join closes the objectwise intersections
    into the smallest topology in which they cover.  The Heyting implication
    table is built by lattice scan on first use.
    """

    def __init__(self, category, elements):
        self.category = category
        self.elements = tuple(sorted(elements, key=lambda J: J.minimal))
        self._index = {J.minimal: i for i, J in enumerate(self.elements)}
        self.bottom = self._index[trivial_topology(category).minimal]
        self.top = self._index[maximal_topology(category).minimal]
        self._implication = None

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

    def join(self, i, j):
        pairs = zip(self.elements[i].minimal, self.elements[j].minimal)
        return self._index[_close(self.category, [a & b for a, b in pairs])]

    @property
    def implication_table(self):
        if self._implication is None:
            n = len(self.elements)
            impl = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(n):
                    candidates = [
                        k for k in range(n) if self.leq(self.meet(k, i), j)
                    ]
                    best = candidates[0]
                    for k in candidates[1:]:
                        best = self.join(best, k)
                    assert self.leq(self.meet(best, i), j), (
                        "implication fell outside its defining set"
                    )
                    impl[i][j] = best
            self._implication = impl
        return self._implication

    def implication(self, i, j):
        return self.implication_table[i][j]


def count_candidate_assignments(category):
    """Number of covering-set assignments, 2^(|Sieves(c)| - 1) per object.

    A size measure of the category, used to pick corpus and benchmark sites;
    the topology search itself is bounded by the sieves it tries.
    """
    total = 1
    for c in range(len(category.objects)):
        total *= 1 << (len(sieve_masks_on(category, c)) - 1)
    return total


def enumerate_topologies(category, max_assignments=None):
    """Enumerate Groth(C) and return it as a TopologyLattice.

    A topology is found as its least covering sieves M_c: stable (M_d lies
    inside h^*M_c for every h: d -> c) and transitive (M_c is generated by
    the composites f after k with f in M_c and k in M_dom(f)).  The search
    assigns M_c object by object, fewest arrows in first, and cuts a partial
    assignment as soon as a stability condition between two assigned objects
    fails; transitivity at c is checked once every domain of an arrow into c
    is assigned.  Branch points are kept on an explicit stack, so the depth
    is not bounded by the recursion limit.  Raises SizeBoundExceeded once
    the candidate sieves tried pass the bound (argument,
    FINSITE_MAX_ASSIGNMENTS, or the default 2^16).
    """
    bound = _resolve_bound(max_assignments)
    cat = category
    n_obj = len(cat.objects)
    dom, cod = cat.dom, cat.cod
    sieves = [sieve_masks_on(cat, c) for c in range(n_obj)]
    order = sorted(range(n_obj), key=lambda c: (len(cat.into(c)), c))
    depth_of = {c: depth for depth, c in enumerate(order)}
    arrows = [h for h in range(len(cat.morphisms)) if not cat.is_identity(h)]
    # per call: the arrows of each sieve, h^*M for each sieve M on cod(h),
    # and f.M = {f after k : k in M} for each sieve M on dom(f)
    members = [
        {M: tuple(f for f in cat.into(c) if M >> f & 1) for M in sieves[c]}
        for c in range(n_obj)
    ]
    pullback = {
        h: {M: pullback_mask(cat, M, h) for M in sieves[cod[h]]}
        for h in arrows
    }
    image = [
        {
            M: generate_mask(cat, [cat.compose(f, k) for k in ks])
            for M, ks in members[dom[f]].items()
        }
        for f in range(len(cat.morphisms))
    ]
    # the stability and transitivity conditions decided at each depth
    stable_at = [[] for _ in order]
    for h in arrows:
        stable_at[max(depth_of[dom[h]], depth_of[cod[h]])].append(h)
    closed_at = [[] for _ in order]
    for c in range(n_obj):
        closed_at[
            max([depth_of[c]] + [depth_of[dom[f]] for f in cat.into(c)])
        ].append(c)

    minimal = [0] * n_obj

    def transitive(c):
        M = minimal[c]
        composites = (image[f][minimal[dom[f]]] for f in members[c][M])
        return reduce(or_, composites, 0) == M

    choice = [-1] * n_obj
    tried = 0
    found = []
    depth = 0
    while depth >= 0:
        if depth == n_obj:
            found.append(tuple(minimal))
            depth -= 1
            continue
        c = order[depth]
        choice[depth] += 1
        if choice[depth] == len(sieves[c]):
            choice[depth] = -1
            depth -= 1
            continue
        tried += 1
        if tried > bound:
            raise SizeBoundExceeded(
                "%d candidate assignments tried exceed the bound %d"
                % (tried, bound),
                tried,
                bound,
            )
        minimal[c] = sieves[c][choice[depth]]
        if any(
            minimal[dom[h]] & ~pullback[h][minimal[cod[h]]]
            for h in stable_at[depth]
        ):
            continue
        if all(transitive(e) for e in closed_at[depth]):
            depth += 1
    return TopologyLattice(
        cat, [GrothendieckTopology(cat, assignment) for assignment in found]
    )
