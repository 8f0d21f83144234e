"""Grothendieck topologies on a finite category, and the lattice of all of them.

A topology is stored as, for each object, the sorted tuple of covering sieve
masks.  Everything downstream relies on that canonical form for equality,
hashing, and deterministic output.

On a finite category the covering sieves on c are closed upward and under
intersection, so they are exactly the sieves containing one least covering
sieve M_c (Mac Lane-Moerdijk, Sheaves in Geometry and Logic, III).  Each
topology carries these as `minimal`, and the search, the lattice and the
sheaf, density and object checks work with M_c alone.

`enumerate_topologies` is a depth-first search over the objects that assigns
M_c one object at a time and prunes a partial assignment at the first failed
condition, so its work follows the topologies found rather than the product
of the sieves.  Its size bound counts the candidate sieves it tries.  The
lattice computes order, meet and join on demand from the minimal sieves.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import reduce
from operator import and_, or_

from .category import bits
from .errors import (
    InvalidSubcategory,
    ParseError,
    RightOreFails,
    SizeBoundExceeded,
    TopologyAxiomViolation,
)
from .sieves import (
    Sieve,
    generate_mask,
    pullback_mask,
    sieve_masks_on,
)

DEFAULT_MAX_ASSIGNMENTS = 1 << 16
ENV_MAX_ASSIGNMENTS = "FINSITE_MAX_ASSIGNMENTS"


@dataclass(frozen=True)
class GrothendieckTopology:
    category: object
    covering: tuple  # per object index, sorted tuple of sieve masks
    # per object index, the least covering sieve: the intersection of covering
    minimal: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(
            self,
            "minimal",
            tuple(
                reduce(and_, masks, self.category.maximal_sieve(c))
                for c, masks in enumerate(self.covering)
            ),
        )

    def covers(self, c, mask):
        return mask in self.covering[c]

    def covering_masks(self, c):
        return self.covering[c]

    def covering_sieves(self, c):
        return tuple(Sieve(c, m) for m in self.covering[c])

    def leq(self, other):
        return all(
            set(a) <= set(b) for a, b in zip(self.covering, other.covering)
        )

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


def _normalize(category, covering):
    return tuple(tuple(sorted(set(masks))) for masks in covering)


def is_topology(category, covering):
    """Check the three axioms; report the first violated one with a witness.

    covering: per object, an iterable of sieve masks.
    """
    cov = _normalize(category, covering)
    n_obj = len(category.objects)
    if len(cov) != n_obj:
        return TopologyVerdict(False, "shape", (len(cov), n_obj))
    sets = [set(masks) for masks in cov]
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


def topology(category, covering):
    cov = _normalize(category, covering)
    verdict = is_topology(category, cov)
    if not verdict:
        raise TopologyAxiomViolation(
            "covering assignment violates %s at %r"
            % (verdict.axiom, verdict.witness),
            verdict.axiom,
            verdict.witness,
        )
    return GrothendieckTopology(category, cov)


def trivial_topology(category):
    """Only maximal sieves cover."""
    return GrothendieckTopology(
        category,
        tuple(
            (category.maximal_sieve(c),) for c in range(len(category.objects))
        ),
    )


def maximal_topology(category):
    """Every sieve covers."""
    return GrothendieckTopology(
        category,
        tuple(
            sieve_masks_on(category, c) for c in range(len(category.objects))
        ),
    )


def atomic_topology(category):
    """All nonempty sieves cover; requires the right Ore condition."""
    from .category import has_right_ore

    ore = has_right_ore(category)
    if not ore:
        raise RightOreFails(
            "atomic topology needs the right Ore condition; cospan %r fails"
            % (ore.counterexample,),
            ore.counterexample,
        )
    cov = tuple(
        tuple(m for m in sieve_masks_on(category, c) if m)
        for c in range(len(category.objects))
    )
    out = GrothendieckTopology(category, cov)
    assert is_topology(category, cov), "atomic covering failed the axioms"
    return out


def generated_topology(category, families):
    """Smallest topology whose covering sets contain the generated sieves.

    families: mapping object index -> iterable of arrow-index families.
    Computed as a fixed-point closure under the three axioms; agreement with
    the meet of all enumerated topologies containing the generators is left
    to the tests.
    """
    n_obj = len(category.objects)
    cov = [set() for _ in range(n_obj)]
    for c in range(n_obj):
        cov[c].add(category.maximal_sieve(c))
    for c, fams in families.items():
        for fam in fams:
            for f in fam:
                if category.cod[f] != c:
                    from .errors import CodomainMismatch

                    raise CodomainMismatch(
                        "family member %r does not end at %r"
                        % (category.morphisms[f], category.objects[c])
                    )
            cov[c].add(generate_mask(category, fam))

    all_sieves = [sieve_masks_on(category, c) for c in range(n_obj)]
    changed = True
    while changed:
        changed = False
        for c in range(n_obj):
            for S in tuple(cov[c]):
                for h in category.into(c):
                    pb = pullback_mask(category, S, h)
                    d = category.dom[h]
                    if pb not in cov[d]:
                        cov[d].add(pb)
                        changed = True
        for c in range(n_obj):
            for S in all_sieves[c]:
                if S in cov[c]:
                    continue
                for R in tuple(cov[c]):
                    if all(
                        pullback_mask(category, S, g) in cov[category.dom[g]]
                        for g in bits(R)
                    ):
                        cov[c].add(S)
                        changed = True
                        break
    out = GrothendieckTopology(category, _normalize(category, cov))
    assert is_topology(category, out.covering), "closure failed the axioms"
    return out


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
        cov.append(tuple(sorted(masks)))
    verdict = is_topology(cat, tuple(cov))
    if not verdict:
        raise InvalidSubcategory(
            "induced covering violates %s at %r; the subcategory is not dense enough"
            % (verdict.axiom, verdict.witness)
        )
    return GrothendieckTopology(cat, tuple(cov))


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

    Elements are sorted by their covering tuples, so indices are stable
    across runs; `bottom` is the trivial topology and `top` the maximal one.
    No table is built up front: the order, meet and join are computed on
    demand from the least covering sieves.  J_i <= J_j when M_j lies inside
    M_i at every object, the meet is the topology whose minimal sieves are
    the objectwise unions, and the join is the meet of all upper bounds.  The
    Heyting implication table is built by lattice scan on first use.
    """

    def __init__(self, category, elements):
        self.category = category
        self.elements = tuple(
            sorted(elements, key=lambda J: J.covering)
        )
        self._index = {J.covering: i for i, J in enumerate(self.elements)}
        self._minimal = tuple(J.minimal for J in self.elements)
        self._by_minimal = {m: i for i, m in enumerate(self._minimal)}
        objects = range(len(category.objects))
        self.bottom = self._by_minimal[
            tuple(category.maximal_sieve(c) for c in objects)
        ]
        self.top = self._by_minimal[tuple(0 for _ in objects)]
        self._implication = None

    def __len__(self):
        return len(self.elements)

    def index_of(self, J):
        try:
            return self._index[J.covering]
        except KeyError:
            raise KeyError("topology is not an element of this lattice") from None

    def leq(self, i, j):
        return not any(
            b & ~a for a, b in zip(self._minimal[i], self._minimal[j])
        )

    def meet(self, i, j):
        return self._by_minimal[
            tuple(a | b for a, b in zip(self._minimal[i], self._minimal[j]))
        ]

    def join(self, i, j):
        best = self.top
        for k in range(len(self.elements)):
            if self.leq(i, k) and self.leq(j, k):
                best = self.meet(best, k)
        return best

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
        cat,
        [
            GrothendieckTopology(
                cat,
                tuple(
                    tuple(S for S in sieves[c] if not M & ~S)
                    for c, M in enumerate(assignment)
                ),
            )
            for assignment in found
        ],
    )
