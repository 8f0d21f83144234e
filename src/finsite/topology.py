"""Grothendieck topologies on a finite category, and the lattice of all of them.

A topology is stored as, for each object, the sorted tuple of covering sieve
masks.  Everything downstream relies on that canonical form for equality,
hashing, and deterministic output.

On a finite category the covering sieves on c are closed upward and under
intersection, so they are exactly the sieves containing one least covering
sieve M_c (Mac Lane-Moerdijk, Sheaves in Geometry and Logic, III).  Each
topology carries these as `minimal`, and the search, the lattice and the
sheaf, density and object checks work with M_c alone.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import reduce
from itertools import product
from operator import and_

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
    """All topologies on a category with meet/join/implication tables.

    Elements are sorted by their covering tuples, so indices are stable
    across runs.  The order is containment of covering sets, that is reverse
    containment of minimal sieves; meet is the objectwise union of minimal
    sieves, join the least enumerated upper bound, and implication the
    Heyting adjoint computed by lattice scan.
    """

    def __init__(self, category, elements):
        self.category = category
        self.elements = tuple(
            sorted(elements, key=lambda J: J.covering)
        )
        self._index = {J.covering: i for i, J in enumerate(self.elements)}
        n = len(self.elements)
        mins = [J.minimal for J in self.elements]
        by_minimal = {m: i for i, m in enumerate(mins)}
        leq = [[False] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                leq[i][j] = not any(b & ~a for a, b in zip(mins[i], mins[j]))
        self._leq = leq
        self.bottom = next(
            i for i in range(n) if all(leq[i][j] for j in range(n))
        )
        self.top = next(
            i for i in range(n) if all(leq[j][i] for j in range(n))
        )
        meet = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                meet[i][j] = by_minimal[
                    tuple(a | b for a, b in zip(mins[i], mins[j]))
                ]
        self.meet_table = meet
        join = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                uppers = [
                    k for k in range(n) if leq[i][k] and leq[j][k]
                ]
                best = uppers[0]
                for k in uppers[1:]:
                    best = meet[best][k]
                join[i][j] = best
        self.join_table = join
        self._implication = None

    def __len__(self):
        return len(self.elements)

    def index_of(self, J):
        try:
            return self._index[J.covering]
        except KeyError:
            raise KeyError("topology is not an element of this lattice") from None

    def leq(self, i, j):
        return self._leq[i][j]

    def meet(self, i, j):
        return self.meet_table[i][j]

    def join(self, i, j):
        return self.join_table[i][j]

    @property
    def implication_table(self):
        if self._implication is None:
            n = len(self.elements)
            impl = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(n):
                    candidates = [
                        k
                        for k in range(n)
                        if self._leq[self.meet_table[k][i]][j]
                    ]
                    best = candidates[0]
                    for k in candidates[1:]:
                        best = self.join_table[best][k]
                    assert self._leq[self.meet_table[best][i]][j], (
                        "implication fell outside its defining set"
                    )
                    impl[i][j] = best
            self._implication = impl
        return self._implication

    def implication(self, i, j):
        return self.implication_table[i][j]


def count_candidate_assignments(category):
    total = 1
    for c in range(len(category.objects)):
        total *= 1 << (len(sieve_masks_on(category, c)) - 1)
    return total


def _is_minimal_assignment(category, minimal):
    """Are the sieves minimal[c] the least covering sieves of a topology?

    Stable: h^*M_c contains M_dom(h) for every arrow h into c.  Transitive:
    M_c is generated by the composites f after k with f in M_c and k in
    M_dom(f).  The covering sieves are then the sieves containing M_c.
    """
    for c, M in enumerate(minimal):
        for h in category.into(c):
            if minimal[category.dom[h]] & ~pullback_mask(category, M, h):
                return False
    for c, M in enumerate(minimal):
        composites = [
            category.compose(f, k)
            for f in bits(M)
            for k in bits(minimal[category.dom[f]])
        ]
        if generate_mask(category, composites) != M:
            return False
    return True


def enumerate_topologies(category, max_assignments=None):
    """Enumerate Groth(C) and return it as a TopologyLattice.

    Searches the product of the sieves on each object for the minimal
    covering sieves, kept when stable and transitive.  Refuses with
    SizeBoundExceeded when the count of covering-set assignments passes the
    bound (argument, FINSITE_MAX_ASSIGNMENTS, or the default 2^16).
    """
    bound = _resolve_bound(max_assignments)
    required = count_candidate_assignments(category)
    if required > bound:
        raise SizeBoundExceeded(
            "%d candidate assignments exceed the bound %d" % (required, bound),
            required,
            bound,
        )
    n_obj = len(category.objects)
    sieves = [sieve_masks_on(category, c) for c in range(n_obj)]
    found = []
    for minimal in product(*sieves):
        if _is_minimal_assignment(category, minimal):
            covering = tuple(
                tuple(S for S in sieves[c] if not M & ~S)
                for c, M in enumerate(minimal)
            )
            found.append(GrothendieckTopology(category, covering))
    return TopologyLattice(category, found)
