"""Object-level properties of sheaves: subobject lattices, atoms,
indecomposability, compactness notions, and the sieve-level criteria for
representables.

Subobjects of a sheaf A are identified with the subpresheaves of A that are
closed: they contain every section that lies in them locally along some
covering sieve.  For subpresheaves of a sheaf, closed is the same as being a
sheaf, which the tests cross-check.  Elements are stored as per-object int
masks over A's value sets.

Closed subpresheaves are read off the presheaf site E_D (below), on one
mask over all of A's elements.  The orbit of x in A(c) is the set of its
restrictions A(f)x along every f into c, the least subpresheaf holding x;
A keeps these masks once computed.  Every covering sieve on c contains the
least one, M_c, so x lies locally in T exactly when A(f)x lies in T for
every f in M_c, and the sieve-level criteria for representables look at
M_c alone.

Let F be the elements of A|E_D, taken as one mask over A's elements: the y
in A(dom e_k) with A(e_k)y = y, for each object e_k of E_D.  For x in A(c),
let r(x) = orbit(x) & F.  Then for every subpresheaf T of any presheaf A
the closure {x : A(f)x in T for all f in M_c} is {x : r(x) <= T}, and the
closed subpresheaves S correspond one to one to the S & F.  These are the
unions of the r(x), that is, the subpresheaves of A|E_D.

Proof.  r(x) is exactly the set of A(u)x for u: dom e_k -> c with
u.e_k = u: such an A(u)x = A(u.e_k)x = A(e_k)A(u)x is fixed, and a fixed
y = A(f)x is A(e_k)A(f)x = A(u)x for u = f.e_k.  These u generate M_c,
because M_c(D) is generated by the g.e_k, one least idempotent per class
in D (`topology.py`), and each g.e_k is such a u.  So every f in M_c is
u.h, A(f)x = A(h)A(u)x lies in T when A(u)x does, and the closure of T is
{x : r(x) <= T}.  Restriction shrinks orbits, so r(A(h)x) <= r(x), and
each y in F lies in r(y) (take u = e_k).  Hence a closed S, being its own
closure, is {x : r(x) <= S & F}, and S & F is the union of the r(y) for y
in it.  Conversely, for a union N of r's, S_N = {x : r(x) <= N} is a
subpresheaf with S_N & F = N (y in N lies in some r(x) <= N, and then
r(y) <= r(x)), so it is its own closure {x : r(x) <= S_N & F}.  Finally
r(y) for y in A|E_D(e_j) is its orbit in A|E_D: A(u)y = A(e_j.u)y, and
e_j.u.e_k = e_j.u when u.e_k = u.  So a closed hull is the closure of the
union of the orbits of its selection, and the subobjects are the closures
of the unions of the distinct r(x), one per union.

The presheaf site.  J = J_D for the retract-closed set D of idempotents e
with e in M_dom(e) (see `topology.py`).  Let E_D have one object per retract
class in D, its least idempotent e_k (`_RetractClasses.least`), and as
arrows u: e_j -> e_k the u: dom e_j -> dom e_k of C with e_k.u.e_j = u,
composed in C, e_k being the identity of e_k: the full subcategory of the
Karoubi envelope Kar(C) on those idempotents.  Then

    Sh(C, J) ~ [E_D^op, Set],  A |-> A|E_D,  A|E_D(e) = {x : A(e)x = x},

u acting by A(u) (Johnstone, Elephant A1.1.10 and C2.2.3).  Proof: C and
Kar(C) have the same presheaves, P |-> (e |-> the fixed points of P(e)).
Under it M_c is the sieve generated by the arrows g.e: e -> 1_c of Kar(C)
with e in D, so J is the topology on Kar(C) whose least sieve on an object
is generated by the arrows into it from the idempotents in D.  Each e in D
is covered only by its maximal sieve (1_e = e.e.e is one of those arrows)
and every object is covered by arrows out of such e, so the full
subcategory on them is dense with the trivial induced topology, and the
comparison lemma gives the equivalence.  Mutual retracts are isomorphic in
Kar(C), so one idempotent per class gives an equivalent site.  E_D is built
once per topology and memoised on the category (`presheaf_site`), so
`--jobs` threads share it.

The restriction r: P |-> P|E_D inverts the unit P -> a(P) of
sheafification: for a sheaf A, Nat(P, A) = Nat(rP, rA) (A is the right Kan
extension of rA) and Nat(a(P), A) = Nat(r a(P), rA) (the equivalence), so
r of the unit is bijective on Nat(-, rA) for every rA, which is every
presheaf on E_D, and Yoneda makes it an isomorphism.  Hence the sheafified
representable a(y c) corresponds to the restricted representable

    R_c(e_k) = {x: dom e_k -> c : x.e_k = x},  u acting by x |-> x.u,

and each per-object question of the report is decided on R_c in a presheaf
topos, where a subobject is a subpresheaf and needs no local closure.  So
are the public `is_atom`, `is_indecomposable` and `is_supercompact_object`
on any sheaf A, on A|E_D (`restrict`): the three are invariant under
equivalence.  For a presheaf R on E_D, the orbit of x in R(e_k), the
restrictions of x along every u into e_k, is the least subpresheaf holding
x, and every subpresheaf is the union of the orbits of its elements.

- Atom: exactly two subobjects, 0 and R.  That is R nonempty with every
  nonempty subpresheaf equal to R, and each such holds an orbit: every
  element's orbit is R.
- Indecomposable: R nonempty, and no complemented subobject besides 0 and
  R.  A subpresheaf S with a complement S' splits each R(e) disjointly and
  both are closed under the action, so x and x.u lie on one side: S is a
  union of components of the category of elements of R, and each such
  union is complemented by the rest.  So R is nonempty and connected; two
  elements whose orbits meet lie in one component, and growing the orbit
  of one element by every orbit that meets it reaches its component.
- Supercompact: R is not the join of its proper subobjects.  Joins are
  unions, and R is the union of the orbits of its elements, so some orbit
  is R; conversely, if the orbit of x is R, a family joining to R holds x
  in one member, which is then R.  (An empty R is the empty join.)
- The terminal sheaf restricts to the terminal presheaf, whose category of
  elements is E_D: it is indecomposable exactly when E_D is nonempty and
  connected.
- Values: a(y c)(d) = Nat(y d, a(y c)) = Nat(a(y d), a(y c)) =
  Nat(R_d, R_c), since y(1_d)|E_D = R_d; the natural maps are counted with
  the compatible-family solver.  Where M_d is maximal both plus units are
  bijective at d (`sheaf.py`), so the value is hom(d, c).
- Regular probe: the maps a(y d) -> a(y c) are the natural maps
  R_d -> R_c.  Monos and kernel pairs are limits, kept by the equivalence
  and taken objectwise on E_D, so a map injective at every e is monic, and
  a kernel pair is supercompact when one element generates it.  Every map
  out of a subterminal R_d, one with at most one element at every e, is
  monic, so such d are skipped.
- Indecomposable projective, under the trivial topology: every idempotent
  lies in D, so E_D is a skeleton of Kar(C).  Kar(C) is Cauchy complete, so
  a retract of a representable of [Kar(C)^op, Set] is representable, and
  the retracts of representables on E_D are exactly the E(-, e_k).  P|E_D
  is isomorphic to E(-, e_k) exactly when some x in P|E_D(e_k) makes the
  Yoneda map u |-> P(u)x bijective: its image is the orbit of x, so the
  orbit is all of P|E_D, and a surjection between finite sets of one size
  is a bijection, so |P|E_D(e_j)| = |E(e_j, e_k)| for every j.
"""

from collections import namedtuple
from functools import cached_property

from .category import FiniteCategory, Frozen, bits, fact, overlap_connected, unions
from .errors import WrongTopology
from .presheaf import Presheaf, kernel_pair, presheaf_homs, terminal_presheaf
from .sheaf import require_sheaf
from .topology import _retract_classes, trivial_topology


def _restrictions(category, J, A):
    """A's elements grouped by r(x), the part of the orbit of x in A|E_D
    (module docstring): (r, mask of the elements with that r) per distinct
    r, in the one bit space of `Presheaf._orbits`; memoised on A."""
    groups = A._hull_steps.get(J.minimal)
    if groups is None:
        start, orbits = A._orbits
        fixed = 0
        for e in presheaf_site(category, J).objects:
            offset = start[category.dom[e]]
            for y, z in enumerate(A.actions[e]):
                if y == z:
                    fixed |= 1 << offset + y
        elements = {}
        for i, orbit in enumerate(orbits):
            r = orbit & fixed
            elements[r] = elements.get(r, 0) | 1 << i
        groups = A._hull_steps[J.minimal] = tuple(elements.items())
    return groups


def _closure(A, groups, N):
    """The elements x of A with r(x) inside the mask N, as per-object masks:
    the closure of N when N is a subpresheaf (module docstring)."""
    start, _ = A._orbits
    closed = 0
    for r, mask in groups:
        if not r & ~N:
            closed |= mask
    return tuple(
        closed >> offset & (1 << n) - 1 for offset, n in zip(start, A.sizes)
    )


def closed_hull(category, J, A, masks):
    """Smallest closed subpresheaf of A containing the given elements: the
    closure of the union of their orbits, the least subpresheaf holding
    them."""
    start, orbits = A._orbits
    sub = 0
    for offset, mask in zip(start, masks):
        for x in bits(mask):
            sub |= orbits[offset + x]
    return _closure(A, _restrictions(category, J, A), sub)


class SubobjectLattice(Frozen):
    """All subobjects of a sheaf, as closed-subpresheaf element masks.

    Bounded lattice: meet is the objectwise intersection, join the closed
    hull of the union, bottom the hull of the empty selection, top A itself.
    The elements are the sorted tuples of per-object masks.
    """

    _fields = ("category", "topology", "ambient", "elements")

    def __init__(self, category, topology, ambient, elements):
        self.__dict__.update(
            category=category,
            topology=topology,
            ambient=ambient,
            elements=elements,
            _index={e: i for i, e in enumerate(elements)},
        )

    def __len__(self):
        return len(self.elements)

    def index_of(self, masks):
        return self._index[tuple(masks)]

    @property
    def top(self):
        return tuple((1 << n) - 1 for n in self.ambient.sizes)

    @cached_property
    def zero(self):
        return closed_hull(
            self.category, self.topology, self.ambient, (0,) * len(self.ambient.sizes)
        )

    def meet(self, x, y):
        return tuple(a & b for a, b in zip(x, y))

    def join(self, x, y):
        return closed_hull(
            self.category,
            self.topology,
            self.ambient,
            tuple(a | b for a, b in zip(x, y)),
        )

    def leq(self, x, y):
        return all(a & ~b == 0 for a, b in zip(x, y))


def subobjects(category, J, A):
    """Enumerate every subobject of the sheaf A.

    The closed subpresheaves are the closures of the unions of the distinct
    r(x), one per union (module docstring).
    """
    require_sheaf(category, J, A, "ambient object")
    return _subobjects(category, J, A)


def _subobjects(category, J, A):
    """`subobjects` for an A known to be a sheaf."""
    groups = _restrictions(category, J, A)
    closed = (_closure(A, groups, N) for N in unions(r for r, _ in groups))
    return SubobjectLattice(category, J, A, tuple(sorted(closed)))


def is_atom(category, J, A):
    """Exactly two subobjects (and hence a strict bottom below A), decided
    on A|E_D."""
    require_sheaf(category, J, A, "ambient object")
    return _properties(restrict(category, J, A))["atom"]


def is_indecomposable(category, J, A):
    """Nonzero, and no complemented subobject pair besides {0, A}, decided
    on A|E_D."""
    require_sheaf(category, J, A, "ambient object")
    return _properties(restrict(category, J, A))["indecomposable"]


def is_supercompact_object(category, J, A):
    """A is not the join of its proper subobjects, decided on A|E_D: one
    element generates it."""
    require_sheaf(category, J, A, "object")
    return _properties(restrict(category, J, A))["supercompact"]


# ---------------------------------------------------------------------------
# Sieve-level criteria for representables.


def rep_is_supercompact(category, J, c):
    """Every covering sieve contains one arrow generating a covering sieve.

    Each covering sieve contains M_c, so it suffices that one arrow of M_c
    generates a sieve containing M_c.
    """
    M = J.minimal[c]
    return any(not M & ~category.principal_sieve(f) for f in bits(M))


def rep_is_irreducible(category, J, c):
    """The only covering sieve is the maximal one."""
    return J.minimal[c] == category.maximal_sieve(c)


def is_indecomposable_projective(category, J, P):
    """P is a retract of some representable (presheaf context only).

    In presheaf categories the retracts of representables are exactly the
    indecomposable projectives.  Under the trivial topology they are the P
    with P|E_D isomorphic to some E(-, e_k): some x in P|E_D(e_k) has orbit
    all of P|E_D, and |P|E_D(e_j)| = |E(e_j, e_k)| for every j (module
    docstring).
    """
    if J.minimal != trivial_topology(category).minimal:
        raise WrongTopology(
            "indecomposable projectives are computed over the trivial topology"
        )
    R = restrict(category, J, P)
    E = R.category
    start, orbits = R._orbits
    full = (1 << start[-1]) - 1
    return any(
        R.sizes == tuple(len(E.hom(j, k)) for j in range(len(E.objects)))
        and full in orbits[start[k] : start[k + 1]]
        for k in range(len(E.objects))
    )


class ProbeVerdict(
    namedtuple(
        "ProbeVerdict",
        "ok degenerate probe_restricted witness",
        defaults=(True, None),
    )
):
    __slots__ = ()

    def __bool__(self):
        return self.ok


def rep_is_regular(category, J, c):
    """Supercompact, with supercompact kernel pairs of representable probes.

    Probes run over maps from representable sheaves only, which is the
    computable restriction of the defining quantifier; the verdict records
    that restriction.  Only supercompact l(d) are probed, as the maps
    R_d -> R_c on the presheaf site (module docstring), so a monic probe
    passes without building its kernel pair, a copy of R_d.
    """
    if not rep_is_supercompact(category, J, c):
        return ProbeVerdict(False, False, witness=("supercompact", category.objects[c]))
    target = restricted_representable(category, J, c)
    for d, source in fact(category, ("probes", J.minimal), _probes, J):
        for t in presheaf_homs(source, target):
            if t.is_componentwise_injective():
                continue
            W, _, _ = kernel_pair(t)
            if not _properties(W)["supercompact"]:
                return ProbeVerdict(
                    False, False, witness=("kernel-pair", category.objects[d])
                )
    return ProbeVerdict(True, False)


def _probes(category, J):
    """The (d, R_d) that `rep_is_regular` probes, d ascending: l(d)
    supercompact, and R_d not subterminal, as every map out of a subterminal
    presheaf is monic."""
    return tuple(
        (d, R)
        for d in range(len(category.objects))
        if rep_is_supercompact(category, J, d)
        for R in [restricted_representable(category, J, d)]
        if max(R.sizes, default=0) > 1
    )


def rep_is_coherent(category, J, c):
    """Compact, with compact kernel pairs of representable probes.

    Both compactness checks hold identically at finite scale (kernel pairs
    of sheaf maps are sheaves, and every sheaf is compact here), so nothing
    is probed; the verdict is flagged degenerate.
    """
    return ProbeVerdict(True, True)


# ---------------------------------------------------------------------------
# The presheaf site E_D and the report's per-object checks on it (module
# docstring).


def presheaf_site(category, J):
    """E_D for J = J_D as a finite category, memoised on the category per
    topology.  Its objects are the least idempotents e_k, ascending by
    retract class, and its arrows the triples (u, j, k) of u: e_j -> e_k,
    ascending by k, then j, then u."""
    return fact(category, ("presheaf-site", J.minimal), _presheaf_site, J)


def _presheaf_site(category, J):
    classes = _retract_classes(category)
    idempotents = [classes.least[k] for k in bits(classes.downset(J.minimal))]
    table = category.table
    morphisms = [
        (u, j, k)
        for k, (b, ek) in enumerate(idempotents)
        for j, (a, ej) in enumerate(idempotents)
        for u in category.hom(a, b)
        if table[u, ej] == u and table[ek, u] == u
    ]
    index = {m: f for f, m in enumerate(morphisms)}
    into = [[] for _ in idempotents]
    for f, (_, _, k) in enumerate(morphisms):
        into[k].append(f)
    composites = {
        (g, f): index[table[v, u], j, l]
        for g, (v, k, l) in enumerate(morphisms)
        for f in into[k]
        for u, j, _ in [morphisms[f]]
    }
    return FiniteCategory(
        [e for _, e in idempotents],
        morphisms,
        [j for _, j, _ in morphisms],
        [k for _, _, k in morphisms],
        [index[e, k, k] for k, (_, e) in enumerate(idempotents)],
        composites,
    )


def restricted_representable(category, J, c):
    """R_c, the representable at c restricted to E_D, as a presheaf on
    `presheaf_site`; memoised on the category per topology and object."""
    return fact(category, ("restricted", J.minimal, c), _restricted, J, c)


def _restricted(category, J, c):
    E = presheaf_site(category, J)
    table = category.table
    values = [
        tuple(x for x in category.hom(category.dom[e], c) if table[x, e] == x)
        for e in E.objects
    ]
    index = [{x: i for i, x in enumerate(v)} for v in values]
    actions = tuple(
        tuple(index[j][table[x, u]] for x in values[k]) for u, j, k in E.morphisms
    )
    return Presheaf._trusted(E, tuple(map(len, values)), actions)


def restrict(category, J, A):
    """A|E_D as a presheaf on `presheaf_site`: at e_k the fixed points of
    A(e_k), ascending, with u: e_j -> e_k acting by A(u)."""
    E = presheaf_site(category, J)
    values = [
        tuple(x for x, y in enumerate(A.actions[e]) if x == y) for e in E.objects
    ]
    index = [{x: i for i, x in enumerate(v)} for v in values]
    actions = tuple(
        tuple(index[j][A.actions[u][x]] for x in values[k])
        for u, j, k in E.morphisms
    )
    return Presheaf._trusted(E, tuple(map(len, values)), actions)


def _connected(P):
    """P is nonempty and its category of elements connected: indecomposable
    in a presheaf topos.  The component of the first element is its orbit
    grown by every orbit that meets it."""
    start, orbits = P._orbits
    return overlap_connected(orbits, (1 << start[-1]) - 1)


def _properties(R):
    """The atom, indecomposable and supercompact verdicts of a presheaf R on
    E_D (module docstring)."""
    start, orbits = R._orbits
    full = (1 << start[-1]) - 1
    return {
        "atom": bool(full) and all(orbit == full for orbit in orbits),
        "indecomposable": _connected(R),
        "supercompact": full in orbits,
    }


def representable_properties(category, J, c):
    """The atom, indecomposable and supercompact verdicts of the sheafified
    representable at c, decided on R_c."""
    return _properties(restricted_representable(category, J, c))


def representable_sizes(category, J, c):
    """The value sizes of the sheafified representable at c: hom(d, c) where
    M_d is maximal, otherwise the number of natural maps R_d -> R_c."""
    R = restricted_representable(category, J, c)
    return tuple(
        len(category.hom(d, c))
        if M == category.maximal_sieve(d)
        else len(presheaf_homs(restricted_representable(category, J, d), R))
        for d, M in enumerate(J.minimal)
    )


def terminal_is_indecomposable(category, J):
    """The terminal sheaf is indecomposable: E_D is nonempty and connected."""
    return _connected(terminal_presheaf(presheaf_site(category, J)))
