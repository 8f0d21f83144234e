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
  Nat(R_d, R_c), since y(1_d)|E_D = R_d.  Where M_d is maximal both plus
  units are bijective at d (`sheaf.py`), so the value is hom(d, c).
  Otherwise, where R_c is subterminal, the value is 0 or 1 by the supports
  of R_d and R_c (below).  Where it is not, the natural maps are read off
  a generator of R_d where there is one (below), and counted with the
  compatible-family solver on E_D where there is none.
- Regular probe: the maps a(y d) -> a(y c) are the natural maps
  R_d -> R_c.  Monos and kernel pairs are limits, kept by the equivalence
  and taken objectwise on E_D, so a map injective at every e is monic, and
  a kernel pair is supercompact when one element generates it.  Every map
  out of a subterminal R_d, one with at most one element at every e, is
  monic, so such d are skipped before a generator is looked for.
- Indecomposable projective, under the trivial topology: every idempotent
  lies in D, so E_D is a skeleton of Kar(C).  Kar(C) is Cauchy complete, so
  a retract of a representable of [Kar(C)^op, Set] is representable, and
  the retracts of representables on E_D are exactly the E(-, e_k).  P|E_D
  is isomorphic to E(-, e_k) exactly when some x in P|E_D(e_k) makes the
  Yoneda map u |-> P(u)x bijective: its image is the orbit of x, so the
  orbit is all of P|E_D, and a surjection between finite sets of one size
  is a bijection, so |P|E_D(e_j)| = |E(e_j, e_k)| for every j.

The report decides these questions on C's composition table and its
principal sieves, and builds E_D and R_c only where the solver must count
the maps from an R_d with no generator into an R_c that is not
subterminal, or where a kernel pair passes the size bound below.  Let
a_k = dom e_k, Fix_k the arrows x out of a_k with x.e_k = x
(`_RetractClasses.fixed`), Fix_D their union, and G_c = Fix_D & maximal(c).
Every w.e_k with w out of a_k lies in Fix_k, as e_k.e_k = e_k, and each x
in Fix_k is x.e_k.  So R_x(e_j) = Fix_j & maximal(x), read as arrows, is
also the set of the distinct w.e_j for w: a_j -> x, and G_c is the set of
arrows under the elements of R_c.  One arrow x may lie in several Fix_k;
write (k, x) for its element in R_c(e_k).

- G_c generates M_c.  Each x in G_c is x.e_k with e_k in D, so lies in
  M_c.  M_c is generated by the g.e_k with g: dom e_k -> c, one least
  idempotent per class in D, and each g.e_k lies in Fix_k.  So G_c is
  inside M_c and generates it.
- The orbit of (k, x) is the set of (j, y) with y in principal(x) & Fix_j.
  For u: e_j -> e_k, x.u is in principal(x), and in Fix_j as u.e_j = u.
  Conversely a y = x.f in Fix_j is x.(e_k.f.e_j), as x = x.e_k and
  y = y.e_j, and e_k.f.e_j is an arrow e_j -> e_k.  So the orbit depends
  on the arrow x alone and is read as the mask principal(x) & Fix_D.
  Reading a mask S inside Fix_D as the elements (j, y) with y in S & Fix_j
  is injective and keeps unions and intersections.  So R_c is an atom when
  G_c is nonempty and every orbit mask is G_c, indecomposable when the
  orbit masks grown by overlap cover G_c, and supercompact when some orbit
  mask is G_c.  Elements on one arrow have one orbit, so two orbits of
  elements meet exactly when their masks do.
- R_c is supercompact exactly when `rep_is_supercompact` holds.  The
  orbit mask of x in G_c is G_c when G_c lies in principal(x).  As G_c
  generates M_c and principal(x) is a sieve, that holds exactly when M_c
  lies in principal(x).  `rep_is_supercompact` asks for an f in M_c with
  M_c inside principal(f).  Each x in G_c is in M_c.  Conversely such an f
  is x.h for some x in G_c, and principal(x) holds principal(f), which
  holds M_c.  Then principal(x) = M_c, as x is in M_c.
- E_D's arrows e_j -> e_k are the u in R_{a_k}(e_j) with e_k.u = u, as
  e_k.u.e_j = u means u.e_j = u = e_k.u.  Each u in R_{a_k}(e_j) gives
  e_k.u in E(e_j, e_k), as e_k.u.e_j = e_k.u and e_k.e_k = e_k.  So the
  support of R_{a_k} (below) is the set of the j with an arrow e_j -> e_k,
  k among them, and E_D is nonempty and connected exactly when these
  supports, grown by overlap from the first, cover every block: two of
  them meet only at a block with arrows into both of their blocks.
- Maps into a subterminal presheaf.  Let T have at most one element at
  every e.  Then Nat(S, T) has one element when every e with S(e)
  nonempty has T(e) nonempty, and none otherwise.  Proof: a map t has one
  component t_e: S(e) -> T(e) per e.  Where S(e) is empty, t_e is the
  empty function.  Where S(e) is nonempty, t_e exists only if T(e) is
  nonempty, and is then the constant map onto its one element.  So there
  is at most one family of components, and there is one exactly when the
  supports nest.  It is natural: for u: e_j -> e_k and s in S(e_k), both
  T(u)t(s) and t(S(u)s) lie in T(e_j), which has at most one element.
  R_x(e_j) has one element per arrow of Fix_j & maximal(x), so the support
  of R_x, the blocks j with R_x(e_j) nonempty, and whether R_x is
  subterminal are read off those masks (`_blocks`).  A count of the maps
  R_d -> R_c into a subterminal R_c is then one mask inclusion.
- Yoneda for a cyclic source.  Where R_d is supercompact, take x0 in G_d
  with principal(x0) = M_d, and k with x0 in Fix_k.  The orbit of (k, x0)
  is all of R_d, so u |-> x0.u maps E(-, e_k) onto R_d.  A natural map t:
  R_d -> R_c is then fixed by y = t(k, x0) in R_c(e_k), with
  t(x0.u) = y.u.  A y in R_c(e_k) gives a map exactly when x0.u = x0.u'
  implies y.u = y.u' for all u, u': e_j -> e_k, and the map is natural as
  (x0.u).v = x0.(u.v).  For w: dom e_j -> dom e_k the arrows s = w.e_j
  give x0.s = x0.(e_k.w.e_j) and y.s = y.(e_k.w.e_j), and each u is such
  an s, so the walk runs over the s in Fix_j & maximal(a_k).  t is monic
  when it is injective on every R_d(e_j).  Its kernel pair W has W(e_j)
  the pairs of elements of R_d(e_j) with one image, so |W| is the sum over
  j and over the images v of n_(j,v)^2, where n_(j,v) elements of R_d(e_j)
  go to v.
  If W is supercompact, one element w in some W(e_i) has orbit W, and
  u |-> w.u maps E(-, e_i) onto W.  So |W| is at most the number of
  arrows of E_D into e_i, for an e_i with W(e_i), equivalently R_d(e_i),
  nonempty, listed off the masks as above without building E_D.  A W
  larger than that for every such e_i is not supercompact and is refused
  without being built.
"""

from collections import Counter, namedtuple
from functools import cached_property, reduce
from operator import or_

from .category import FiniteCategory, Frozen, bits, fact, overlap_connected, unions
from .errors import WrongTopology
from .presheaf import NatTransformation, Presheaf, kernel_pair, presheaf_homs
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
        for a, e, _ in _blocks(category, J)[0]:
            offset = start[a]
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
    R_d -> R_c read off a generator of R_d (module docstring).  A monic
    probe passes.  The kernel pair W of any other is counted first, and
    built on E_D only when |W| is within the bound that a supercompact W
    meets.
    """
    if not rep_is_supercompact(category, J, c):
        return ProbeVerdict(False, False, witness=("supercompact", category.objects[c]))
    for d, generator in fact(category, ("probes", J.minimal), _probes, J):
        for images in _yoneda_maps(category, J, generator, c):
            if not _is_monic(images) and not _kernel_pair_is_supercompact(
                category, J, d, c, images
            ):
                return ProbeVerdict(
                    False, False, witness=("kernel-pair", category.objects[d])
                )
    return ProbeVerdict(True, False)


def _probes(category, J):
    """The (d, generator of R_d) that `rep_is_regular` probes, d ascending:
    R_d not subterminal, as every map out of a subterminal presheaf is
    monic, and l(d) supercompact.  A subterminal R_d is skipped before its
    generator is looked for."""
    return tuple(
        (d, generator)
        for d, (_, subterminal) in enumerate(_blocks(category, J)[2])
        if not subterminal
        for generator in [_generator(category, J, d)]
        if generator is not None
    )


def rep_is_coherent(category, J, c):
    """Compact, with compact kernel pairs of representable probes.

    Both compactness checks hold identically at finite scale (kernel pairs
    of sheaf maps are sheaves, and every sheaf is compact here), so nothing
    is probed; the verdict is flagged degenerate.
    """
    return ProbeVerdict(True, True)


# ---------------------------------------------------------------------------
# The report's per-object checks, read off C's arrows, and the presheaf site
# E_D where a hom count or a kernel pair needs it (module docstring).


def _blocks(category, J):
    """Per retract class k in D, in the order of E_D's objects: (a_k, e_k,
    Fix_k) for its least idempotent e_k: a_k -> a_k and the mask Fix_k of the
    arrows x out of a_k with x.e_k = x (`_RetractClasses.fixed`); Fix_D, the
    union of the Fix_k; and per object x, (supp, subterminal): the mask of
    the blocks j where R_x(e_j), one element per bit of Fix_j & maximal(x),
    is nonempty, and whether no R_x(e_j) holds two elements.  Memoised on
    the category per topology."""
    return fact(category, ("blocks", J.minimal), _read_blocks, J)


def _read_blocks(category, J):
    classes = _retract_classes(category)
    D = bits(classes.downset(J.minimal))
    blocks = tuple((*classes.least[k], classes.fixed[k]) for k in D)
    supports = []
    for into in classes.maximal:
        sizes = [(fix & into).bit_count() for _, _, fix in blocks]
        supports.append(
            (sum(1 << j for j, n in enumerate(sizes) if n), max(sizes, default=0) < 2)
        )
    return blocks, reduce(or_, (fix for _, _, fix in blocks), 0), tuple(supports)


def representable_properties(category, J, c):
    """The atom, indecomposable and supercompact verdicts of the sheafified
    representable at c, read off the orbit masks principal(x) & Fix_D of
    the x in G_c, the arrows under the elements of R_c (module docstring)."""
    fixed = _blocks(category, J)[1]
    G = fixed & category.maximal_sieve(c)
    return _verdicts([category.principal_sieve(x) & fixed for x in bits(G)], G)


def terminal_is_indecomposable(category, J):
    """The terminal sheaf is indecomposable: E_D is nonempty and connected,
    blocks j and k joined where R_{a_k}(e_j) or R_{a_j}(e_k) is nonempty,
    as the supports of the R_{a_k} record (module docstring)."""
    blocks, _, supports = _blocks(category, J)
    support = [supports[a][0] for a, _, _ in blocks]
    return overlap_connected(support, (1 << len(blocks)) - 1)


def _generator(category, J, d):
    """Where l(d) is supercompact, (k, walk) for the first x0 in G_d whose
    principal sieve holds M_d, in the first block k with x0.e_k = x0: the
    element x0 of R_d(e_k) generates R_d.  Per block j, walk lists the
    pairs (s, x0.s) over the s in Fix_j & maximal(a_k), the distinct
    s = w.e_j for w: a_j -> a_k.  None where l(d) is not supercompact.
    Memoised on the category per topology and object."""
    return fact(category, ("generator", J.minimal, d), _find_generator, J, d)


def _find_generator(category, J, d):
    blocks, fixed, _ = _blocks(category, J)
    M = J.minimal[d]
    for x0 in bits(fixed & category.maximal_sieve(d)):
        if not M & ~category.principal_sieve(x0):
            break
    else:
        return None
    k = next(k for k, (_, _, fix) in enumerate(blocks) if fix >> x0 & 1)
    table, into = category.table, category.maximal_sieve(blocks[k][0])
    return k, tuple(
        tuple((s, table[x0, s]) for s in bits(fix & into)) for _, _, fix in blocks
    )


def _yoneda_maps(category, J, generator, c):
    """The natural maps R_d -> R_c, for the generator (k, walk) of R_d: one
    per y in R_c(e_k) for which x0.s |-> y.s is well defined on every block
    (module docstring), as the per-block dicts from the elements of R_d to
    their images in R_c, both as arrows of C.  Ascending by y."""
    k, walk = generator
    table = category.table
    for y in bits(_blocks(category, J)[0][k][2] & category.maximal_sieve(c)):
        images = tuple(_image(table, y, pairs) for pairs in walk)
        if None not in images:
            yield images


def _image(table, y, pairs):
    """The dict z |-> y.s over the (s, z) pairs, or None where one z meets
    two images."""
    image = {}
    for s, z in pairs:
        v = table[y, s]
        if image.setdefault(z, v) != v:
            return None
    return image


def _is_monic(images):
    """Injective on every block, hence monic (module docstring)."""
    return all(len(set(image.values())) == len(image) for image in images)


def _kernel_pair_fits(category, J, images):
    """|W| <= |into_E(e_i)| for some e_i where the kernel pair W is
    nonempty, which every supercompact W meets.  |W| is the sum over the
    blocks of the squared fibre sizes of the map (module docstring)."""
    size = sum(n * n for image in images for n in Counter(image.values()).values())
    into = Counter(k for _, _, k in _site_arrows(category, J))
    return size <= max(into[i] for i, image in enumerate(images) if image)


def _kernel_pair_is_supercompact(category, J, d, c, images):
    """The kernel pair of the map R_d -> R_c with these images is
    supercompact: refused by count, else built on E_D and decided there."""
    if not _kernel_pair_fits(category, J, images):
        return False
    W, _, _ = kernel_pair(_natural_map(category, J, d, c, images))
    return _properties(W)["supercompact"]


def _natural_map(category, J, d, c, images):
    """The map R_d -> R_c on E_D whose per-block images are given as arrows
    of C; the elements of R_d(e_j) and R_c(e_j) are ascending arrows."""
    components = []
    for (_, _, fix), image in zip(_blocks(category, J)[0], images):
        index = {x: i for i, x in enumerate(bits(fix & category.maximal_sieve(c)))}
        components.append(tuple(index[image[z]] for z in sorted(image)))
    return NatTransformation._trusted(
        restricted_representable(category, J, d),
        restricted_representable(category, J, c),
        tuple(components),
    )


def representable_sizes(category, J, c):
    """The value sizes of the sheafified representable at c: hom(d, c) where
    M_d is maximal, otherwise the number of natural maps R_d -> R_c, which
    is 0 or 1 where R_c is subterminal (`_count_maps`)."""
    return tuple(
        len(category.hom(d, c))
        if M == category.maximal_sieve(d)
        else _count_maps(category, J, d, c)
        for d, M in enumerate(J.minimal)
    )


def _count_maps(category, J, d, c):
    """The number of natural maps R_d -> R_c.  Where R_c is subterminal it
    is 1 if the support of R_d lies in that of R_c and 0 otherwise (module
    docstring).  Else it is read off a generator of R_d where there is one,
    and counted on E_D with the compatible-family solver where there is
    none."""
    supports = _blocks(category, J)[2]
    target, subterminal = supports[c]
    if subterminal:
        return int(not supports[d][0] & ~target)
    generator = _generator(category, J, d)
    if generator is None:
        return len(
            presheaf_homs(
                restricted_representable(category, J, d),
                restricted_representable(category, J, c),
            )
        )
    return sum(1 for _ in _yoneda_maps(category, J, generator, c))


def presheaf_site(category, J):
    """E_D for J = J_D as a finite category, memoised on the category per
    topology.  Its objects are the least idempotents e_k, ascending by
    retract class, and its arrows the triples (u, j, k) of u: e_j -> e_k,
    ascending by k, then j, then u."""
    return fact(category, ("presheaf-site", J.minimal), _presheaf_site, J)


def _site_arrows(category, J):
    """E_D's arrows u: e_j -> e_k as triples (u, j, k), ascending by k, then
    j, then u: the u in R_{a_k}(e_j) = Fix_j & maximal(a_k) with e_k.u = u
    (module docstring)."""
    blocks = _blocks(category, J)[0]
    table = category.table
    return [
        (u, j, k)
        for k, (b, ek, _) in enumerate(blocks)
        for j, (_, _, fix) in enumerate(blocks)
        for u in bits(fix & category.maximal_sieve(b))
        if table[ek, u] == u
    ]


def _presheaf_site(category, J):
    blocks, table = _blocks(category, J)[0], category.table
    morphisms = _site_arrows(category, J)
    index = {m: f for f, m in enumerate(morphisms)}
    into = [[] for _ in blocks]
    for f, (_, _, k) in enumerate(morphisms):
        into[k].append(f)
    composites = {
        (g, f): index[table[v, u], j, l]
        for g, (v, k, l) in enumerate(morphisms)
        for f in into[k]
        for u, j, _ in [morphisms[f]]
    }
    return FiniteCategory(
        [e for _, e, _ in blocks],
        morphisms,
        [j for _, j, _ in morphisms],
        [k for _, _, k in morphisms],
        [index[e, k, k] for k, (_, e, _) in enumerate(blocks)],
        composites,
    )


def restricted_representable(category, J, c):
    """R_c, the representable at c restricted to E_D, as a presheaf on
    `presheaf_site`; memoised on the category per topology and object."""
    return fact(category, ("restricted", J.minimal, c), _restricted, J, c)


def _restricted(category, J, c):
    E = presheaf_site(category, J)
    table, into = category.table, category.maximal_sieve(c)
    values = [tuple(bits(fix & into)) for _, _, fix in _blocks(category, J)[0]]
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


def _properties(R):
    """The atom, indecomposable and supercompact verdicts of a presheaf R on
    E_D, read off its orbits (`_verdicts`)."""
    start, orbits = R._orbits
    return _verdicts(orbits, (1 << start[-1]) - 1)


def _verdicts(orbits, full):
    """The atom, indecomposable and supercompact verdicts of a presheaf on
    E_D, read off the orbit masks of its elements and the mask `full` of
    all of them (module docstring).  The component of the first element is
    its orbit grown by every orbit that meets it."""
    return {
        "atom": bool(full) and all(orbit == full for orbit in orbits),
        "indecomposable": overlap_connected(orbits, full),
        "supercompact": full in orbits,
    }
