"""Sheaves on a finite site: matching families, the plus construction,
sheafification, the presheaf site E_D with the sizes of the sheafified
representables, and subcanonicity.

The associated sheaf functor is the plus construction applied twice,
unconditionally.  The plus construction is a colimit of matching families
over the covering sieves on c, and on a finite site that colimit is attained
at the least covering sieve M_c (Mac Lane-Moerdijk, Sheaves in Geometry and
Logic, III.5): P+(c) is the set of matching families for P on M_c, in
ascending order.  The sheaf condition is likewise checked on M_c alone.

Two facts spare the search for matching families:

- A sieve on c that holds 1_c is the maximal sieve, and a matching family on
  it is determined by its value x at 1_c: it is the tuple of restrictions
  (P(f)x) over the arrows f of the sieve.  So the families there are the
  restriction tuples of the elements of P(c), sorted, and the unit of the
  plus construction sends x to the position of its own tuple.
- P is a sheaf exactly when the unit P -> P+ is bijective, that is when
  every matching family on each M_c has exactly one amalgamation.  The unit
  P+ -> P++ is always injective, as P+ is separated, so the composite unit
  P -> P++ that `sheafify` returns is bijective exactly when P -> P+ is:
  the sheafify command reads its verdict off that unit instead of running
  `is_sheaf`.  P+ itself need not be a sheaf (it is one when P is
  separated), so the second plus is always applied.

A plus step reads the topology off a frame memoised per category and least
sieves (`category.fact`, shared by `--jobs` threads): the arrows of each
M_c, whether it is maximal, and per non-identity h: d -> c the positions in
M_c of the h.g, g in M_d.  So every sheafification under one topology
shares one.

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

and a(y c)(d) = Nat(y d, a(y c)) = Nat(a(y d), a(y c)) = Nat(R_d, R_c),
since y(1_d)|E_D = R_d.  Where M_d is maximal both plus units are
bijective at d (above), so that value is hom(d, c) (`representable_sizes`).

E_D and R_c are read off C's composition table and its principal sieves.
Let a_k = dom e_k, Fix_k the arrows x out of a_k with x.e_k = x
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
- E_D's arrows e_j -> e_k are the u in R_{a_k}(e_j) with e_k.u = u, as
  e_k.u.e_j = u means u.e_j = u = e_k.u.  Each u in R_{a_k}(e_j) gives
  e_k.u in E(e_j, e_k), as e_k.u.e_j = e_k.u and e_k.e_k = e_k.  So the
  support of R_{a_k} (below) is the set of the j with an arrow e_j -> e_k,
  k among them.
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
- Yoneda for a cyclic source.  Where a(y d) is supercompact there is an
  x0 in G_d with principal(x0) = M_d (`objects.py`); take k with x0 in
  Fix_k.  The orbit of (k, x0) is all of R_d, so u |-> x0.u maps E(-, e_k)
  onto R_d.  A natural map t: R_d -> R_c is then fixed by y = t(k, x0) in
  R_c(e_k), with t(x0.u) = y.u.  A y in R_c(e_k) gives a map exactly when
  x0.u = x0.u' implies y.u = y.u' for all u, u': e_j -> e_k, and the map
  is natural as (x0.u).v = x0.(u.v).  For w: dom e_j -> dom e_k the arrows
  s = w.e_j give x0.s = x0.(e_k.w.e_j) and y.s = y.(e_k.w.e_j), and each u
  is such an s, so the walk runs over the s in Fix_j & maximal(a_k).

The sizes |a(y c)(d)| = |Nat(R_d, R_c)| for M_d not maximal are then 0 or
1 by the supports where R_c is subterminal, read off a generator of R_d
where there is one, and counted with the compatible-family solver on E_D
where there is none (`_count_maps`).

Subcanonicity.  J is subcanonical exactly when, for every c and every x
with M_x not maximal, u |-> (u.g for g in G_x) is injective on hom(x, c)
and |hom(x, c)| = |a(y c)(x)|.  Proof, for one c: y(c) is a sheaf exactly
when its unit y(c) -> a(y c) is bijective at every x, as a sheaf is
isomorphic to its sheafification through the unit, and a presheaf
isomorphic to a sheaf is one.  Where M_x is maximal the unit is bijective
at x, as both plus units are.  Elsewhere, under the identification
a(y c)(x) = Nat(y x, a(y c)) = Nat(R_x, R_c) above, the unit sends u to
the unit composed with y(u), that is to r(y u), since r inverts the
unit: the map R_x -> R_c that sends (j, z) to (j, u.z).  That map is
fixed by the u.g over the arrows g in G_x under the elements of R_x, so
the unit is injective at x exactly when u |-> (u.g for g in G_x) is
injective on hom(x, c), and an injection between finite sets is a
bijection exactly when both have one size.  So going through c in
ascending order names the first c whose representable is not a sheaf,
the witness that running `is_sheaf` on each y(c) names.  Where every M_x
is maximal there is nothing to check.
"""

from collections import Counter, namedtuple
from functools import reduce
from operator import or_

from .category import FiniteCategory, bits, fact
from .errors import NotASheaf
from .presheaf import (
    NatTransformation,
    Presheaf,
    compatible_families,
    compose_nat,
    presheaf_homs,
    yoneda,
)
from .topology import _retract_classes


def _restrictions(P, c, arrows):
    """Per element x of P(c), in order, the tuple (P(f)x) over the ascending
    arrows f of a sieve on c."""
    columns = [P.actions[f] for f in arrows]
    if not columns:
        return ((),) * P.sizes[c]
    return tuple(zip(*columns))


def matching_families(category, P, c, mask):
    """All matching families for P on the sieve mask over c.

    A family assigns to each arrow f in the sieve an element of P(dom f),
    compatibly: the value at f-after-g is the g-image of the value at f.
    Families are the compatible families on the arrows of the sieve, returned
    as tuples aligned with the ascending arrow indices of the mask, in
    ascending order.
    """
    arrows = tuple(bits(mask))
    pos = {f: i for i, f in enumerate(arrows)}
    edges = [
        [
            (P.actions[g], pos[category.compose(f, g)])
            for g in category.into(category.dom[f])
            if not category.is_identity(g)
        ]
        for f in arrows
    ]
    sizes = [P.sizes[category.dom[f]] for f in arrows]
    return tuple(compatible_families(sizes, edges))


class SheafVerdict(namedtuple("SheafVerdict", "ok witness", defaults=((),))):
    __slots__ = ()

    def __bool__(self):
        return self.ok


def is_sheaf(category, J, P):
    """Exactly one amalgamation per matching family on each M_c.

    A presheaf that is a sheaf for every M_d is one for every covering
    sieve, since each contains M_c.  Maximal M_c are skipped: their families
    are the elements of P(c) and always amalgamate uniquely.  The
    amalgamations of a family are the elements whose restriction tuple it
    is, so each M_c counts the tuples of P(c) once.  The verdict is memoised
    on P per least sieves, so the object predicates that each require A to
    be a sheaf check it once.
    """
    verdicts = P._sheaf_verdicts
    verdict = verdicts.get(J.minimal)
    if verdict is None:
        verdict = verdicts[J.minimal] = _is_sheaf(category, J, P)
    return verdict


def _is_sheaf(category, J, P):
    for c, S in enumerate(J.minimal):
        if S == category.maximal_sieve(c):
            continue
        counts = Counter(_restrictions(P, c, tuple(bits(S))))
        for family in matching_families(category, P, c, S):
            n = counts[family]
            if n != 1:
                return SheafVerdict(False, (c, S, family, n))
    return SheafVerdict(True)


def _plus_frame(category, J):
    """The topology's part of a plus step (module docstring); positions are
    None at identities."""
    arrows = tuple(tuple(bits(M)) for M in J.minimal)
    maximal = tuple(M == category.maximal_sieve(c) for c, M in enumerate(J.minimal))
    pos = [{f: i for i, f in enumerate(a)} for a in arrows]
    table = category.table
    at = tuple(
        None
        if category.identity[c] == h
        else tuple(pos[c][table[h, g]] for g in arrows[d])
        for h, (d, c) in enumerate(zip(category.dom, category.cod))
    )
    return arrows, maximal, at


def _plus(category, J, P):
    """One plus construction step, with its unit map.

    h: d -> c sends a family on M_c to its values at h-after-g for g in M_d,
    which lies in h^*M_c; the unit sends x to its restrictions along M_c.
    Where M_c is maximal those restrictions are the families themselves.
    Identities act as identities.
    """
    arrows, maximal, at = fact(category, ("plus", J.minimal), _plus_frame, J)
    rests = [_restrictions(P, c, a) for c, a in enumerate(arrows)]
    fams = [
        tuple(sorted(rest))
        if maximal[c]
        else matching_families(category, P, c, J.minimal[c])
        for c, rest in enumerate(rests)
    ]
    index = [{fam: k for k, fam in enumerate(f)} for f in fams]
    actions = tuple(
        tuple(range(len(fams[c])))
        if at[h] is None
        else tuple(index[d][tuple([fam[i] for i in at[h]])] for fam in fams[c])
        for h, (d, c) in enumerate(zip(category.dom, category.cod))
    )
    plus = Presheaf._trusted(category, tuple(len(f) for f in fams), actions)
    units = tuple(tuple(map(index[c].__getitem__, r)) for c, r in enumerate(rests))
    return plus, NatTransformation._trusted(P, plus, units)


def sheafify(category, J, P):
    """Associated sheaf with its unit, by applying plus twice."""
    once, unit1 = _plus(category, J, P)
    twice, unit2 = _plus(category, J, once)
    return twice, compose_nat(unit2, unit1)


def representable_sheaf(category, J, c):
    """Sheafification of the representable at object index c, memoised on
    the category."""
    return fact(category, ("rep-sheaf", J.minimal, c), _representable_sheaf, J, c)


def _representable_sheaf(category, J, c):
    return sheafify(category, J, yoneda(category, c))[0]


class SubcanonicalVerdict(
    namedtuple("SubcanonicalVerdict", "ok witness", defaults=(None,))
):
    """witness: the name of the object whose representable fails."""

    __slots__ = ()

    def __bool__(self):
        return self.ok


def is_subcanonical(category, J):
    """Every representable presheaf is a sheaf; memoised on the category per
    topology.

    Decided off C's arrows and the sizes of the sheafified representables
    (module docstring).  Where every M_d is maximal, as under the trivial
    topology, there is nothing to check and nothing is read.
    """
    return fact(category, ("subcanonical", J.minimal), _is_subcanonical, J)


def _is_subcanonical(category, J):
    if all(M == category.maximal_sieve(d) for d, M in enumerate(J.minimal)):
        return SubcanonicalVerdict(True)
    fixed, table = _blocks(category, J)[1], category.table
    sieves = [
        (x, tuple(bits(fixed & category.maximal_sieve(x))))
        for x, M in enumerate(J.minimal)
        if M != category.maximal_sieve(x)
    ]
    for c in range(len(category.objects)):
        homs = [(x, G, category.hom(x, c)) for x, G in sieves]
        if all(
            len({tuple([table[u, g] for g in G]) for u in hom}) == len(hom)
            for _, G, hom in homs
        ):
            sizes = representable_sizes(category, J, c)
            if all(len(hom) == sizes[x] for x, _, hom in homs):
                continue
        return SubcanonicalVerdict(False, category.objects[c])
    return SubcanonicalVerdict(True)


def require_sheaf(category, J, P, what="presheaf"):
    verdict = is_sheaf(category, J, P)
    if not verdict:
        raise NotASheaf(
            "%s is not a sheaf for this topology (witness %r)"
            % (what, verdict.witness)
        )


# ---------------------------------------------------------------------------
# The presheaf site E_D, read off C's arrows (module docstring).


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


def representable_sizes(category, J, c):
    """The value sizes of the sheafified representable at c: hom(d, c) where
    M_d is maximal, otherwise the number of natural maps R_d -> R_c, which
    is 0 or 1 where R_c is subterminal (`_count_maps`).  Memoised on the
    category per topology and object, so the report's values and
    `is_subcanonical` count each R_d -> R_c once."""
    return fact(category, ("sizes", J.minimal, c), _representable_sizes, J, c)


def _representable_sizes(category, J, c):
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
