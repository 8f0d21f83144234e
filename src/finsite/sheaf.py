"""Sheaves on a finite site: matching families, the plus construction,
sheafification and subcanonicity.

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
M_c of the h.g, g in M_d.  So the representables of a report share one.
"""

from __future__ import annotations

from dataclasses import dataclass

from .category import bits, fact
from .errors import NotASheaf
from .presheaf import (
    NatTransformation,
    Presheaf,
    compatible_families,
    compose_nat,
    yoneda,
)


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


def amalgamations(category, P, c, mask, family):
    arrows = tuple(bits(mask))
    out = []
    for x in range(P.sizes[c]):
        if all(
            P.apply(f, x) == family[i] for i, f in enumerate(arrows)
        ):
            out.append(x)
    return out


@dataclass(frozen=True)
class SheafVerdict:
    ok: bool
    witness: tuple = ()

    def __bool__(self):
        return self.ok


def is_sheaf(category, J, P):
    """Exactly one amalgamation per matching family on each M_c.

    A presheaf that is a sheaf for every M_d is one for every covering
    sieve, since each contains M_c.  Maximal M_c are skipped: their families
    are the elements of P(c) and always amalgamate uniquely.
    """
    for c, S in enumerate(J.minimal):
        if S == category.maximal_sieve(c):
            continue
        for family in matching_families(category, P, c, S):
            n = len(amalgamations(category, P, c, S, family))
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
    key = (J.minimal, c)
    sheaf = category._rep_sheaves.get(key)
    if sheaf is None:
        sheaf, _ = sheafify(category, J, yoneda(category, c))
        category._rep_sheaves[key] = sheaf
    return sheaf


@dataclass(frozen=True)
class SubcanonicalVerdict:
    ok: bool
    witness: object = None  # object name whose representable fails

    def __bool__(self):
        return self.ok


def is_subcanonical(category, J):
    """Every representable presheaf is a sheaf; memoised on the category per
    topology.

    Where every M_d is maximal, as under the trivial topology, `is_sheaf`
    has no sieve to check, so every presheaf is a sheaf and no representable
    is built.
    """
    return fact(category, ("subcanonical", J.minimal), _is_subcanonical, J)


def _is_subcanonical(category, J):
    if all(M == category.maximal_sieve(d) for d, M in enumerate(J.minimal)):
        return SubcanonicalVerdict(True)
    for c in range(len(category.objects)):
        if not is_sheaf(category, J, yoneda(category, c)):
            return SubcanonicalVerdict(False, category.objects[c])
    return SubcanonicalVerdict(True)


def require_sheaf(category, J, P, what="presheaf"):
    verdict = is_sheaf(category, J, P)
    if not verdict:
        raise NotASheaf(
            "%s is not a sheaf for this topology (witness %r)"
            % (what, verdict.witness)
        )
