"""Site-level classification, comparison along dense subcategories, and the
aggregated report.

Licensing labels used for derived topos-level properties:

* "site-to-representable transfer": a site-class hypothesis forces a
  property of every representable sheaf.
* "separating-set characterization": a property of all representable
  sheaves (they form a separating set) characterizes a property of the
  whole sheaf category.
* "rigid-site presheaf equivalence": rigidity is equivalent to (or, without
  the hypotheses, sufficient for) the sheaf category being a presheaf topos
  over the irreducibles.

Several report tasks read the same site facts, so each is computed once and
memoised on the category (`category.fact`): `is_cartesian`, `has_right_ore`
and `is_cauchy_complete` per category, and `j_irreducible_objects`,
`is_rigid` and `is_subcanonical` per topology, keyed by its least sieves.

The report's "rigid site" transfer is written, not checked, as it is a
theorem.  Let I be the full subcategory on the J-irreducible objects, those
c with M_c maximal.  Rigidity is density condition (i) for I, and (ii)
follows as I is full: for f: c -> d with d in I, f.g lies in I exactly when
dom g does.  By the comparison lemma (Johnstone, Elephant C2.2.3),
restriction is then an equivalence Sh(C, J) -> Sh(I, J_I), and the induced
J_I is trivial: if the C-sieve generated by a sieve S on c in I holds 1_c,
then 1_c = f.h with f in S and h in I, so 1_c is in S.  M_d is maximal at
each d in I, so both plus units are bijective there, and the unit restricts
to a natural isomorphism y_I(c) = a(y c)|I: each irreducible's sheaf
restricts to a representable, an indecomposable projective.
"""

from collections import namedtuple

from .category import bits, fact, has_right_ore, is_cartesian, is_cauchy_complete
from .density import is_dense
from .errors import NotDense
from .objects import (
    rep_is_coherent,
    rep_is_irreducible,
    rep_is_regular,
    rep_is_supercompact,
    representable_properties,
    terminal_is_indecomposable,
)
from .presheaf import Presheaf, presheaf_homs, yoneda
from .sheaf import is_subcanonical, representable_sizes, sheafify
from .sieves import generate_mask, is_sieve_connected
from .topology import atomic_topology, induced_topology

TRANSFER = "site-to-representable transfer"
SEPARATING = "separating-set characterization"
RIGID_EQUIVALENCE = "rigid-site presheaf equivalence"


class SiteVerdict(
    namedtuple("SiteVerdict", "ok witness degenerate", defaults=(None, False))
):
    __slots__ = ()

    def __bool__(self):
        return self.ok


def is_locally_connected_site(category, J):
    """Every covering sieve is connected (the empty sieve is not).

    The witness is the first disconnected covering sieve, by object and then
    ascending mask: on c, M_c if it is disconnected, else the least
    M_c | principal(f) over the f into c with principal(f) disjoint from
    M_c, and none if there is no such f (as where M_c is maximal).

    Proof.  Two disjoint sieves are not joined in their union: f.g lies in
    the part of f.  So each such M_c | principal(f) is a disconnected cover.
    A disconnected S containing a connected M_c has a component apart from
    M_c's, a sieve as f is joined to each f.g.  For f in it, principal(f)
    misses M_c, and M_c | principal(f) lies in S, so its mask is no larger.
    """
    for c, M in enumerate(J.minimal):
        if M == category.maximal_sieve(c):
            continue
        if is_sieve_connected(category, M):
            principals = map(category.principal_sieve, category.into(c))
            M = min((M | P for P in principals if not M & P), default=None)
        if M is not None:
            return SiteVerdict(False, (category.objects[c], _names(category, M)))
    return SiteVerdict(True)


def _names(category, mask):
    return sorted(category.morphisms[f] for f in bits(mask))


def is_atomic_site(category, J):
    """The right Ore condition holds and J is the atomic topology."""
    ore = has_right_ore(category)
    if not ore:
        return SiteVerdict(False, ("right-ore", ore.counterexample))
    atomic = atomic_topology(category)
    if J.minimal != atomic.minimal:
        return SiteVerdict(False, ("covering-differs",))
    return SiteVerdict(True)


def j_irreducible_objects(category, J):
    """Objects whose only covering sieve is the maximal one; memoised on the
    category per topology."""
    return fact(category, ("irreducible", J.minimal), _j_irreducible_objects, J)


def _j_irreducible_objects(category, J):
    return tuple(
        c
        for c in range(len(category.objects))
        if rep_is_irreducible(category, J, c)
    )


def irreducibles_sieve_mask(category, J, c):
    irr = set(j_irreducible_objects(category, J))
    arrows = [
        f for f in category.into(c) if category.dom[f] in irr
    ]
    return generate_mask(category, arrows)


def is_rigid(category, J):
    """The sieve generated by all arrows out of irreducibles covers every
    object; memoised on the category per topology."""
    return fact(category, ("rigid", J.minimal), _is_rigid, J)


def _is_rigid(category, J):
    for c in range(len(category.objects)):
        if not J.covers(c, irreducibles_sieve_mask(category, J, c)):
            return SiteVerdict(False, category.objects[c])
    return SiteVerdict(True)


def is_coherent_site(category, J):
    """Cartesian base with a finite-type topology.

    Finite categories only have finitely generated sieves, so the
    finite-type half is degenerate and flagged as such.
    """
    cart = is_cartesian(category)
    if not cart:
        return SiteVerdict(False, ("cartesian", cart.failure), degenerate=True)
    return SiteVerdict(True, degenerate=True)


class RegularSiteVerdict(
    namedtuple(
        "RegularSiteVerdict",
        "cartesian strict covering_variant witness",
        defaults=(None,),
    )
):
    """Two readings of "every covering sieve is generated by one arrow".

    strict: some member arrow generates the sieve itself.
    covering_variant: some member arrow generates a covering sieve.
    """

    __slots__ = ()

    @property
    def ok(self):
        return self.cartesian and self.strict

    def __bool__(self):
        return self.ok


def is_regular_site(category, J):
    """The strict witness is the first covering sieve, by object and then
    ascending mask, that is not principal (no member arrow generates it):
    on c, M_c if it is not principal, else the least P | Q that is not
    principal, P a principal sieve containing M_c and Q one on c, and none
    if every such union is principal (as where M_c is maximal).

    Proof.  Each such P | Q is a non-principal cover.  Let S be the least
    non-principal covering sieve, M_c principal.  Covering sieves strictly
    inside S are principal, as their masks are smaller.  Take P principal,
    inclusion-maximal among those in S that contain M_c, and f in S outside
    P.  P | principal(f) is a covering sieve in S strictly above P, so it is
    not principal, so it is S.
    """
    cart = is_cartesian(category)
    witness = None
    for c, M in enumerate(J.minimal):
        if M == category.maximal_sieve(c):
            continue
        principal = set(map(category.principal_sieve, category.into(c)))
        if M in principal:
            unions = {P | Q for P in principal if not M & ~P for Q in principal}
            M = min(unions - principal, default=None)
        if M is not None:
            witness = (category.objects[c], _names(category, M))
            break
    variant = all(
        rep_is_supercompact(category, J, c)
        for c in range(len(category.objects))
    )
    return RegularSiteVerdict(bool(cart), witness is None, variant, witness)


# ---------------------------------------------------------------------------
# Comparison along a dense subcategory.


def _precompose(realized, F):
    """F precomposed with the inclusion of the realized subcategory: its
    values at the subcategory's objects and arrows."""
    sizes = tuple(
        F.sizes[realized.parent_object(d)]
        for d in range(len(realized.category.objects))
    )
    actions = tuple(
        F.actions[realized.parent_morphism(f)]
        for f in range(len(realized.category.morphisms))
    )
    return Presheaf._trusted(realized.category, sizes, actions)


def right_kan_extension(parent, realized, G):
    """Pointwise right Kan extension of G along the subcategory inclusion i.

    (Ran G)(c) = Nat(C(i-, c), G), where C(i-, c) is the representable at c
    precomposed with i, and m: c2 -> c acts by precomposing with m.- on the
    f: i d -> c2.  The natural maps are those of `presheaf_homs`, ascending
    over the elements (d, f) sorted by d and then f.
    """
    sub_objects = [
        realized.parent_object(d) for d in range(len(realized.category.objects))
    ]
    values, place = [], []
    for c in range(len(parent.objects)):
        maps = presheaf_homs(_precompose(realized, yoneda(parent, c)), G)
        values.append(tuple(t.components for t in maps))
        place.append(
            {f: i for a in sub_objects for i, f in enumerate(parent.hom(a, c))}
        )
    index = [{v: i for i, v in enumerate(vals)} for vals in values]
    actions = []
    for m in range(len(parent.morphisms)):
        c2, c = parent.dom[m], parent.cod[m]
        moved = [
            [place[c][parent.compose(m, f)] for f in parent.hom(a, c2)]
            for a in sub_objects
        ]
        tab = []
        for alpha in values[c]:
            beta = tuple(tuple(comp[i] for i in at) for comp, at in zip(alpha, moved))
            tab.append(index[c2][beta])
        actions.append(tuple(tab))
    return Presheaf._trusted(parent, tuple(map(len, values)), tuple(actions))


class ComparisonFunctors(
    namedtuple("ComparisonFunctors", "category topology sub realized sub_topology")
):
    """restrict/extend between sheaves on the parent and on a dense sub."""

    __slots__ = ()

    def restrict(self, F):
        """Precompose with the inclusion: values at subcategory objects."""
        return _precompose(self.realized, F)

    def extend(self, G):
        """Right Kan extension along the inclusion, then sheafify."""
        ran = right_kan_extension(self.category, self.realized, G)
        sheafed, _ = sheafify(self.category, self.topology, ran)
        return sheafed


def comparison_functors(category, J, sub):
    verdict = is_dense(category, J, sub)
    if not verdict:
        raise NotDense(
            "subcategory is not dense; first failure %r" % (verdict.failures[0],)
        )
    sub_topology = induced_topology(category, J, sub)
    return ComparisonFunctors(
        category, J, sub, sub.realize(), sub_topology
    )


# ---------------------------------------------------------------------------
# The presheaf-type verdict.


def presheaf_type_test(category, J):
    """Is the sheaf category a presheaf topos?

    Under subcanonicity plus retract-closure of the representables (checked
    as Cauchy completeness of the base), rigidity decides the question both
    ways.  Without the hypotheses only "rigid implies yes" is asserted.

    A Cauchy-complete site is rigid, so without rigidity the hypotheses
    fail.  Proof: J is J_D (see `topology.py`); each e in D splits, e = s.r
    with r.s = 1_a, so 1_a = r.e.s is in D, a is irreducible, and each
    generator g.e = (g.s).r of M_c factors through it.
    """
    rigid = is_rigid(category, J)
    subcanonical = is_subcanonical(category, J)
    cauchy = is_cauchy_complete(category)
    hypotheses = bool(subcanonical) and bool(cauchy)
    irr = j_irreducible_objects(category, J)
    out = {
        "rigid": bool(rigid),
        "hypotheses": {
            "subcanonical": bool(subcanonical),
            "representables_retract_closed": bool(cauchy),
        },
        "irreducible_objects": [category.objects[c] for c in irr],
    }
    if rigid:
        out["is_presheaf_topos"] = True
        out["via"] = RIGID_EQUIVALENCE
        out["direction"] = "both" if hypotheses else "forward-only"
    else:
        out["is_presheaf_topos"] = None
        out["via"] = "inapplicable"
        out["direction"] = "forward-only"
        out["note"] = (
            "not rigid and hypotheses fail: no verdict is licensed"
        )
    return out


# ---------------------------------------------------------------------------
# The aggregated report.

REPORT_SCHEMA = "finsite-report/1"

# The report is assembled from the rules below.  A class entry reads
# "holds" and the named witness field off its verdict.  A derived topos
# verdict (`_derived`) is a sufficient condition on the representable
# separating set, never a decision: "holds" is True or null.  The locally
# connected rule in particular reads null on 386 of the 564 topologies that
# the oracle tests compare with their presheaf sites, though a sheaf topos
# on a finite site is always locally connected.  A transfer is listed when
# its site class holds, and verified when every representable sheaf has
# the named reading; the rigid one is a theorem (module docstring).
CLASS_WITNESS = (
    ("locally_connected", "witness"),
    ("atomic", "witness"),
    ("rigid", "witness"),
    ("coherent", "witness"),
    ("regular", "witness"),
    ("subcanonical", "witness"),
    ("cartesian", "failure"),
    ("right_ore", "counterexample"),
    ("cauchy_complete", "witness"),
)

TRANSFERS = (
    ("locally_connected", "locally connected site",
     "all representable sheaves indecomposable", "indecomposable"),
    ("atomic", "atomic site", "all representable sheaves are atoms", "atom"),
    ("rigid", "rigid site",
     "irreducibles restrict to indecomposable projectives", None),
    ("regular", "regular site", "all representable sheaves regular", "regular"),
    ("coherent", "coherent site", "all representable sheaves coherent", "coherent"),
)


def _object_properties(category, J, c):
    # decided on the presheaf site E_D, where the sheafified representable
    # is the restricted one and no sheaf is built (see `sheaf.py`)
    coh = rep_is_coherent(category, J, c)
    reg = rep_is_regular(category, J, c)
    props = representable_properties(category, J, c)
    return {
        **props,
        # covering sieves of a finite category are finite
        "compact": {"holds": True, "degenerate": True},
        "irreducible": rep_is_irreducible(category, J, c),
        # the orbit verdict is `rep_is_supercompact` (objects.py)
        "supercompact_by_sieves": props["supercompact"],
        "coherent": {
            "holds": bool(coh),
            "degenerate": coh.degenerate,
            "probe_restricted": coh.probe_restricted,
        },
        "regular": {
            "holds": bool(reg),
            "probe_restricted": reg.probe_restricted,
        },
        "values": dict(zip(category.objects, representable_sizes(category, J, c))),
    }


def classify_report(category, J, name="site", include_objects=True, mapper=None):
    """Full classification bundle as a deterministic dict.

    mapper: an optional map-compatible callable (e.g. a thread pool's map);
    results are keyed, so the assembly order never depends on it.  The
    tasks share the site facts memoised on the category (see the module
    docstring): each is computed once, by the first task that needs it,
    also when the tasks run on several threads.
    """
    if mapper is None:
        mapper = map

    tasks = [
        ("locally_connected", lambda: is_locally_connected_site(category, J)),
        ("atomic", lambda: is_atomic_site(category, J)),
        ("rigid", lambda: is_rigid(category, J)),
        ("coherent", lambda: is_coherent_site(category, J)),
        ("regular", lambda: is_regular_site(category, J)),
        ("subcanonical", lambda: is_subcanonical(category, J)),
        ("cartesian", lambda: is_cartesian(category)),
        ("right_ore", lambda: has_right_ore(category)),
        ("cauchy_complete", lambda: is_cauchy_complete(category)),
        ("presheaf_type", lambda: presheaf_type_test(category, J)),
    ]
    if include_objects:
        for c in range(len(category.objects)):
            tasks.append(
                (
                    ("object", c),
                    lambda c=c: _object_properties(category, J, c),
                )
            )

    results = dict(mapper(_run_task, tasks))

    classes = {}
    for key, field in CLASS_WITNESS:
        verdict = results[key]
        entry = classes[key] = {"holds": bool(verdict)}
        if key == "coherent":
            entry["degenerate_finite_type"] = True
        elif key == "regular":
            entry["single_arrow_strict"] = verdict.strict
            entry["single_arrow_covering"] = verdict.covering_variant
            entry["readings_agree"] = verdict.strict == verdict.covering_variant
        entry["witness"] = getattr(verdict, field)

    irr = j_irreducible_objects(category, J)
    report = {
        "schema": REPORT_SCHEMA,
        "site": name,
        "category": {
            "objects": len(category.objects),
            "morphisms": len(category.morphisms),
        },
        "classes": classes,
        "irreducible_objects": [category.objects[c] for c in irr],
        "degeneracies": [
            "compactness is identically true at finite scale",
            "finite-type condition is identically true for finite categories",
        ],
        "presheaf_type": results["presheaf_type"],
    }
    if not include_objects:
        return report

    entries = [results[("object", c)] for c in range(len(category.objects))]
    report["objects"] = dict(zip(category.objects, entries))
    every = {
        "indecomposable": all(o["indecomposable"] for o in entries),
        "atom": all(o["atom"] for o in entries),
        "regular": all(o["regular"]["holds"] for o in entries),
    }
    # the terminal sheaf, decided on the presheaf site (objects.py)
    terminal_ok = terminal_is_indecomposable(category, J)
    cartesian = bool(results["cartesian"])
    unlicensed = (
        "not licensed: a representable sheaf fails the probe"
        if cartesian
        else "not licensed: base is not cartesian"
    )
    pt = results["presheaf_type"]
    report["derived"] = [
        _derived("locally connected topos", every["indecomposable"],
                 "every representable sheaf is indecomposable",
                 "not licensed: a representable sheaf is decomposable"),
        _derived("connected and locally connected topos",
                 every["indecomposable"] and terminal_ok,
                 "representables and the terminal sheaf are indecomposable",
                 "not licensed: a representable or the terminal sheaf is decomposable"),
        _derived("atomic topos", every["atom"],
                 "every representable sheaf is an atom",
                 "not licensed: a representable sheaf is not an atom"),
        _derived("regular topos", cartesian and every["regular"],
                 "cartesian base with every representable sheaf regular", unlicensed),
        _derived("coherent topos", cartesian,
                 "cartesian base with every representable sheaf coherent", unlicensed),
        {
            "property": "presheaf topos",
            "holds": pt["is_presheaf_topos"],
            "evidence": "rigidity decision (%s)" % (pt["direction"],),
            "licensed_by": pt["via"],
        },
    ]

    transfers = report["transfers"] = []
    for key, source, claim, reading in TRANSFERS:
        if results[key]:
            entry = {"from": source, "claim": claim, "verified": every.get(reading, True)}
            if reading is None:
                entry["induced_topology_trivial"] = True
            entry["licensed_by"] = TRANSFER
            transfers.append(entry)
    return report


def _derived(prop, premise, evidence, otherwise):
    # a failed representable check licenses nothing: another separating
    # set could still satisfy the predicate, so "holds" is then null
    return {
        "property": prop,
        "holds": True if premise else None,
        "evidence": evidence if premise else otherwise,
        "licensed_by": SEPARATING,
    }


def _run_task(task):
    key, fn = task
    return key, fn()
