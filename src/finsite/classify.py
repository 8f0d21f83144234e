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

from __future__ import annotations

from dataclasses import dataclass

from .category import bits, fact, has_right_ore, is_cartesian, is_cauchy_complete
from .density import is_dense
from .errors import NotDense
from .objects import (
    _is_supercompact,
    _subobjects,
    is_atom,
    is_indecomposable,
    rep_is_coherent,
    rep_is_compact,
    rep_is_irreducible,
    rep_is_regular,
    rep_is_supercompact,
)
from .presheaf import Presheaf, compatible_families, terminal_presheaf
from .sheaf import is_subcanonical, representable_sheaf, sheafify
from .sieves import Sieve, generate_mask, is_sieve_connected
from .topology import atomic_topology, induced_topology

TRANSFER = "site-to-representable transfer"
SEPARATING = "separating-set characterization"
RIGID_EQUIVALENCE = "rigid-site presheaf equivalence"


@dataclass(frozen=True)
class SiteVerdict:
    ok: bool
    witness: object = None
    degenerate: bool = False

    def __bool__(self):
        return self.ok


def is_locally_connected_site(category, J):
    """Every covering sieve is connected (the empty sieve is not).

    The covering sieves on c are scanned in ascending order, M_c first, but
    two rules skip an object whose sieves are all connected:

    - M_c is maximal.  It is then the only covering sieve, and it holds 1_c,
      to which each of its arrows f is joined (f = 1_c.f).
    - M_c is connected and no arrow into c starts at an object d with M_d
      empty.  Each f: d -> c of a covering sieve S then reaches M_c: take k
      in M_d; f^*M_c covers d, so contains M_d, and f.k lies in M_c and in
      S, joined to f by k.
    """
    minimal = J.minimal
    for c, M in enumerate(minimal):
        if M == category.maximal_sieve(c):
            continue
        if is_sieve_connected(category, Sieve(c, M)) and all(
            minimal[category.dom[f]] for f in category.into(c)
        ):
            continue
        for S in J.covering_masks(c):
            if not is_sieve_connected(category, Sieve(c, S)):
                names = sorted(category.morphisms[f] for f in bits(S))
                return SiteVerdict(False, (category.objects[c], names))
    return SiteVerdict(True)


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


@dataclass(frozen=True)
class RegularSiteVerdict:
    """Two readings of "every covering sieve is generated by one arrow".

    strict: some member arrow generates the sieve itself.
    covering_variant: some member arrow generates a covering sieve.
    """

    cartesian: bool
    strict: bool
    covering_variant: bool
    witness: object = None

    @property
    def ok(self):
        return self.cartesian and self.strict

    def __bool__(self):
        return self.ok


def is_regular_site(category, J):
    """The witness is the first covering sieve, by object and then ascending
    mask, that no member arrow generates.  Where M_c is maximal it is the
    only covering sieve on c, generated by 1_c, so that object is skipped.
    """
    cart = is_cartesian(category)
    witness = next(
        (
            (category.objects[c], sorted(category.morphisms[f] for f in bits(S)))
            for c, M in enumerate(J.minimal)
            if M != category.maximal_sieve(c)
            for S in J.covering_masks(c)
            if not any(category.principal_sieve(f) == S for f in bits(S))
        ),
        None,
    )
    variant = all(
        rep_is_supercompact(category, J, c)
        for c in range(len(category.objects))
    )
    return RegularSiteVerdict(bool(cart), witness is None, variant, witness)


# ---------------------------------------------------------------------------
# Comparison along a dense subcategory.


def right_kan_extension(parent, realized, G):
    """Pointwise right Kan extension of G along the subcategory inclusion.

    The value at a parent object c is the set of compatible families over
    pairs (d, f) with d a subcategory object and f: d -> c in the parent,
    where compatibility transports values along subcategory arrows.  The
    families come from `compatible_families`, in ascending order over the
    pairs sorted by d and then f.
    """
    Dcat = realized.category
    pair_lists = []
    pair_index = []
    values = []
    for c in range(len(parent.objects)):
        pairs = [
            (d, f)
            for d in range(len(Dcat.objects))
            for f in parent.hom(realized.parent_object(d), c)
        ]
        index = {p: i for i, p in enumerate(pairs)}
        edges = [[] for _ in pairs]
        for i, (d, f) in enumerate(pairs):
            # h: d2 -> d carries the value at (d, f) to the one at (d2, f h)
            for h in Dcat.into(d):
                if not Dcat.is_identity(h):
                    fh = parent.compose(f, realized.parent_morphism(h))
                    edges[i].append((G.actions[h], index[(Dcat.dom[h], fh)]))
        pair_lists.append(pairs)
        pair_index.append(index)
        sizes = [G.sizes[d] for d, _ in pairs]
        values.append(tuple(compatible_families(sizes, edges)))

    value_index = [
        {v: i for i, v in enumerate(vals)} for vals in values
    ]
    sizes = tuple(len(v) for v in values)
    actions = []
    for m in range(len(parent.morphisms)):
        c2, c = parent.dom[m], parent.cod[m]
        tab = []
        for alpha in values[c]:
            beta = tuple(
                alpha[pair_index[c][(d, parent.compose(m, g))]]
                for (d, g) in pair_lists[c2]
            )
            tab.append(value_index[c2][beta])
        actions.append(tuple(tab))
    return Presheaf(parent, sizes, tuple(actions))


@dataclass(frozen=True)
class ComparisonFunctors:
    """restrict/extend between sheaves on the parent and on a dense sub."""

    category: object
    topology: object
    sub: object
    realized: object
    sub_topology: object

    def restrict(self, F):
        """Precompose with the inclusion: values at subcategory objects."""
        realized = self.realized
        sizes = tuple(
            F.sizes[realized.parent_object(d)]
            for d in range(len(realized.category.objects))
        )
        actions = tuple(
            F.actions[realized.parent_morphism(f)]
            for f in range(len(realized.category.morphisms))
        )
        return Presheaf._trusted(realized.category, sizes, actions)

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
# Separating-set checks and the presheaf-type verdict.


def separating_set_check(category, J, predicate):
    """Does every representable sheaf satisfy the predicate?

    predicate: "indecomposable" or "atom".  The representables form a
    separating set of the sheaf category, which is what licenses reading
    topos-level structure off this check.
    """
    checks = {
        "indecomposable": is_indecomposable,
        "atom": is_atom,
    }
    try:
        check = checks[predicate]
    except KeyError:
        raise ValueError("predicate must be one of %r" % (sorted(checks),))
    return all(
        check(category, J, representable_sheaf(category, J, c))
        for c in range(len(category.objects))
    )


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


def _object_properties(category, J, c):
    # representable sheaves are sheaves by construction: nothing to check
    rep = representable_sheaf(category, J, c)
    lattice = _subobjects(category, J, rep)
    coh = rep_is_coherent(category, J, c)
    reg = rep_is_regular(category, J, c)
    compact = rep_is_compact(category, J, c)
    return {
        "atom": lattice.is_atom(),
        "indecomposable": lattice.is_indecomposable(),
        "supercompact": _is_supercompact(category, J, rep),
        "compact": {"holds": bool(compact), "degenerate": compact.degenerate},
        "irreducible": rep_is_irreducible(category, J, c),
        "supercompact_by_sieves": rep_is_supercompact(category, J, c),
        "coherent": {
            "holds": bool(coh),
            "degenerate": coh.degenerate,
            "probe_restricted": coh.probe_restricted,
        },
        "regular": {
            "holds": bool(reg),
            "probe_restricted": reg.probe_restricted,
        },
        "values": {
            category.objects[d]: rep.sizes[d]
            for d in range(len(category.objects))
        },
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

    lc = results["locally_connected"]
    atomic = results["atomic"]
    rigid = results["rigid"]
    coherent = results["coherent"]
    regular = results["regular"]
    subcanonical = results["subcanonical"]
    cartesian = results["cartesian"]
    ore = results["right_ore"]
    cauchy = results["cauchy_complete"]

    irr = j_irreducible_objects(category, J)
    report = {
        "schema": REPORT_SCHEMA,
        "site": name,
        "category": {
            "objects": len(category.objects),
            "morphisms": len(category.morphisms),
        },
        "classes": {
            "locally_connected": {
                "holds": bool(lc),
                "witness": lc.witness,
            },
            "atomic": {"holds": bool(atomic), "witness": atomic.witness},
            "rigid": {
                "holds": bool(rigid),
                "witness": rigid.witness,
            },
            "coherent": {
                "holds": bool(coherent),
                "degenerate_finite_type": True,
                "witness": coherent.witness,
            },
            "regular": {
                "holds": regular.ok,
                "single_arrow_strict": regular.strict,
                "single_arrow_covering": regular.covering_variant,
                "readings_agree": regular.strict == regular.covering_variant,
                "witness": regular.witness,
            },
            "subcanonical": {
                "holds": bool(subcanonical),
                "witness": subcanonical.witness,
            },
            "cartesian": {
                "holds": bool(cartesian),
                "witness": cartesian.failure,
            },
            "right_ore": {
                "holds": bool(ore),
                "witness": ore.counterexample,
            },
            "cauchy_complete": {
                "holds": bool(cauchy),
                "witness": cauchy.witness,
            },
        },
        "irreducible_objects": [category.objects[c] for c in irr],
        "degeneracies": [
            "compactness is identically true at finite scale",
            "finite-type condition is identically true for finite categories",
        ],
    }

    if include_objects:
        objects = {}
        for c in range(len(category.objects)):
            objects[category.objects[c]] = results[("object", c)]
        report["objects"] = objects

        # a failed representable check licenses nothing: another separating
        # set could still satisfy the predicate, so "holds" is then null
        derived = []
        all_indec = all(
            objects[o]["indecomposable"] for o in category.objects
        )
        all_atoms = all(objects[o]["atom"] for o in category.objects)
        # the terminal presheaf is a sheaf for every topology
        terminal_ok = _subobjects(
            category, J, terminal_presheaf(category)
        ).is_indecomposable()
        derived.append(
            {
                "property": "locally connected topos",
                "holds": True if all_indec else None,
                "evidence": "every representable sheaf is indecomposable"
                if all_indec
                else "not licensed: a representable sheaf is decomposable",
                "licensed_by": SEPARATING,
            }
        )
        derived.append(
            {
                "property": "connected and locally connected topos",
                "holds": True if all_indec and terminal_ok else None,
                "evidence": "representables and the terminal sheaf are indecomposable"
                if all_indec and terminal_ok
                else "not licensed: a representable or the terminal sheaf is decomposable",
                "licensed_by": SEPARATING,
            }
        )
        derived.append(
            {
                "property": "atomic topos",
                "holds": True if all_atoms else None,
                "evidence": "every representable sheaf is an atom"
                if all_atoms
                else "not licensed: a representable sheaf is not an atom",
                "licensed_by": SEPARATING,
            }
        )
        all_regular = all(
            objects[o]["regular"]["holds"] for o in category.objects
        )
        all_coherent = all(
            objects[o]["coherent"]["holds"] for o in category.objects
        )
        derived.append(
            {
                "property": "regular topos",
                "holds": True if bool(cartesian) and all_regular else None,
                "evidence": "cartesian base with every representable sheaf regular"
                if bool(cartesian) and all_regular
                else "not licensed: base is not cartesian"
                if not cartesian
                else "not licensed: a representable sheaf fails the probe",
                "licensed_by": SEPARATING,
            }
        )
        derived.append(
            {
                "property": "coherent topos",
                "holds": True if bool(cartesian) and all_coherent else None,
                "evidence": "cartesian base with every representable sheaf coherent"
                if bool(cartesian) and all_coherent
                else "not licensed: base is not cartesian"
                if not cartesian
                else "not licensed: a representable sheaf fails the probe",
                "licensed_by": SEPARATING,
            }
        )
        pt = results["presheaf_type"]
        derived.append(
            {
                "property": "presheaf topos",
                "holds": pt["is_presheaf_topos"],
                "evidence": "rigidity decision (%s)" % (pt["direction"],),
                "licensed_by": pt["via"],
            }
        )
        report["derived"] = derived

        transfers = []
        if bool(lc):
            transfers.append(
                {
                    "from": "locally connected site",
                    "claim": "all representable sheaves indecomposable",
                    "verified": all_indec,
                    "licensed_by": TRANSFER,
                }
            )
        if bool(atomic):
            transfers.append(
                {
                    "from": "atomic site",
                    "claim": "all representable sheaves are atoms",
                    "verified": all_atoms,
                    "licensed_by": TRANSFER,
                }
            )
        if bool(rigid):
            # a theorem, by the comparison lemma (module docstring)
            transfers.append(
                {
                    "from": "rigid site",
                    "claim": "irreducibles restrict to indecomposable projectives",
                    "verified": True,
                    "induced_topology_trivial": True,
                    "licensed_by": TRANSFER,
                }
            )
        if regular.ok:
            transfers.append(
                {
                    "from": "regular site",
                    "claim": "all representable sheaves regular",
                    "verified": all_regular,
                    "licensed_by": TRANSFER,
                }
            )
        if bool(coherent):
            transfers.append(
                {
                    "from": "coherent site",
                    "claim": "all representable sheaves coherent",
                    "verified": all_coherent,
                    "licensed_by": TRANSFER,
                }
            )
        report["transfers"] = transfers

    report["presheaf_type"] = results["presheaf_type"]
    return report


def _run_task(task):
    key, fn = task
    return key, fn()
