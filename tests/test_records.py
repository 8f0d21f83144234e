"""The record types: how they are built, compared, hashed and printed.

The value records (verdicts, reports, density witnesses) are named
tuples; the types that keep memos beside their fields, and `SiteFile`, are
plain classes.  Each keeps the constructor it has always had, positional
and by keyword with its defaults, and compares field by field.
"""

import subprocess
import sys
from collections import namedtuple

import pytest

from finsite.category import (
    CartesianReport,
    CauchyReport,
    OreReport,
    RealizedSubcategory,
    Subcategory,
    full_subcategory,
    whole_subcategory,
)
from finsite.classify import ComparisonFunctors, RegularSiteVerdict, SiteVerdict
from finsite.corpus import corpus, named_site
from finsite.density import DenseFamily, DensityFailure, DensityVerdict
from finsite.objects import ProbeVerdict, SubobjectLattice
from finsite.presheaf import NatTransformation, Presheaf, terminal_presheaf
from finsite.sheaf import SheafVerdict, SubcanonicalVerdict
from finsite.siteio import SiteFile, parse_site, serialize_site
from finsite.topology import (
    GrothendieckTopology,
    TopologyVerdict,
    _RetractClasses,
    enumerate_topologies,
    trivial_topology,
)

# args: every field, positionally; change: fields whose other values still
# make a valid instance, unequal to the first; defaults: the values of the
# trailing fields a call may leave out
Case = namedtuple("Case", "cls args change defaults", defaults=((),))


def _cases():
    site = named_site("arrow-j2")
    cat, J, P = site.category, site.topology, site.presheaves["P"]
    T = terminal_presheaf(cat)
    sub, left = whole_subcategory(cat), full_subcategory(cat, ["a"])
    realized, left_realized = sub.realize(), left.realize()
    lattice = enumerate_topologies(cat)
    identity = tuple(tuple(range(n)) for n in P.sizes)
    to_terminal = tuple((0,) * n for n in P.sizes)
    return [
        Case(Subcategory, (cat, 3, 7), {"objects_mask": 1, "morphisms_mask": 1}),
        Case(
            RealizedSubcategory,
            (cat, realized.category, (0, 1), (0, 1, 2)),
            {"category": left_realized.category, "object_to_parent": (0,),
             "morphism_to_parent": (0,)},
        ),
        Case(CartesianReport, (False, 0, None, None, ("product", "a", "b")),
             {"ok": True}, (None, None, None, None)),
        Case(OreReport, (False, ("f", "g")), {"ok": True}, (None,)),
        Case(CauchyReport, (False, "e"), {"ok": True}, (None,)),
        Case(DensityFailure, ("ii", "morphism", "f"), {"witness": "g"}),
        Case(DensityVerdict, (False, (DensityFailure("i", "object", "a"),)),
             {"dense": True, "failures": ()}),
        Case(DenseFamily, (lattice, (0, 1), 0), {"minimum_index": 1}),
        Case(GrothendieckTopology, (cat, J.minimal),
             {"minimal": trivial_topology(cat).minimal}),
        Case(TopologyVerdict, (False, "stability", (0, 1, 2)), {"ok": True}, ("", ())),
        Case(_RetractClasses, ((1, 2), ((0, 0),), (1,), (1,)), {"maximal": (1, 2, 4)}),
        Case(Presheaf, (cat, P.sizes, P.actions),
             {"sizes": T.sizes, "actions": T.actions}),
        Case(NatTransformation, (P, P, identity),
             {"target": T, "components": to_terminal}),
        Case(SubobjectLattice, (cat, J, T, ((0, 0), (1, 1))), {"elements": ((1, 1),)}),
        Case(ProbeVerdict, (False, False, False, ("supercompact", "a")), {"ok": True},
             (True, None)),
        Case(SheafVerdict, (False, (0, 1, 1)), {"ok": True}, ((),)),
        Case(SubcanonicalVerdict, (False, "a"), {"ok": True}, (None,)),
        Case(SiteVerdict, (False, ("a", ("f",)), True), {"ok": True}, (None, False)),
        Case(RegularSiteVerdict, (True, False, True, ("b", ("f",))), {"strict": True},
             (None,)),
        Case(ComparisonFunctors, (cat, J, sub, realized, J),
             {"sub_topology": trivial_topology(realized.category)}),
        Case(SiteFile, ("s", cat, J, {"whole": sub}, {"P": P}), {"name": "t"},
             (None, {}, {})),
    ]


CASES = _cases()


@pytest.mark.parametrize("case", CASES, ids=[case.cls.__name__ for case in CASES])
def test_records_build_compare_and_print_field_by_field(case):
    cls, args = case.cls, case.args
    fields = cls._fields
    assert len(fields) == len(args)
    x = cls(*args)
    y = cls(**dict(zip(fields, args)))
    assert [getattr(x, name) for name in fields] == list(args)
    assert x == y and not x != y
    other = cls(**{**dict(zip(fields, args)), **case.change})
    assert x != other and other != x
    assert x != object()
    assert repr(x).startswith(cls.__name__ + "(")

    if case.defaults:
        short = cls(*args[: len(args) - len(case.defaults)])
        n = len(case.defaults)
        assert tuple(getattr(short, name) for name in fields[-n:]) == case.defaults

    if "__bool__" in vars(cls):
        # each case is built failing and changed to holding
        assert bool(x) is False and bool(other) is True

    if cls is SiteFile:  # mutable, and so unhashable
        with pytest.raises(TypeError):
            hash(x)
        y.name = other.name
        assert y == other
        return
    assert hash(x) == hash(y)
    for name in (fields[0], "unknown"):
        with pytest.raises(AttributeError):
            setattr(x, name, args[0])
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert x == y
    if issubclass(cls, tuple):
        assert x == tuple(args)


def test_site_files_round_trip_to_equal_site_files():
    for site in corpus(seed=3, random_count=3):
        back = parse_site(serialize_site(site))
        assert back == site and not back != site
        assert back is not site


def test_importing_finsite_loads_neither_dataclasses_nor_inspect():
    code = (
        "import sys, finsite, finsite.cli, finsite.corpus; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert proc.stdout == "[]\n"
