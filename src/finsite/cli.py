"""Command line interface.

Exit codes: 0 success, 1 mathematical validation failure (category laws,
topology axioms, missing structure), 2 search-space bound exceeded,
3 unreadable input (bad JSON, unknown names, file errors) or a usage error.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import threading
from dataclasses import asdict

from .classify import classify_report
from .density import is_dense, topologies_with_dense
from .errors import (
    FinsiteError,
    ParseError,
    SizeBoundExceeded,
    UnknownName,
    UnknownObject,
)
from .sheaf import sheafify
from .siteio import (
    canonical_json,
    load_site,
    presheaf_data,
    save_site,
    site_data,
)
from .topology import enumerate_topologies


def _emit(args, data, text_renderer=None):
    if args.format == "json":
        sys.stdout.write(canonical_json(data))
    elif text_renderer is not None:
        sys.stdout.write(text_renderer(data))
    else:
        sys.stdout.write(_render_text(data))


def _render_text(data, indent=0):
    """Generic deterministic text rendering of the JSON-shaped data."""
    pad = "  " * indent
    out = []
    if isinstance(data, dict):
        for key in data:
            value = data[key]
            if isinstance(value, (dict, list)) and value:
                out.append("%s%s:\n" % (pad, key))
                out.append(_render_text(value, indent + 1))
            else:
                out.append("%s%s: %s\n" % (pad, key, _scalar(value)))
    elif isinstance(data, list):
        for value in data:
            if isinstance(value, (dict, list)) and value:
                out.append("%s-\n" % pad)
                out.append(_render_text(value, indent + 1))
            else:
                out.append("%s- %s\n" % (pad, _scalar(value)))
    else:
        out.append("%s%s\n" % (pad, _scalar(data)))
    return "".join(out)


def _render_lists(data):
    """Text form of data holding `describe()` results.  `_render_text`
    prints a tuple inline, as it prints the classify witnesses; the covering
    sieves, which `describe()` shares as tuples, print as lists do."""

    def lists(value):
        if isinstance(value, dict):
            return {key: lists(v) for key, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [lists(v) for v in value]
        return value

    return _render_text(lists(data))


def _scalar(value):
    if value is None:
        return "none"
    if value is True:
        return "yes"
    if value is False:
        return "no"
    if isinstance(value, (list, tuple)):
        return "[%s]" % ", ".join(_scalar(v) for v in value)
    if isinstance(value, dict) and not value:
        return "{}"
    return str(value)


def _require_topology(site):
    if site.topology is None:
        raise ParseError("site %r has no topology block" % (site.name,))
    return site.topology


def _named_subcategory(site, name):
    try:
        return site.subcategories[name]
    except KeyError:
        raise UnknownName(
            "site %r has no subcategory %r (have %s)"
            % (site.name, name, ", ".join(sorted(site.subcategories)) or "none")
        ) from None


def _named_presheaf(site, name):
    try:
        return site.presheaves[name]
    except KeyError:
        raise UnknownName(
            "site %r has no presheaf %r (have %s)"
            % (site.name, name, ", ".join(sorted(site.presheaves)) or "none")
        ) from None


def cmd_validate(args):
    site = load_site(args.file)
    data = {
        "site": site.name,
        "ok": True,
        "category": {
            "objects": len(site.category.objects),
            "morphisms": len(site.category.morphisms),
        },
        "topology": None,
        "subcategories": sorted(site.subcategories),
        "presheaves": sorted(site.presheaves),
    }
    if site.topology is not None:
        data["topology"] = {
            "covering_sieves": sum(
                len(masks) for masks in site.topology.covering
            ),
        }
    _emit(args, data)


def cmd_topologies(args):
    site = load_site(args.file)
    lattice = enumerate_topologies(site.category, args.max_assignments)
    data = {
        "site": site.name,
        "count": len(lattice.elements),
        "topologies": [J.describe() for J in lattice.elements],
    }
    if site.topology is not None:
        data["file_topology_index"] = lattice.index_of(site.topology)
    _emit(args, data, _render_lists)


def cmd_dense(args):
    site = load_site(args.file)
    J = _require_topology(site)
    sub = _named_subcategory(site, args.sub)
    verdict = is_dense(site.category, J, sub)
    data = {
        "site": site.name,
        "sub": args.sub,
        "dense": verdict.dense,
        "failures": [asdict(f) for f in verdict.failures],
    }
    if args.enumerate:
        family = topologies_with_dense(site.category, sub)
        data["family"] = {
            "size": len(family.member_indices),
            "of": len(family.lattice.elements),
            "members": list(family.member_indices),
            "minimum_index": family.minimum_index,
            "minimum": family.minimum.describe(),
        }
    _emit(args, data, _render_lists)


def cmd_sheafify(args):
    site = load_site(args.file)
    J = _require_topology(site)
    P = _named_presheaf(site, args.presheaf)
    F, unit = sheafify(site.category, J, P)
    # P is a sheaf exactly when its unit into the associated sheaf is
    # bijective (see sheaf.py)
    injective = unit.is_componentwise_injective()
    surjective = unit.is_componentwise_surjective()
    data = {
        "site": site.name,
        "presheaf": args.presheaf,
        "already_sheaf": injective and surjective,
        "sheaf": presheaf_data(F),
        "unit": {
            "components": [list(comp) for comp in unit.components],
            "injective": injective,
            "surjective": surjective,
        },
    }
    _emit(args, data)


def cmd_classify(args):
    site = load_site(args.file)
    J = _require_topology(site)
    data = classify_report(
        site.category, J, name=site.name, include_objects=False
    )
    _emit(args, data)


def _strided_map(jobs, fn, tasks):
    """map(fn, tasks) over `jobs` threads: task i runs in share i mod jobs,
    share 0 on the calling thread and each other nonempty share on a
    thread of its own, so at most len(tasks) - 1 threads start.  The
    results keep task order, and the first task to raise, in task order,
    raises here, as with an executor's map: each share stops at its first
    failure, after every task of its own before it has succeeded."""
    tasks = list(tasks)
    results = [None] * len(tasks)
    failed = []

    def run(k):
        for i in range(k, len(tasks), jobs):
            try:
                results[i] = fn(tasks[i])
            except BaseException as exc:  # raised again on the caller
                failed.append((i, exc))
                return

    shares = range(1, min(jobs, len(tasks)))
    threads = [threading.Thread(target=run, args=(k,)) for k in shares]
    for thread in threads:
        thread.start()
    run(0)
    for thread in threads:
        thread.join()
    if failed:
        raise min(failed, key=lambda item: item[0])[1]
    return results


def cmd_report(args):
    site = load_site(args.file)
    J = _require_topology(site)
    data = classify_report(
        site.category,
        J,
        name=site.name,
        include_objects=True,
        mapper=functools.partial(_strided_map, args.jobs) if args.jobs > 1 else None,
    )
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(canonical_json(data))
        sys.stdout.write("wrote %s\n" % args.out)
    else:
        sys.stdout.write(canonical_json(data))


def cmd_corpus(args):
    from .corpus import corpus

    sites = corpus(seed=args.seed, random_count=args.count)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
    manifest = {"seed": args.seed, "sites": []}
    for site in sites:
        entry = {
            "name": site.name,
            "objects": len(site.category.objects),
            "morphisms": len(site.category.morphisms),
        }
        if args.out:
            path = os.path.join(args.out, "%s.json" % site.name)
            save_site(site, path)
            entry["path"] = path
        manifest["sites"].append(entry)
    if args.format == "json" and not args.out:
        # without --out the JSON form lists the sites themselves
        manifest["sites"] = [site_data(site) for site in sites]
    _emit(args, manifest)


def _integer_at_least(low):
    """An argparse type: an integer no smaller than low.  Anything else is a
    usage error, whose message names the option."""

    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError("invalid int value: %r" % (text,)) from None
        if value < low:
            raise argparse.ArgumentTypeError("must be at least %d, got %d" % (low, value))
        return value

    return parse


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 3, as unreadable input does; argparse's own 2 is
    the code for an exceeded size bound."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, "%s: error: %s\n" % (self.prog, message))


@functools.cache
def build_parser():
    """The argument parser, built once per process: parsing leaves it
    unchanged, so every call of `main` shares it."""
    parser = _Parser(
        prog="finsite",
        description="Grothendieck topologies, sheaves and site classification "
        "on finite categories.",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default text)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a site file against all laws")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("topologies", help="enumerate every topology on the category")
    p.add_argument("file")
    p.add_argument(
        "--max-assignments",
        type=_integer_at_least(0),
        default=None,
        help="override the bound on candidate sieves the topology search tries",
    )
    p.set_defaults(func=cmd_topologies)

    p = sub.add_parser("dense", help="test a named subcategory for density")
    p.add_argument("file")
    p.add_argument("--sub", required=True, help="subcategory name from the file")
    p.add_argument(
        "--enumerate",
        action="store_true",
        help="also enumerate all topologies making it dense",
    )
    p.set_defaults(func=cmd_dense)

    p = sub.add_parser("sheafify", help="sheafify a named presheaf from the file")
    p.add_argument("file")
    p.add_argument("--presheaf", required=True, help="presheaf name from the file")
    p.set_defaults(func=cmd_sheafify)

    p = sub.add_parser("classify", help="site-level classification summary")
    p.add_argument("file")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("report", help="full classification report as JSON")
    p.add_argument("file")
    p.add_argument("--out", default=None, help="write the report to this path")
    p.add_argument(
        "--jobs",
        type=_integer_at_least(1),
        default=1,
        help="worker threads for per-object checks (output is identical)",
    )
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("corpus", help="emit the built-in site corpus")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--count", type=_integer_at_least(0), default=4, help="random sites to append"
    )
    p.add_argument("--out", default=None, help="directory for one file per site")
    p.set_defaults(func=cmd_corpus)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except ParseError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 3
    except (UnknownName, UnknownObject) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 3
    except OSError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 3
    except SizeBoundExceeded as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    except FinsiteError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
