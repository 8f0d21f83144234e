"""Command line interface.

Exit codes: 0 success, 1 mathematical validation failure (category laws,
topology axioms, missing structure), 2 search-space bound exceeded,
3 unreadable input (bad JSON, unknown names, file errors) or a usage error.
"""

import functools
import os
import re
import sys
import threading
from collections import namedtuple
from types import MappingProxyType, SimpleNamespace

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


def _emit(args, data):
    if args.format == "json":
        sys.stdout.write(canonical_json(data))
    else:
        sys.stdout.write(_render_text(data))


def _render_text(data, indent=0):
    """Generic deterministic text rendering of the JSON-shaped data.

    The value of a "witness" key prints inline, as one line; every other
    nonempty list, tuple or dict prints as a block, one item a line.  Dict
    keys print in insertion order, not sorted as in the JSON form, so the
    order in which a command builds its dicts (the classify report's among
    them) is part of its text output."""
    pad = "  " * indent
    out = []
    if isinstance(data, dict):
        for key in data:
            value = data[key]
            if key != "witness" and isinstance(value, (dict, list, tuple)) and value:
                out.append("%s%s:\n" % (pad, key))
                out.append(_render_text(value, indent + 1))
            else:
                out.append("%s%s: %s\n" % (pad, key, _scalar(value)))
    elif isinstance(data, (list, tuple)):
        for value in data:
            if isinstance(value, (dict, list, tuple)) and value:
                out.append("%s-\n" % pad)
                out.append(_render_text(value, indent + 1))
            else:
                out.append("%s- %s\n" % (pad, _scalar(value)))
    else:
        out.append("%s%s\n" % (pad, _scalar(data)))
    return "".join(out)


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


def _named(site, what, table, name):
    """table[name], the subcategory or presheaf (`what`) of that name."""
    try:
        return table[name]
    except KeyError:
        raise UnknownName(
            "site %r has no %s %r (have %s)"
            % (site.name, what, name, ", ".join(sorted(table)) or "none")
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
    _emit(args, data)


def cmd_dense(args):
    site = load_site(args.file)
    J = _require_topology(site)
    sub = _named(site, "subcategory", site.subcategories, args.sub)
    verdict = is_dense(site.category, J, sub)
    data = {
        "site": site.name,
        "sub": args.sub,
        "dense": verdict.dense,
        "failures": [f._asdict() for f in verdict.failures],
    }
    if args.enumerate:
        family = topologies_with_dense(site.category, sub)
        data["family"] = {
            "size": len(family.member_indices),
            "of": len(family.lattice),
            "members": list(family.member_indices),
            "minimum_index": family.minimum_index,
            "minimum": family.minimum.describe(),
        }
    _emit(args, data)


def cmd_sheafify(args):
    site = load_site(args.file)
    J = _require_topology(site)
    P = _named(site, "presheaf", site.presheaves, args.presheaf)
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


# One option of the command table: `flag VALUE` stores convert(VALUE) under
# dest, where convert raises ValueError with the usage error's text, and a
# value outside `choices` (when given) is refused; a flag (convert None)
# stores True and takes no value.
_Option = namedtuple(
    "_Option", "flag dest help convert default required choices",
    defaults=(str, None, False, ()),
)
# A subcommand, or finsite itself: what it runs, its help, its options and
# the dest of its positional (None for none).
_Command = namedtuple("_Command", "func help options positional", defaults=((), "file"))


def _shown(option):
    """An option as its usage line shows it."""
    if option.convert is None:
        return option.flag
    if option.choices:
        return "%s {%s}" % (option.flag, ",".join(option.choices))
    return "%s %s" % (option.flag, option.dest.upper())


def _int(text):
    try:
        return int(text)
    except ValueError:
        raise ValueError("invalid int value: %r" % (text,)) from None


def _at_least(low):
    def convert(text):
        value = _int(text)
        if value < low:
            raise ValueError("must be at least %d, got %d" % (low, value))
        return value

    return convert


_HELP = _Option("--help", None, "show this help message and exit", None)
# finsite itself, whose positional names the subcommand that reads the rest
_FINSITE = _Command(
    None,
    "Grothendieck topologies, sheaves and site classification on finite categories.",
    (_Option("--format", "format", "output format (default text)",
             default="text", choices=("text", "json")),),
    "command",
)
_COMMANDS = MappingProxyType({
    "validate": _Command(cmd_validate, "check a site file against all laws"),
    "topologies": _Command(cmd_topologies, "enumerate every topology on the category", (
        _Option("--max-assignments", "max_assignments",
                "override the bound on candidate sieves the topology search tries",
                _at_least(0)),
    )),
    "dense": _Command(cmd_dense, "test a named subcategory for density", (
        _Option("--sub", "sub", "subcategory name from the file", required=True),
        _Option("--enumerate", "enumerate",
                "also enumerate all topologies making it dense", None, False),
    )),
    "sheafify": _Command(cmd_sheafify, "sheafify a named presheaf from the file", (
        _Option("--presheaf", "presheaf", "presheaf name from the file", required=True),
    )),
    "classify": _Command(cmd_classify, "site-level classification summary"),
    "report": _Command(cmd_report, "full classification report as JSON", (
        _Option("--out", "out", "write the report to this path"),
        _Option("--jobs", "jobs",
                "worker threads for per-object checks (output is identical)",
                _at_least(1), 1),
    )),
    "corpus": _Command(cmd_corpus, "emit the built-in site corpus", (
        _Option("--seed", "seed", "seed of the random sites", _int, 0),
        _Option("--count", "count", "random sites to append", _at_least(0), 4),
        _Option("--out", "out", "directory for one file per site"),
    ), None),
})
# argparse reads these as values, not as options
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


class _UsageError(Exception):
    """args: the subcommand whose usage was broken (None for finsite
    itself) and the message."""


def _prog(name):
    return "finsite" if name is None else "finsite " + name


def _usage(name):
    command = _FINSITE if name is None else _COMMANDS[name]
    parts = ["usage:", _prog(name), "[-h]"]
    parts += [_shown(o) if o.required else "[%s]" % _shown(o) for o in command.options]
    if name is None:
        parts.append("{%s} ..." % ",".join(_COMMANDS))
    elif command.positional:
        parts.append(command.positional)
    return " ".join(parts) + "\n"


def _help(name):
    command = _FINSITE if name is None else _COMMANDS[name]
    if name is None:
        positionals = [(key, _COMMANDS[key].help) for key in _COMMANDS]
    else:
        positionals = [("file", "the site file")] if command.positional else []
    rows = [("-h, --help", _HELP.help)] + [(_shown(o), o.help) for o in command.options]
    width = max(len(left) for left, _ in positionals + rows) + 2
    text = [_usage(name), "\n", command.help, "\n"]
    for heading, section in (("positional arguments", positionals), ("options", rows)):
        if section:
            text.append("\n%s:\n" % heading)
            text.extend("  %-*s%s\n" % (width, left, right) for left, right in section)
    return "".join(text)


def _option_of(arg, options, name):
    """How argparse reads one argument among a level's options: None for a
    value (or positional), else (option, explicit value or None), with
    option None for an unknown one.  A long option may be shortened to any
    prefix that names one option."""
    if arg[:1] != "-" or arg == "-":
        return None
    flag, eq, explicit = arg.partition("=")
    if not eq:
        explicit = None
    if flag == "-h":
        return _HELP, explicit
    hits = [o for o in options if o.flag == flag]
    if not hits and arg[1] == "-":
        hits = [o for o in options if o.flag.startswith(flag)]
        if len(hits) > 1:
            raise _UsageError(name, "ambiguous option: %s could match %s"
                              % (arg, ", ".join(o.flag for o in hits)))
    if hits:
        return hits[0], explicit
    if _NEGATIVE_NUMBER.match(arg) or " " in arg:
        return None
    return None, None


def _take(option, explicit, argv, i, options, ns, name):
    """Applies `option`, read at argv[i - 1] with `explicit` after its "=",
    and returns the index of the next argument."""
    if option.convert is None:
        if explicit is not None:
            raise _UsageError(name, "argument %s: ignored explicit argument %r"
                              % ("-h/--help" if option is _HELP else option.flag, explicit))
        if option is _HELP:
            sys.stdout.write(_help(name))
            raise SystemExit(0)
        setattr(ns, option.dest, True)
        return i
    if explicit is None:
        if i == len(argv) or argv[i] == "--" or _option_of(argv[i], options, name) is not None:
            raise _UsageError(name, "argument %s: expected one argument" % option.flag)
        explicit = argv[i]
        i += 1
    try:
        value = option.convert(explicit)
    except ValueError as exc:
        raise _UsageError(name, "argument %s: %s" % (option.flag, exc)) from None
    if option.choices and value not in option.choices:
        raise _UsageError(name, "argument %s: %s" % (option.flag, _invalid(value, option.choices)))
    setattr(ns, option.dest, value)
    return i


def _invalid(value, choices):
    return "invalid choice: %r (choose from %s)" % (value, ", ".join(map(repr, choices)))


def _scan(name, argv, ns):
    """Reads argv into ns as argparse reads it at one level, finsite itself
    (name None) or a subcommand, and returns the arguments the level does
    not know.  Options come in any order around the positional and "--"
    ends them; argparse also swallows a "--" next to the positional, or
    before it."""
    command = _FINSITE if name is None else _COMMANDS[name]
    options = (_HELP, *command.options)
    positional = command.positional
    for option in command.options:
        setattr(ns, option.dest, option.default)
    extras, given = [], set()
    filled = None  # the index just after the positional
    rest = False  # past "--"
    i = 0
    while i < len(argv):
        arg = argv[i]
        i += 1
        if arg == "--" and not rest:
            rest = True
            if not positional or filled not in (None, i - 1):
                extras.append(arg)
            continue
        hit = None if rest else _option_of(arg, options, name)
        if hit is None and positional and filled is None:
            if name is None:  # the subcommand; the rest of argv is its own
                if arg not in _COMMANDS:
                    raise _UsageError(None, "argument command: " + _invalid(arg, _COMMANDS))
                ns.command, ns.func = arg, _COMMANDS[arg].func
                return extras + _scan(arg, argv[i:], ns)
            setattr(ns, positional, arg)
            filled = i
        elif hit is None or hit[0] is None:
            extras.append(arg)
        else:
            given.add(hit[0].dest)
            i = _take(*hit, argv, i, options, ns, name)
    missing = [positional] if positional and filled is None else []
    missing += [o.flag for o in command.options if o.required and o.dest not in given]
    if missing:
        raise _UsageError(name, "the following arguments are required: " + ", ".join(missing))
    return extras


def _parse_argv(argv):
    """The namespace `main` runs: format, command, func and the options of
    the command, read from argv as argparse would read it; a usage error
    exits 3 and --help exits 0."""
    ns = SimpleNamespace(command=None)
    try:
        extras = _scan(None, argv, ns)
        if extras:
            raise _UsageError(None, "unrecognized arguments: " + " ".join(extras))
    except _UsageError as exc:
        name, message = exc.args
        sys.stderr.write("%s%s: error: %s\n" % (_usage(name), _prog(name), message))
        raise SystemExit(3) from None
    return ns


def main(argv=None):
    args = _parse_argv(sys.argv[1:] if argv is None else argv)
    try:
        args.func(args)
    except (ParseError, UnknownName, UnknownObject, OSError) as exc:
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
