"""Command line behaviour: exit codes, determinism, output shapes."""

import importlib
import json
import os
import subprocess
import sys
import threading

import pytest

from finsite import classify, cli
from finsite.category import full_subcategory
from finsite.cli import _strided_map, main
from finsite.corpus import corpus, named_site, poset_category
from finsite.siteio import SiteFile, load_site, save_site, serialize_site
from finsite.topology import enumerate_topologies, generated_topology

from test_minimal_oracles import filtered_dense_family

HERE = os.path.dirname(__file__)
SQUARE = os.path.join(HERE, "sites", "square-gen.site.json")


@pytest.fixture
def site_file(tmp_path):
    def write(name, mutate=None):
        doc = json.loads(serialize_site(named_site(name)))
        if mutate:
            mutate(doc)
        path = tmp_path / ("%s.json" % name)
        path.write_text(json.dumps(doc), encoding="ascii")
        return str(path)

    return write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_text_output(capsys, site_file):
    code, out, err = run(capsys, "validate", site_file("arrow-j2"))
    assert code == 0 and err == ""
    assert "ok: yes" in out
    assert "objects: 2" in out
    assert "covering_sieves: 3" in out


def test_validate_json_output(capsys, site_file):
    code, out, _ = run(capsys, "--format", "json", "validate",
                       site_file("z2-trivial"))
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    assert data["presheaves"] == ["R"]


def test_topologies_lists_the_lattice(capsys, site_file):
    code, out, _ = run(capsys, "--format", "json", "topologies",
                       site_file("arrow-j2"))
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 4
    assert data["file_topology_index"] == 2
    assert len(data["topologies"]) == 4


def test_dense_with_enumeration(capsys, site_file):
    code, out, _ = run(capsys, "--format", "json", "dense",
                       site_file("vee-cover"), "--sub", "legs",
                       "--enumerate")
    assert code == 0
    data = json.loads(out)
    assert data["dense"] is True and data["failures"] == []
    assert data["family"]["members"] == [0, 2, 4, 6]
    assert data["family"]["size"] == 4 and data["family"]["of"] == 8
    assert data["family"]["minimum_index"] == 6


@pytest.mark.parametrize(
    "golden, argv",
    [
        ("arrow-j2.topologies.txt", ["topologies"]),
        ("square-cover.topologies.txt", ["topologies"]),
        ("arrow-j2.dense-left.txt", ["dense", "--sub", "left", "--enumerate"]),
        ("square-cover.dense-sides.txt", ["dense", "--sub", "sides", "--enumerate"]),
        # tuples, such as these witnesses, print inline
        ("idem-e.classify.txt", ["classify"]),
    ],
)
def test_text_golden_bytes(capsys, site_file, golden, argv):
    with open(os.path.join(HERE, "golden", golden), encoding="ascii") as fh:
        frozen = fh.read()
    code, out, _ = run(capsys, *argv, site_file(golden.split(".")[0]))
    assert code == 0 and out == frozen


def test_dense_failure_lists_witnesses(capsys, site_file):
    code, out, _ = run(capsys, "--format", "json", "dense",
                       site_file("idem-e"), "--sub", "strict")
    assert code == 0
    data = json.loads(out)
    assert data["dense"] is False
    assert data["failures"] == [
        {"condition": "ii", "kind": "morphism", "witness": "e"}
    ]


def test_sheafify_reports_the_unit(capsys, site_file):
    code, out, _ = run(capsys, "--format", "json", "sheafify",
                       site_file("arrow-j2"), "--presheaf", "P")
    assert code == 0
    data = json.loads(out)
    assert data["already_sheaf"] is False
    assert data["sheaf"]["sizes"] == {"a": 1, "b": 1}
    assert data["unit"] == {
        "components": [[0], [0, 0]],
        "injective": False,
        "surjective": True,
    }


def test_classify_text_summary(capsys, site_file):
    code, out, _ = run(capsys, "classify", site_file("arrow-j2"))
    assert code == 0
    assert "rigid:" in out and "holds: yes" in out
    assert "subcanonical:" in out


def test_report_bytes_are_stable_across_runs_and_jobs(capsys, site_file):
    path = site_file("vee-cover")
    outputs = []
    for argv in (
        ("report", path),
        ("report", path),
        ("report", path, "--jobs", "4"),
    ):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1] == outputs[2]
    data = json.loads(outputs[0])
    assert data["schema"] == "finsite-report/1"
    assert data["objects"]["z"]["atom"] is False


@pytest.mark.parametrize("jobs", [2, 3])
def test_report_jobs_runs_the_tasks_on_that_many_threads(
    capsys, monkeypatch, site_file, jobs
):
    """Each thread waits at a barrier in its first task, so the report ends
    only if `jobs` threads run at once; the bytes are those of --jobs 1."""
    path = site_file("vee-cover")
    code, want, _ = run(capsys, "report", path)
    assert code == 0
    run_task = classify._run_task
    barrier = threading.Barrier(jobs, timeout=10)
    lock = threading.Lock()
    idents = []

    def recording(task):
        ident = threading.get_ident()
        with lock:
            first = ident not in idents
            idents.append(ident)
        if first:
            barrier.wait()
        return run_task(task)

    monkeypatch.setattr(classify, "_run_task", recording)
    code, out, _ = run(capsys, "report", path, "--jobs", str(jobs))
    assert code == 0 and out == want
    assert len(set(idents)) == jobs
    assert len(idents) == 10 + 3  # the site tasks and one per object


def test_strided_map_keeps_order_and_raises_the_first_failure():
    def square_or_fail(x):
        if x in (2, 4):
            raise ValueError(x)
        return x * x

    assert _strided_map(3, square_or_fail, [1, 3, 5, 6]) == [1, 9, 25, 36]
    with pytest.raises(ValueError) as info:
        _strided_map(3, square_or_fail, range(7))
    assert info.value.args == (2,)


def test_strided_map_makes_no_more_threads_than_tasks(monkeypatch):
    """--jobs far above the task count makes at most one thread per task
    beyond the first.  The stand-in Thread runs its target when started, on
    the calling thread, so no OS thread is ever asked for."""
    made = []

    class CountingThread:
        def __init__(self, target, args):
            made.append(args)
            self.run = lambda: target(*args)

        def start(self):
            self.run()

        def join(self):
            pass

    monkeypatch.setattr(threading, "Thread", CountingThread)
    assert _strided_map(1000, lambda x: x * x, [2, 3, 4]) == [4, 9, 16]
    assert len(made) <= 2
    made.clear()
    assert _strided_map(1000, lambda x: x * x, []) == []
    assert made == []


def test_report_golden_bytes(capsys, site_file):
    with open(os.path.join(HERE, "golden", "vee-cover.report.json"),
              encoding="ascii") as fh:
        frozen = fh.read()
    code, out, _ = run(capsys, "report", site_file("vee-cover"))
    assert code == 0 and out == frozen


def test_report_out_file(tmp_path, capsys, site_file):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "report", site_file("arrow-j2"),
                       "--out", str(target))
    assert code == 0
    assert "wrote" in out
    data = json.loads(target.read_text(encoding="ascii"))
    assert data["site"] == "arrow-j2"


def test_corpus_determinism(tmp_path, capsys):
    code, first, _ = run(capsys, "--format", "json", "corpus",
                         "--seed", "5", "--count", "2")
    assert code == 0
    code, second, _ = run(capsys, "--format", "json", "corpus",
                          "--seed", "5", "--count", "2")
    assert code == 0
    assert first == second
    data = json.loads(first)
    names = [s["name"] for s in data["sites"]]
    assert "arrow-j2" in names and len(names) == len(set(names))


def test_corpus_json_is_the_stdlib_encoding_of_the_site_files(capsys):
    code, out, _ = run(capsys, "--format", "json", "corpus",
                       "--seed", "0", "--count", "8")
    sites = [json.loads(serialize_site(s)) for s in corpus(seed=0, random_count=8)]
    assert code == 0 and out == json.dumps(
        {"seed": 0, "sites": sites}, sort_keys=True, indent=2, ensure_ascii=True
    ) + "\n"


def test_corpus_writes_files(tmp_path, capsys):
    # the directory does not exist yet; corpus creates it
    out_dir = tmp_path / "sites" / "nested"
    code, out, _ = run(capsys, "corpus", "--count", "1",
                       "--out", str(out_dir))
    assert code == 0
    written = sorted(p.name for p in out_dir.iterdir())
    assert "arrow-j2.json" in written
    code, _, _ = run(capsys, "validate", str(out_dir / "arrow-j2.json"))
    assert code == 0


def fan_site(legs):
    """A poset of `legs` legs below an apex t, which the legs cover, with
    the full subcategory on the legs named "legs"."""
    names = ["l%02d" % i for i in range(legs)]
    cat = poset_category(names + ["t"], [(leg, "t") for leg in names])
    t = cat.obj_index("t")
    J = generated_topology(cat, {t: [[cat.mor_index(leg + "->t") for leg in names]]})
    return SiteFile("fan%d" % legs, cat, J, {"legs": full_subcategory(cat, names)})


@pytest.fixture
def unlisted_sieves(monkeypatch):
    """Fail on any call of `sieve_masks_on`: the apex of an n-leg fan has
    2^n + 1 sieves, of which two cover it."""

    def unlisted(*args):
        raise AssertionError("sieve_masks_on was called")

    for module in ("finsite.topology", "finsite.sieves"):
        monkeypatch.setattr(importlib.import_module(module), "sieve_masks_on", unlisted)


def test_a_24_leg_fan_saves_validates_and_is_dense_without_listing_sieves(
    capsys, tmp_path, unlisted_sieves
):
    site = fan_site(24)
    path = tmp_path / "fan24.json"
    save_site(site, str(path))
    assert load_site(str(path)) == site
    # the same topology given by its generating family, as a file may give it
    doc = json.loads(path.read_text())
    legs_sieve = doc["topology"]["coverage"]["t"][0]
    doc["topology"] = {"generate": {"t": [legs_sieve]}}
    path.write_text(json.dumps(doc))
    assert load_site(str(path)) == site
    code, out, _ = run(capsys, "--format", "json", "validate", str(path))
    assert code == 0
    # one covering sieve on each leg, the legs sieve and the maximal one on t
    assert json.loads(out)["topology"]["covering_sieves"] == 24 + 2
    code, out, _ = run(capsys, "--format", "json", "dense", str(path), "--sub", "legs")
    assert code == 0 and json.loads(out)["dense"] is True


def test_topologies_on_a_fan_are_refused_from_15_legs(capsys, tmp_path, unlisted_sieves):
    # the n + 1 identities of an n-leg fan are retract classes with no order
    # between them, so the search visits 2^(n + 2) - 1 nodes, within the
    # default bound of 2^16 up to 14 legs.  The listing itself grows as 3^n
    # (82 MB of JSON at 12 legs), so the command runs whole on 8 legs
    assert len(enumerate_topologies(fan_site(14).category)) == 1 << 15
    for legs, want in ((8, 0), (15, 2)):
        path = str(tmp_path / ("fan%d.json" % legs))
        save_site(fan_site(legs), path)
        code, out, err = run(capsys, "--format", "json", "topologies", path)
        assert code == want
        if want:
            assert "candidate assignments" in err
        else:
            assert json.loads(out)["count"] == 1 << (legs + 1)


def test_dense_family_on_a_fan_at_the_edge_of_the_bound(capsys, tmp_path, unlisted_sieves):
    # 14 legs take 2^16 - 1 search nodes, the most the default bound admits;
    # the legs are dense under the J_D with D inside the legs' classes
    site = fan_site(14)
    members, low = filtered_dense_family(enumerate_topologies(site.category),
                                         site.subcategories["legs"])
    outcome = {}
    for legs in (14, 15):
        path = str(tmp_path / ("fan%d.json" % legs))
        save_site(fan_site(legs), path)
        outcome[legs] = run(capsys, "--format", "json", "dense", path,
                            "--sub", "legs", "--enumerate")
    code, _, err = outcome[15]
    assert code == 2 and "candidate assignments" in err
    code, out, _ = outcome[14]
    assert code == 0
    family = json.loads(out)["family"]
    assert family["of"] == 1 << 15
    assert family["size"] == len(members) == 1 << 14
    assert family["members"] == list(members)
    assert family["minimum_index"] == low
    assert family["minimum"] == json.loads(json.dumps(site.topology.describe()))


def test_generate_topology_file_round(capsys):
    code, out, _ = run(capsys, "--format", "json", "validate", SQUARE)
    assert code == 0
    data = json.loads(out)
    assert data["topology"]["covering_sieves"] == 5


def test_exit_code_1_for_law_violations(capsys, site_file):
    def break_topology(doc):
        doc["topology"]["coverage"]["b"] = [["f"]]

    path = site_file("arrow-j2", break_topology)
    code, out, err = run(capsys, "validate", path)
    assert code == 1 and "maximality" in err

    def break_presheaf(doc):
        doc["presheaves"]["P"]["actions"]["f"] = [0, 9]

    path = site_file("arrow-j2", break_presheaf)
    code, _, err = run(capsys, "validate", path)
    assert code == 1


def test_exit_code_1_for_a_presheaf_that_is_not_functorial(capsys, site_file):
    # s after s is the identity, so s cannot act as a constant
    def break_functoriality(doc):
        doc["presheaves"]["R"]["actions"]["s"] = [0, 0]

    path = site_file("z2-trivial", break_functoriality)
    for argv in (
        ("validate", path),
        ("sheafify", "--presheaf", "R", path),
        ("report", path),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert "functoriality fails at 's' after 's'" in err


def test_exit_code_1_for_density_machinery_errors(capsys, site_file):
    def drop_topology(doc):
        del doc["topology"]

    path = site_file("vee-cover", drop_topology)
    code, _, err = run(capsys, "dense", path, "--sub", "legs")
    assert code == 3 and "no topology" in err

    path = site_file("vee-cover")
    code, _, err = run(capsys, "dense", path, "--sub", "nope")
    assert code == 3 and "no subcategory" in err


def test_exit_code_2_for_size_bounds(capsys):
    code, _, err = run(capsys, "topologies", SQUARE,
                       "--max-assignments", "10")
    assert code == 2 and "candidate assignments" in err


@pytest.mark.parametrize("command", [["validate"], ["sheafify", "--presheaf", "P"]])
def test_exit_code_2_for_a_presheaf_over_the_size_bound(capsys, site_file, command):
    def huge(doc):
        doc["presheaves"] = {"P": {"sizes": {"a": 10**12, "b": 0}, "actions": {}}}

    code, out, err = run(capsys, *command, site_file("arrow-j2", huge))
    assert code == 2 and out == ""
    assert err == (
        "error: presheaf 'P' has 1000000000000 elements in all, over the bound 65536\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["topologies", "--bogus", SQUARE],
        ["dense", "--sub", "S", "--enumerate", "--max-assignments", "5", SQUARE],
        ["dense", SQUARE],
        ["frobnicate", SQUARE],
    ],
    ids=["unknown-option", "option-of-another-command", "missing-option",
         "unknown-command"],
)
def test_exit_code_3_for_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 3
    assert "usage: finsite" in capsys.readouterr().err


def test_usage_errors_and_help_exit_codes_of_the_process():
    def exit_code(*argv):
        return subprocess.run(
            [sys.executable, "-m", "finsite.cli", *argv], capture_output=True,
        ).returncode

    assert exit_code("topologies", "--bogus", SQUARE) == 3
    assert exit_code("dense", "--max-assignments", "5", "--sub", "S", SQUARE) == 3
    assert exit_code("--help") == 0
    assert exit_code("topologies", "--help") == 0

    def help_lines(*argv):
        proc = subprocess.run(
            [sys.executable, "-m", "finsite.cli", *argv, "--help"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0 and proc.stderr == ""
        return proc.stdout.splitlines()

    lines = help_lines()
    for name, command in cli._COMMANDS.items():
        assert any(name in line and command.help in line for line in lines)
    for name, command in cli._COMMANDS.items():
        lines = help_lines(name)
        for option in command.options:
            assert any(option.flag in line and option.help in line for line in lines)


def test_exit_code_3_for_a_non_integer_bound_variable(capsys, monkeypatch):
    monkeypatch.setenv("FINSITE_MAX_ASSIGNMENTS", "abc")
    code, _, err = run(capsys, "topologies", SQUARE)
    assert code == 3 and "Traceback" not in err
    assert "FINSITE_MAX_ASSIGNMENTS" in err and "'abc'" in err


@pytest.mark.parametrize(
    "argv, option",
    [
        (["topologies", SQUARE, "--max-assignments", "-1"], "--max-assignments"),
        (["report", SQUARE, "--jobs", "0"], "--jobs"),
        (["report", SQUARE, "--jobs", "-2"], "--jobs"),
        (["corpus", "--count", "-1"], "--count"),
    ],
    ids=["negative-bound", "zero-jobs", "negative-jobs", "negative-count"],
)
def test_exit_code_3_for_out_of_range_numbers(capsys, argv, option):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 3
    err = capsys.readouterr().err
    assert "usage: finsite" in err and "argument %s: must be at least" % option in err


def reference_parser():
    """The argparse parser the CLI was built on before its command table,
    kept as the oracle of the argv grammar: the same argv must be accepted
    or refused, with the same exit code, namespace and error."""
    import argparse

    def integer_at_least(low):
        def parse(text):
            try:
                value = int(text)
            except ValueError:
                raise argparse.ArgumentTypeError("invalid int value: %r" % (text,)) from None
            if value < low:
                raise argparse.ArgumentTypeError("must be at least %d, got %d" % (low, value))
            return value

        return parse

    class Parser(argparse.ArgumentParser):
        def error(self, message):
            self.print_usage(sys.stderr)
            self.exit(3, "%s: error: %s\n" % (self.prog, message))

    parser = Parser(prog="finsite")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("validate", "topologies", "dense", "sheafify", "classify", "report"):
        sub.add_parser(name).add_argument("file")
    sub.choices["topologies"].add_argument(
        "--max-assignments", type=integer_at_least(0), default=None)
    sub.choices["dense"].add_argument("--sub", required=True)
    sub.choices["dense"].add_argument("--enumerate", action="store_true")
    sub.choices["sheafify"].add_argument("--presheaf", required=True)
    sub.choices["report"].add_argument("--out", default=None)
    sub.choices["report"].add_argument("--jobs", type=integer_at_least(1), default=1)
    p = sub.add_parser("corpus")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=integer_at_least(0), default=4)
    p.add_argument("--out", default=None)
    return parser


COMMANDS = ("validate", "topologies", "dense", "sheafify", "classify", "report", "corpus")
ARGV_GRID = [
    # the benchmark's forms
    ("--format", "json", "validate", "F"),
    ("--format", "json", "topologies", "F"),
    ("--format", "json", "dense", "--sub", "S", "--enumerate", "F"),
    ("--format", "json", "sheafify", "--presheaf", "P", "F"),
    ("--format", "json", "classify", "F"),
    ("--format", "json", "report", "F"),
    ("--format", "json", "report", "--jobs", "2", "F"),
    # "=" values, unique prefixes, the last repeat wins
    ("--format=json", "validate", "F"),
    ("--form", "json", "dense", "--su", "S", "F"),
    ("--f=json", "sheafify", "--pre=P", "F"),
    ("dense", "F", "--sub", "S", "--enum"),
    ("dense", "--sub=", "F"),
    ("--format", "json", "--format", "text", "validate", "F"),
    ("report", "--jobs", "3", "F", "--jobs", "2", "--out", "o", "--out=p"),
    ("topologies", "--max-assignments", "0", "F"),
    ("topologies", "--max", "7", "F"),
    ("corpus",),
    ("corpus", "--seed", "5", "--count", "0", "--out", "d"),
    ("corpus", "--seed", "-1"),
    ("corpus", "--seed=-7", "--c", "2"),
    ("dense", "--sub", "-1", "F"),
    ("dense", "--sub", "a b", "F"),
    # "--" ends the options
    ("validate", "--", "F"),
    ("validate", "--", "-F"),
    ("validate", "--", "--help"),
    ("dense", "--sub", "S", "--", "--enumerate"),
    ("validate", "F", "--"),
    ("validate", "-", "F"),
    # usage errors
    (),
    ("--format", "json"),
    ("--format",),
    ("--format", "xml", "validate", "F"),
    ("--format", "--help"),
    ("validate", "F", "--format", "json"),
    ("frobnicate", "F"),
    ("--bogus", "validate", "F"),
    ("validate",),
    ("validate", "F", "y"),
    ("validate", "F", "y", "-q", "z"),
    ("topologies", "--bogus", "F"),
    ("topologies", "--bogus", "5", "F"),
    ("topologies", "--max-assignments", "x", "F"),
    ("topologies", "--max-assignments", "-1", "F"),
    ("topologies", "--max-assignments", "1.5", "F"),
    ("topologies", "--max-assignments", "F"),
    ("topologies", "F", "--max-assignments"),
    ("dense", "F"),
    ("dense",),
    ("dense", "--sub", "S"),
    ("dense", "--sub", "--enumerate", "F"),
    ("dense", "--sub", "S", "--enumerate=1", "F"),
    ("dense", "--sub", "S", "--enumerate=", "F"),
    ("dense", "--sub", "S", "--max-assignments", "5", "F"),
    ("dense", "--", "--sub", "S", "F"),
    ("sheafify", "F", "--presheaf"),
    ("report", "--jobs", "0", "F"),
    ("report", "--jobs", "-2", "F"),
    ("report", "--jobs", "two", "F"),
    ("report", "--jobs", "0", "-h", "F"),
    ("corpus", "F"),
    ("corpus", "--count", "-1"),
    ("corpus", "--seed", "x"),
    ("--help=1",),
    ("validate", "--help=x", "F"),
    ("validate", "-h=x", "F"),
    # help, wherever it appears in a subcommand's argv
    ("-h",),
    ("--help",),
    ("--he",),
    ("-h", "validate"),
    ("-h", "--format", "xml"),
    ("--bogus", "-h"),
    ("dense", "-h"),
    ("dense", "F", "--sub", "S", "--help"),
    ("report", "F", "--he", "--jobs", "0"),
    ("validate", "F", "y", "-h"),
    ("--format", "json", "corpus", "--seed", "-1", "--h"),
    *((name, "-h") for name in COMMANDS),
]


def parse_outcome(parse, argv, capsys):
    """(exit code or None, namespace dict or None, stdout, stderr)."""
    try:
        ns, code = vars(parse(list(argv))), None
    except SystemExit as exc:
        ns, code = None, exc.code
    out, err = capsys.readouterr()
    return code, ns, out, err


@pytest.mark.parametrize("argv", ARGV_GRID, ids=lambda argv: " ".join(argv) or "no-args")
def test_argv_is_read_as_the_argparse_reference_reads_it(capsys, argv):
    want_code, want_ns, want_out, want_err = parse_outcome(
        reference_parser().parse_args, argv, capsys)
    code, ns, out, err = parse_outcome(cli._parse_argv, argv, capsys)
    assert code == want_code
    if code is None:
        assert ns.pop("func") is getattr(cli, "cmd_" + ns["command"])
        assert ns == want_ns and out == err == ""
    elif code == 0:
        # the help of the same parser: finsite itself or one subcommand
        assert err == "" and out.startswith("usage: finsite")
        assert out.split(" [-h]")[0] == want_out.split(" [-h]")[0]
    else:
        assert out == "" and err.startswith("usage: finsite")
        # argparse quotes the choices it lists on some Python versions only
        last, want_last = (e.splitlines()[-1].split(" (choose from ")[0]
                           for e in (err, want_err))
        assert last == want_last


def test_exit_code_3_for_a_negative_bound_variable(capsys, monkeypatch):
    monkeypatch.setenv("FINSITE_MAX_ASSIGNMENTS", "-1")
    code, _, err = run(capsys, "topologies", SQUARE)
    assert code == 3 and "candidate assignments" not in err
    assert "FINSITE_MAX_ASSIGNMENTS must be a non-negative integer" in err


def test_exit_code_3_for_unreadable_input(tmp_path, capsys):
    code, _, err = run(capsys, "validate", str(tmp_path / "missing.json"))
    assert code == 3
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="ascii")
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 3 and "invalid JSON" in err


def assert_parse_error(code, err):
    assert code == 3
    assert err.startswith("error: ") and "Traceback" not in err


def test_exit_code_3_for_non_ascii_site_file(tmp_path, capsys):
    doc = json.loads(serialize_site(named_site("arrow-j2")))
    doc["name"] = "caf\u00e9"
    path = tmp_path / "utf8.json"
    path.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
    code, _, err = run(capsys, "validate", str(path))
    assert_parse_error(code, err)
    assert "not ASCII" in err


def test_exit_code_3_for_json_past_the_decoder_limits(tmp_path, capsys):
    # nesting deeper than the recursion limit, and an int literal longer
    # than Python converts from a string
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000, encoding="ascii")
    digits = tmp_path / "digits.json"
    digits.write_text('{"schema": "finsite-site/1", "n": %s}' % ("7" * 5000), encoding="ascii")
    for path, reason in ((deep, "recursion"), (digits, "digits")):
        for fmt in ("text", "json"):
            code, _, err = run(capsys, "--format", fmt, "validate", str(path))
            assert_parse_error(code, err)
            assert "invalid JSON" in err and reason in err


def test_exit_code_3_for_a_lone_surrogate_and_a_pair_prints(tmp_path, capsys):
    doc = json.loads(serialize_site(named_site("arrow-j2")))
    text = json.dumps(doc).replace('"arrow-j2"', '"\\ud800"', 1)
    lone = tmp_path / "lone.json"
    lone.write_text(text, encoding="ascii")
    for fmt in ("text", "json"):
        code, _, err = run(capsys, "--format", fmt, "validate", str(lone))
        assert_parse_error(code, err)
        assert "lone surrogate '\\ud800'" in err
    pair = tmp_path / "pair.json"
    pair.write_text(text.replace("\\ud800", "\\ud83d\\ude00"), encoding="ascii")
    code, out, _ = run(capsys, "validate", str(pair))
    assert code == 0 and "\U0001f600" in out


def test_exit_code_3_for_a_directory_and_a_missing_file(tmp_path, capsys):
    for path in (tmp_path, tmp_path / "absent.json"):
        code, _, err = run(capsys, "validate", str(path))
        assert_parse_error(code, err)
        assert "cannot read" in err


def test_exit_code_3_for_a_list_as_morphism_name(capsys, site_file):
    def listed(doc):
        doc["category"]["morphisms"][2][0] = ["f"]

    code, _, err = run(capsys, "validate", site_file("arrow-j2", listed))
    assert_parse_error(code, err)
    assert "must be str" in err


def test_exit_code_3_for_a_boolean_presheaf_size(capsys, site_file):
    def boolean(doc):
        doc["presheaves"]["P"]["sizes"]["a"] = True

    code, _, err = run(capsys, "validate", site_file("arrow-j2", boolean))
    assert_parse_error(code, err)
    assert "nonnegative int" in err


def test_exit_code_3_for_a_coverage_entry_that_is_not_a_sieve(capsys, site_file):
    # in Z2 = {e, s} neither {e} nor {s} is closed under composing with s
    def singletons(doc):
        doc["topology"] = {"coverage": {"*": [["e"], ["s"], ["e", "s"]]}}

    code, _, err = run(capsys, "validate", site_file("z2-trivial", singletons))
    assert_parse_error(code, err)
    assert "coverage of '*' lists ['e'], which is not a sieve" in err


def test_consecutive_calls_keep_their_own_options(capsys, site_file):
    path = site_file("arrow-j2")
    code, out, _ = run(capsys, "--format", "json", "validate", path)
    assert code == 0 and json.loads(out)["ok"] is True
    code, out, _ = run(capsys, "validate", path)
    assert code == 0 and "ok: yes" in out
    code, _, _ = run(capsys, "topologies", SQUARE, "--max-assignments", "10")
    assert code == 2
    code, out, _ = run(capsys, "topologies", SQUARE)
    assert code == 0 and "count: " in out


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "finsite.cli", "--format", "json",
         "validate", SQUARE],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["ok"] is True
