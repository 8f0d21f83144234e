"""Command line behaviour: exit codes, determinism, output shapes."""

import json
import os
import subprocess
import sys
import threading

import pytest

from finsite import classify
from finsite.cli import _strided_map, main
from finsite.corpus import corpus, named_site
from finsite.siteio import serialize_site

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
