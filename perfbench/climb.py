"""Frontier climb: the largest ladder rung whose CLI calls all finish, with
correct output, within a per-rung time limit.

Each call runs as its own `python -m finsite.cli` child, one at a time, with
the program's default search bounds (FINSITE_MAX_ASSIGNMENTS removed from the
environment).  A child still running at the limit is killed.  The climb
stops at the first rung that is refused (exit 2), fails, or overruns.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

import inputs


def child_env(src):
    env = dict(os.environ)
    env.pop("FINSITE_MAX_ASSIGNMENTS", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def run_child(argv, cwd, env, timeout):
    """(exit code, stdout) of one CLI child, or None if it overran."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "finsite.cli", "--format", "json", *argv],
        cwd=cwd,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None
    return proc.returncode, out


def climb(workload, workdir, src, limit_s, check):
    """Climb the workload's ladder.

    check(label, rung, category, exit_code, stdout_bytes) returns a problem
    string or None.  Returns (frontier morphisms, per-rung log, attempted
    calls, failure messages).
    """
    rungs, commands = inputs.climb_rungs(workload)
    env = child_env(src)
    frontier = 0
    log = []
    attempted = 0
    failures = []
    for rung in rungs:
        name, cat, problems = inputs.write_climb_site(rung, workdir)
        failures += problems
        stop = "size check failed" if problems else None
        start = time.perf_counter()
        for argv in [] if stop else commands(name):
            remaining = limit_s - (time.perf_counter() - start)
            result = run_child(argv, workdir, env, remaining) if remaining > 0 else None
            if result is None:
                stop = "over the %.0f s limit" % limit_s
                break
            code, out = result
            if code == 2:
                stop = "refused (exit 2)"
                break
            attempted += 1
            label = "climb:%s:%s" % (rung, argv[0])
            problem = check(label, rung, cat, code, out)
            if problem:
                failures.append("%s: %s" % (label, problem))
                stop = "failed"
                break
        log.append((rung, len(cat.morphisms), time.perf_counter() - start, stop))
        if stop:
            break
        frontier = len(cat.morphisms)
    return frontier, log, attempted, failures
