#!/usr/bin/env python3
"""The icis benchmark: closed loop, one client, one problem at a time.

    python3 perfbench/run.py --workload germs --seed 1 --seconds 20 --trace 0
    for w in germs families discriminants hard_germs; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 20 --trace 0 || break
    done

Run from the root of a source checkout.  Each problem is solved through
the public entry point ``icis.cli.main(["run", FILE])`` under a
per-problem wall-clock cap, and every answer is checked (see
``corpus.py``).  A wrong answer makes the run exit non-zero.

With ``--trace 0`` the corpus is solved by REPEATS fresh interpreters
(``worker.py``) in turn: the first solves the fixed part and as many
rounds as fit in a share of ``--seconds``, the others solve the same
problems.  Each text is solved once per interpreter, so no in-process
cache can turn a repeat into a hit.  A problem's time is the median of
its REPEATS solve times, each rescaled to a reference machine speed by
a calibration kernel run between problems (``calibrate.py``).
The last stdout line is a JSON object with the end-to-end metrics:

* ``wall_s``: seconds to solve the corpus once: the fixed part plus the
  median round;
* ``problem_s_p50``: median seconds per problem, over the rounds;
* ``answered_frac``: solves answered (exit 0, 2, or the expected exit 3
  of a bad input) over solves attempted; a cap hit, a budget exhaustion
  or an uncaught exception is not answered;
* ``peak_rss_mb``: median over the interpreters of their peak resident
  set size;
* ``setup_s``: median over five fresh interpreters of the time to import
  ``icis`` and write the fixed part and the first round, rescaled by the
  kernel run right after it.

With ``--trace 1`` the fixed part and a fixed number of rounds are solved
three times, each in a fresh interpreter: plain, traced (``tracing.py``)
and under cProfile.  The JSON object then holds the per-layer metrics,
and the run checks that traced stdout equals plain stdout.
``trace_overhead`` is the traced solve seconds over the same seconds less
the time spent in the tracer's wrappers outside the wrapped calls.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
from calibrate import REFERENCE_S  # noqa: E402
from corpus import WORKLOADS, Corpus, text_digest  # noqa: E402
from tracing import layer_metrics, per_layer_names  # noqa: E402

REPEATS = 3
SETUP_SAMPLES = 5
RUN_LIMIT_S = 170  # every child is killed if the run would pass this
END_TO_END = [("wall_s", "s"), ("problem_s_p50", "s"), ("answered_frac", "ratio"),
              ("peak_rss_mb", "MB"), ("setup_s", "s")]
MU_LINE = re.compile(r"^mu: (\d+)  \[", re.M)
EXIT_BUDGET = 4  # ``icis.cli.EXIT_BUDGET``: the step budget ran out
# A problem is not answered when its code is None (cap hit or uncaught
# error) or EXIT_BUDGET.
UNANSWERED = (None, EXIT_BUDGET)


class Workers:
    """Starts measuring interpreters one at a time, in one work directory."""

    def __init__(self, args, workdir, deadline):
        self.args, self.workdir, self.deadline = args, workdir, deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", self.env.get("PYTHONPATH")]))
        self.count = 0

    def run(self, mode, seconds=0.0, rounds=0):
        self.count += 1
        out = self.workdir / f"{self.count}.json"
        cmd = [sys.executable, str(HERE / "worker.py"), mode, self.args.workload,
               str(self.args.seed), str(seconds), str(rounds),
               str(self.workdir / str(self.count)), str(out)]
        subprocess.run(cmd, env=self.env, check=True,
                       timeout=max(1.0, self.deadline - time.monotonic()))
        return json.loads(out.read_text())


def check_answers(workload, seed, records, recorded):
    """Names of problems answered wrongly; regenerates the corpus from the seed."""
    corpus = Corpus(workload, seed)
    problems = {p.name: p for p in corpus.fixed()}
    for r in range(1 + max(rec["round"] for rec in records)):
        problems.update((p.name, p) for p in corpus.round(r))
    wrong = []
    for rec in records:
        problem = problems.get(rec["name"])
        if problem is None or problem.digest != rec["digest"]:
            wrong.append(rec["name"])
            continue
        if rec["code"] in UNANSWERED:  # lowers answered_frac, but is not wrong
            continue
        if problem.check[0] == "recorded":
            want = recorded.get(problem.digest)
            got = {"exit": rec["code"], "stdout": text_digest(rec["stdout"])}
            ok = want == got
        else:
            want = problem.check[1] if problem.check[0] == "mu" else oracle.spec_milnor(problem.spec)
            found = MU_LINE.findall(rec["stdout"])
            ok = rec["code"] == 0 and found == [str(want)]
        if not ok:
            wrong.append(rec["name"])
    return wrong


def disagreeing(first, other):
    """Names where two interpreters both answered, but differently."""
    def differ(a, b):
        if a["name"] != b["name"]:
            return True
        both = a["code"] not in UNANSWERED and b["code"] not in UNANSWERED
        return both and (a["code"], a["stdout"]) != (b["code"], b["stdout"])

    return [a["name"] for a, b in zip(first, other) if differ(a, b)]


def answered(rec):
    return rec["code"] in (0, 2, 3)


def scaled_times(result):
    """Solve times at the reference speed (see ``calibrate.py``).  A cap
    hit is wall-clock time set by the timer, so it is not rescaled."""
    k = result["kernel_s"]
    return [r["s"] if r["capped"] else r["s"] * 2 * REFERENCE_S / (k[r["k"]] + k[r["k"] + 1])
            for r in result["records"]]


def end_to_end(results, setups):
    """Metrics from REPEATS results over the same problems."""
    first = results[0]["records"]
    times = [statistics.median(ts) for ts in zip(*map(scaled_times, results))]
    fixed_s = sum(t for r, t in zip(first, times) if r["round"] < 0)
    rounds = {}
    for r, t in zip(first, times):
        if r["round"] >= 0:
            rounds[r["round"]] = rounds.get(r["round"], 0.0) + t
    every = [r for res in results for r in res["records"]]
    return {
        "wall_s": fixed_s + statistics.median(rounds.values()),
        "problem_s_p50": statistics.median(t for r, t in zip(first, times) if r["round"] >= 0),
        "answered_frac": sum(map(answered, every)) / len(every),
        "peak_rss_mb": statistics.median(res["peak_rss_mb"] for res in results),
        "setup_s": statistics.median(s["setup_s"] * REFERENCE_S / statistics.mean(s["setup_kernel_s"])
                                     for s in setups),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not Path("src/icis/cli.py").is_file():
        print("error: run from the root of an icis checkout (src/icis missing)", file=sys.stderr)
        return 2
    recorded = json.loads((HERE / "expected.json").read_text())
    corpus = Corpus(args.workload, args.seed)
    work_root = Path(".perfbench_work")
    workdir = work_root / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    workers = Workers(args, workdir, time.monotonic() + RUN_LIMIT_S)
    try:
        if args.trace:
            results = [workers.run(mode, rounds=corpus.trace_rounds)
                       for mode in ("plain", "traced", "profiled")]
        else:
            results = [workers.run("plain", seconds=args.seconds / REPEATS)]
            rounds = 1 + max(r["round"] for r in results[0]["records"])
            results += [workers.run("plain", rounds=rounds) for _ in range(REPEATS - 1)]
            setups = results + [workers.run("setup") for _ in range(SETUP_SAMPLES - REPEATS)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    recs = results[0]["records"]
    wrong = check_answers(args.workload, args.seed, recs, recorded)
    if args.trace:
        plain, traced, profiled = results
        if [(r["name"], r["code"], r["stdout"]) for r in traced["records"]] != \
                [(r["name"], r["code"], r["stdout"]) for r in plain["records"]]:
            wrong.append("traced stdout differs from untraced stdout")
        values = layer_metrics(traced["spans"])
        values.update(profiled["profile"])
        # traced seconds over the same seconds less the tracer's own, both
        # from one interpreter, so that host speed drift cancels out
        traced_s = sum(r["s"] for r in traced["records"])
        values["trace_overhead"] = traced_s / (traced_s - traced["tracer_s"])
        (work_root / f"spans-{args.workload}-{args.seed}.json").write_text(
            json.dumps(traced["spans"]))
        units = per_layer_names()
        every = recs
    else:
        for res in results[1:]:
            wrong += disagreeing(recs, res["records"])
        values = end_to_end(results, setups)
        units = END_TO_END
        every = [r for res in results for r in res["records"]]
    metrics = {name: {"value": values.get(name, 0), "unit": unit} for name, unit in units}
    failed = [r["name"] for r in every if r["error"] or r["code"] == EXIT_BUDGET]
    capped = sorted({r["name"] for r in every if r["capped"]})

    print(f"workload {args.workload}, seed {args.seed}: {len(recs)} problems (fixed part and "
          f"{1 + max(r['round'] for r in recs)} rounds) solved by {len(results)} interpreters, "
          f"{len(every)} solves, {len(capped)} problems at the {corpus.cap_s} s cap")
    if capped:
        print("capped: " + ", ".join(capped))
    if failed:
        print("failed: " + ", ".join(failed))
    if wrong:
        print("WRONG: " + ", ".join(wrong))
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not wrong, "attempted": len(every), "failed": len(failed),
                      "metrics": metrics}))
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
