"""One measuring interpreter: imports ``icis``, writes the corpus, solves it.

    python3 perfbench/worker.py MODE WORKLOAD SEED SECONDS ROUNDS WORKDIR OUT

MODE is ``setup`` (time set-up only), ``plain``, ``traced`` or
``profiled``.  The fixed part is solved first, then rounds until SECONDS
have passed; ROUNDS > 0 asks for exactly that many rounds instead.  The
result goes to the JSON file OUT.  ``run.py`` starts this; the library
path comes from PYTHONPATH.
"""

import time

_T0 = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import icis.cli  # noqa: E402

import calibrate  # noqa: E402
from corpus import Corpus  # noqa: E402
from solve import solve_one  # noqa: E402


def _write(problems, workdir):
    paths = []
    for p in problems:
        path = workdir / f"{p.name}.icis"
        path.write_text(p.text)
        paths.append(path)
    return paths


def main(argv):
    mode, workload, seed, seconds, rounds, workdir, out = argv
    seconds, rounds, workdir = float(seconds), int(rounds), Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    corpus = Corpus(workload, int(seed))
    fixed, batch = corpus.fixed(), corpus.round(0)
    fixed_paths, paths = _write(fixed, workdir), _write(batch, workdir)
    setup_s = time.perf_counter() - _T0
    result = {"setup_s": setup_s, "setup_kernel_s": [calibrate.calibrate() for _ in range(3)]}
    if mode == "setup":
        Path(out).write_text(json.dumps(result))
        return 0

    main_fn = icis.cli.main
    tracer = profiler = None
    if mode == "traced":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    elif mode == "profiled":
        import cProfile

        profiler = cProfile.Profile()

        def main_fn(argv, _main=icis.cli.main):
            profiler.enable()
            try:
                return _main(argv)
            finally:
                profiler.disable()

    records = []
    kernel_s = [calibrate.calibrate()]
    since = 0.0  # seconds solved since the last kernel run

    def solve_batch(problems, files, r):
        nonlocal since
        for problem, path in zip(problems, files):
            if tracer:
                tracer.problem = problem.name
            rec = solve_one(main_fn, path, corpus.cap_s)
            # kernel runs kernel_s[k] and kernel_s[k + 1] bracket this solve
            rec.update(name=problem.name, round=r, digest=problem.digest, k=len(kernel_s) - 1)
            records.append(rec)
            path.unlink()
            since += rec["s"]
            if since >= calibrate.EVERY_S:
                kernel_s.append(calibrate.calibrate())
                since = 0.0

    start = time.perf_counter()
    solve_batch(fixed, fixed_paths, -1)
    r = 0
    while True:
        solve_batch(batch, paths, r)
        r += 1
        if rounds:
            if r >= rounds:
                break
        elif time.perf_counter() - start >= seconds or r >= corpus.max_rounds:
            break
        batch = corpus.round(r)
        paths = _write(batch, workdir)
    kernel_s.append(calibrate.calibrate())
    result["kernel_s"] = kernel_s
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["records"] = records
    if tracer:
        tracer.uninstall()
        result["spans"] = tracer.spans
        result["tracer_s"] = tracer.own_s
    if profiler:
        import pstats

        from tracing import profile_counts

        result["profile"] = profile_counts(pstats.Stats(profiler).stats)
    Path(out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
