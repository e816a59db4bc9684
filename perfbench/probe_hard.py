"""Check that the hard tier is steady: every hang in the pool stays
unanswered far beyond the cap, and every control finishes far below it.

    PYTHONPATH=src python3 perfbench/probe_hard.py

Run it again after changing ``HARD_POOL`` or the hard templates.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from corpus import CAP_S, HARD_POOL, Corpus, _generated, _hard_templates  # noqa: E402
from solve import solve_one  # noqa: E402

# A hang must stay unanswered for FACTOR times the cap.
FACTOR = 10


def main():
    import icis.cli

    cap = CAP_S["hard_germs"]
    work = Path(".perfbench_work")
    work.mkdir(exist_ok=True)
    problems = Corpus("hard_germs", 0).fixed()
    for a, b in HARD_POOL:
        problems += [_generated(f"{name}[{a},{b}]", *rest) for name, *rest in _hard_templates(a, b)]
    bad = 0
    for p in problems:
        path = work / "probe.icis"
        path.write_text(p.text)
        res = solve_one(icis.cli.main, path, cap * FACTOR)
        hang = "control" not in p.name
        ok = res["capped"] if hang else (not res["capped"] and res["s"] < cap / 10)
        bad += not ok
        print(f"{'ok ' if ok else 'BAD'} {p.name}: capped={res['capped']} s={res['s']:.3f}",
              flush=True)
    path.unlink()
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
