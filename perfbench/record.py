"""Record the expected output of every recorded-check problem.

    PYTHONPATH=src python3 perfbench/record.py

Writes ``perfbench/expected.json``: for each problem text digest, the
exit code and the sha256 of stdout.  The file in the repository was
recorded at the commit that added the benchmark; record again only when
a change is meant to alter CLI output.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from corpus import recorded_problems, text_digest  # noqa: E402
from solve import solve_one  # noqa: E402

CAP_S = 120.0


def main():
    import icis.cli

    work = Path(".perfbench_work")
    work.mkdir(exist_ok=True)
    path = work / "record.icis"
    expected = {}
    for p in recorded_problems():
        path.write_text(p.text)
        res = solve_one(icis.cli.main, path, CAP_S)
        if res["code"] is None:
            print(f"{p.name}: no answer ({res['error'] or 'cap'})", file=sys.stderr)
            return 1
        expected[p.digest] = {"exit": res["code"], "stdout": text_digest(res["stdout"])}
        print(f"{p.name}: exit {res['code']} in {res['s']:.3f}s", flush=True)
    path.unlink()
    (HERE / "expected.json").write_text(json.dumps(expected, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
