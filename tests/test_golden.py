"""Byte-for-byte CLI outputs on every fixture.

``tests/golden/<fixture>.<variant>.out`` holds the stdout of
``icis run tests/fixtures/<fixture>.icis`` with the variant's flags,
``tests/golden/exit_codes.json`` its exit code, and
``tests/golden/steps.json`` the value of its stderr ``steps:`` line
(null when it prints none), which pins the reduction sequence; the
``elapsed:`` line is not recorded.  They pin the ``--json`` report as
well as the plain one; a change that alters any of them on purpose
re-records them with the same command."""

import json
import pathlib

import pytest

from icis.cli import main

TESTS = pathlib.Path(__file__).parent
FIXTURES = TESTS / "fixtures"
GOLDEN = TESTS / "golden"
EXIT_CODES = json.loads((GOLDEN / "exit_codes.json").read_text())
STEPS = json.loads((GOLDEN / "steps.json").read_text())

VARIANTS = {
    "plain": [],
    "json": ["--json"],
    "json-samples": ["--json", "--samples", "3,1/4"],
    "seed2-json": ["--seed", "2", "--json"],
}


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("fixture", sorted(p.stem for p in FIXTURES.glob("*.icis")))
def test_stdout_and_exit_code(fixture, variant, capsys):
    code = main(["run", str(FIXTURES / f"{fixture}.icis"), *VARIANTS[variant]])
    out, err = capsys.readouterr()
    name = f"{fixture}.{variant}"
    assert code == EXIT_CODES[name]
    assert out.encode() == (GOLDEN / f"{name}.out").read_bytes()
    steps = [int(line.split()[1]) for line in err.splitlines() if line.startswith("steps:")]
    assert steps == ([] if STEPS[name] is None else [STEPS[name]])
