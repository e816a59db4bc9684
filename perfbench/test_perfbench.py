"""Self-tests of the benchmark.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py
"""

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
from corpus import FIXTURES, SEMI_QH, WORKLOADS, Corpus, recorded_problems  # noqa: E402
from run import answered, check_answers, disagreeing  # noqa: E402
from solve import solve_one  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402

from icis import cli  # noqa: E402
from icis.germs import (  # noqa: E402
    GermFunction,
    IcisPresentation,
    function_on_icis_milnor,
    hypersurface_milnor,
    icis_milnor,
)
from icis.errors import ProblemFileError  # noqa: E402
from icis.poly import Polynomial  # noqa: E402
from icis.problem import parse_problem  # noqa: E402

RINGS = {2: ("x", "y"), 3: ("x", "y", "z"), 4: ("w", "x", "y", "z")}


def _texts(workload, seed, rounds=3):
    c = Corpus(workload, seed)
    return [p.text for p in c.fixed()] + [
        p.text for r in range(min(rounds, c.max_rounds)) for p in c.round(r)]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_is_deterministic_and_distinct(workload):
    texts = _texts(workload, 11)
    assert texts == _texts(workload, 11)
    assert len(set(texts)) == len(texts)
    assert texts != _texts(workload, 12)


def test_pools_are_fully_recorded():
    recorded = json.loads((HERE / "expected.json").read_text())
    assert {p.digest for p in recorded_problems()} == set(recorded)
    for workload in ("families", "discriminants"):
        c = Corpus(workload, 5)
        for r in range(c.max_rounds):
            assert all(p.digest in recorded for p in c.round(r))


def test_semi_quasihomogeneous_terms_lie_above_the_newton_diagonal():
    for exps, extra in SEMI_QH:
        assert sum(e / a for e, a in zip(extra, exps)) > 1


def _engine_mu(spec):
    kind, polys, n = spec
    ring = RINGS[n]
    if kind == "milnor":
        return hypersurface_milnor(Polynomial(ring, polys["f"][0]))
    X = IcisPresentation(ring, [Polynomial(ring, p) for p in polys["phi"]])
    if kind == "icis-milnor":
        return icis_milnor(X)
    return function_on_icis_milnor(GermFunction(Polynomial(ring, polys["f"][0]), X))


def test_oracle_engine_and_closed_forms_agree_on_a_germs_round():
    for p in Corpus("germs", 3).round(0):
        mu = oracle.spec_milnor(p.spec)
        assert _engine_mu(p.spec) == mu, p.name
        if p.check[0] == "mu":
            assert p.check[1] == mu, p.name


def test_oracle_agrees_with_engine_on_fixtures():
    checked = 0
    for path in sorted(FIXTURES.glob("*.icis")):
        try:
            problem = parse_problem(path.read_bytes())
        except ProblemFileError:
            continue
        if problem.kind not in ("milnor", "icis-milnor", "function-milnor"):
            continue
        polys = {k: [dict(p.terms) for p in v] for k, v in problem.bindings.items()}
        want = oracle.spec_milnor((problem.kind, polys, len(problem.ring)))
        buf = io.StringIO()
        with redirect_stdout(buf), redirect_stderr(io.StringIO()):
            code = cli.main(["run", str(path)])
        if want is None:
            assert code == 3, path.name
        else:
            assert f"mu: {want}  [" in buf.getvalue(), path.name
        checked += 1
    assert checked == 4


def test_oracle_on_brieskorn_5_6_7():
    f = {(5, 0, 0): 1, (0, 6, 0): 1, (0, 0, 7): 1}
    assert oracle.milnor(f, 3) == 120
    ring = RINGS[3]
    assert hypersurface_milnor(Polynomial(ring, f)) == 120


def _run_fixtures(main):
    out = []
    for path in sorted(FIXTURES.glob("*.icis")):
        buf = io.StringIO()
        with redirect_stdout(buf), redirect_stderr(io.StringIO()):
            code = main(["run", str(path)])
        out.append((path.name, code, buf.getvalue()))
    return out


def _namespaces():
    return {name: dict(vars(mod)) for name, mod in sys.modules.items()
            if name == "icis" or name.startswith("icis.")}


def test_wrappers_restore_originals_and_keep_output():
    from icis.ideals import IdealPresentation

    before, basis_method = _namespaces(), IdealPresentation.__dict__["basis"]
    plain = _run_fixtures(cli.main)
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.run_problem is not before["icis.cli"]["run_problem"]
        traced = _run_fixtures(cli.main)
    finally:
        tracer.uninstall()
    assert traced == plain
    after = _namespaces()
    assert after.keys() == before.keys()
    for name, attrs in before.items():
        assert all(after[name].get(k) is v for k, v in attrs.items()), name
    assert IdealPresentation.__dict__["basis"] is basis_method
    assert tracer.own_s > 0
    metrics = layer_metrics(tracer.spans)
    assert metrics["problem.parse_problem.calls"] == len(plain)
    assert metrics["families.critical_locus_report.calls"] >= \
        metrics["families.critical_locus_report.distinct"] > 0


def test_a_wrong_answer_is_caught(tmp_path):
    c = Corpus("germs", 9)
    c.fixed()
    problem = next(p for p in c.round(0) if p.check[0] == "oracle")
    path = tmp_path / "p.icis"
    path.write_text(problem.text)
    rec = solve_one(cli.main, path, 5.0)
    rec.update(name=problem.name, round=0, digest=problem.digest)
    assert check_answers("germs", 9, [rec], {}) == []
    rec["stdout"] = rec["stdout"].replace("mu: ", "mu: 1")
    assert check_answers("germs", 9, [rec], {}) == [problem.name]


def test_budget_exhaustion_is_unanswered_not_wrong():
    c = Corpus("germs", 9)
    fixed, batch = c.fixed(), c.round(0)
    checked = [next(p for p in batch if p.check[0] == kind) for kind in ("mu", "oracle")]
    for problem in checked + [next(p for p in fixed if p.check[0] == "recorded")]:
        rec = {"name": problem.name, "round": 0, "digest": problem.digest, "code": 4,
               "stdout": "", "s": 0.1, "capped": False, "error": None}
        if problem in fixed:
            rec["round"] = -1
        assert check_answers("germs", 9, [rec], {}) == []
        answer = dict(rec, code=0, stdout="mu: 7  [x]\n")
        assert disagreeing([rec], [answer]) == []
        assert not answered(rec)
