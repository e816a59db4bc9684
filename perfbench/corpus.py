"""Seeded problem corpora for the four benchmark workloads.

A workload's corpus is a fixed part (problem files whose text never
changes, solved once per run) and a sequence of rounds.  Every round
instantiates the same list of templates with fresh seeded coefficients,
so rounds cost about the same and no two problems in a run share text:
a process-wide cache cannot turn the benchmark into cache hits.

Every problem carries its check:

* ``("recorded",)``: stdout and exit code must match, byte for byte,
  the output recorded when the benchmark was added (``expected.json``,
  written by ``record.py``).  Used for
  fixed texts and for templates whose seeded values come from a finite
  pool, so that every possible text is recorded.
* ``("mu", n)``: the ``mu:`` field must equal the closed form n.
* ``("oracle",)``: the ``mu:`` field must equal the value of the
  independent oracle in ``oracle.py`` on the problem's ``spec``.

Problems of the hard tier may also end unanswered at the per-problem
time cap; when they are answered, the oracle checks them.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

# Copies of test fixtures, kept here so that the benchmark's fixed corpus
# stays the same when the library's test fixtures change.
FIXTURES = Path(__file__).resolve().parent / "fixtures"

WORKLOADS = ("germs", "families", "discriminants", "hard_germs")

# Per-problem wall-clock cap, seconds.  Far above the slowest problem
# the seed engine finishes on each workload; on hard_germs it is the
# cost of every known hang.
CAP_S = {"germs": 5.0, "families": 20.0, "discriminants": 10.0, "hard_germs": 1.5}
# Rounds in a traced run: a fixed amount of work, so that counts repeat
# exactly for a seed, and at least about a second of solving.
TRACE_ROUNDS = {"germs": 10, "families": 1, "discriminants": 2, "hard_germs": 1}


@dataclass(frozen=True)
class Problem:
    name: str
    text: str
    check: tuple
    spec: tuple = None  # (kind, {binding: [polynomial]}, number of variables)

    @property
    def digest(self):
        return text_digest(self.text)


def text_digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


# -- polynomial text -------------------------------------------------------


def fmt(poly, names):
    """Problem-file text of {exponents: coefficient}, terms in the given order."""
    out = []
    for exps, c in poly.items():
        mono = "*".join(v if e == 1 else f"{v}^{e}" for v, e in zip(names, exps) if e)
        c = Fraction(c)
        mag = abs(c)
        body = mono if (mag == 1 and mono) else (f"{mag}*{mono}" if mono else str(mag))
        out.append(("-" if c < 0 else "+", body))
    text = ("-" if out[0][0] == "-" else "") + out[0][1]
    for sign, body in out[1:]:
        text += f" {sign} {body}"
    return text


def _unit(n, i, k):
    e = [0] * n
    e[i] = k
    return tuple(e)


def _nonzero(rng, bound=9):
    c = rng.randint(1, bound)
    return c if rng.random() < 0.5 else -c


NAMES = {2: ("x", "y"), 3: ("x", "y", "z"), 4: ("w", "x", "y", "z")}


def _ring(n):
    return ", ".join(NAMES[n])


# -- germs -------------------------------------------------------------------

BRIESKORN = [(3, 4), (5, 7), (6, 9), (8, 11), (2, 13), (2, 3, 4), (3, 4, 5),
             (4, 5, 6), (5, 6, 7), (3, 3, 7), (2, 2, 3, 3), (3, 3, 3, 3), (2, 3, 4, 5)]
T_PQR = [(3, 4, 5), (4, 5, 6), (2, 3, 7), (3, 3, 4), (4, 4, 4), (2, 4, 5)]
# principal part exponents and one monomial of weighted degree > 1
SEMI_QH = [((5, 7), (3, 3)), ((6, 9), (5, 2)), ((3, 4, 5), (1, 2, 2)),
           ((4, 5, 6), (2, 2, 1)), ((3, 3, 3, 3), (1, 1, 1, 1))]


def _bp(rng, exps):
    n = len(exps)
    return {_unit(n, i, a): _nonzero(rng) for i, a in enumerate(exps)}


def _product_minus_one(exps):
    mu = 1
    for a in exps:
        mu *= a - 1
    return mu


def _germs_round(rng):
    out = []
    for exps in BRIESKORN:
        n = len(exps)
        f = _bp(rng, exps)
        out.append(("bp" + "_".join(map(str, exps)), n, "milnor", {"f": [f]},
                    ("mu", _product_minus_one(exps))))
    for p, q, r in T_PQR:
        f = _bp(rng, (p, q, r))
        f[(1, 1, 1)] = _nonzero(rng)
        out.append((f"t{p}_{q}_{r}", 3, "milnor", {"f": [f]}, ("mu", p + q + r - 1)))
    for exps, extra in SEMI_QH:
        n = len(exps)
        f = _bp(rng, exps)
        f[extra] = _nonzero(rng)
        out.append(("sqh" + "_".join(map(str, exps)), n, "milnor", {"f": [f]},
                    ("mu", _product_minus_one(exps))))
    # not semi-quasihomogeneous: no closed form, checked by the oracle
    f = _bp(rng, (3, 4, 5))
    f[(1, 1, 2)] = _nonzero(rng)
    out.append(("nqh3_4_5", 3, "milnor", {"f": [f]}, None))
    f = _bp(rng, (4, 5, 6))
    f[(1, 2, 2)] = _nonzero(rng)
    out.append(("nqh4_5_6", 3, "milnor", {"f": [f]}, None))
    f = _bp(rng, (4, 6))
    f[(2, 2)] = _nonzero(rng)
    f[(1, 4)] = _nonzero(rng)
    out.append(("nqh4_6", 2, "milnor", {"f": [f]}, None))
    # two-equation ICIS in three variables
    out.append(("icis_a", 3, "icis-milnor", {"phi": [
        {(2, 0, 0): _nonzero(rng), (0, 3, 0): _nonzero(rng), (0, 0, 4): _nonzero(rng)},
        {(1, 1, 0): _nonzero(rng), (0, 0, 3): _nonzero(rng)}]}, None))
    out.append(("icis_b", 3, "icis-milnor", {"phi": [
        {(1, 1, 0): _nonzero(rng), (0, 0, 2): _nonzero(rng)},
        {(3, 0, 0): _nonzero(rng), (0, 4, 0): _nonzero(rng), (0, 0, 5): _nonzero(rng)}]}, None))
    out.append(("icis_c", 3, "icis-milnor", {"phi": [
        {(2, 0, 0): _nonzero(rng), (0, 2, 0): _nonzero(rng), (0, 0, 3): _nonzero(rng)},
        {(1, 1, 0): _nonzero(rng), (0, 0, 2): _nonzero(rng)}]}, None))
    # functions on plane curves and on surfaces
    out.append(("fcurve_a", 2, "function-milnor", {
        "phi": [{(3, 0): _nonzero(rng), (0, 5): _nonzero(rng)}],
        "f": [{(1, 0): 1, (0, 2): _nonzero(rng)}]}, None))
    out.append(("fcurve_b", 2, "function-milnor", {
        "phi": [{(2, 0): _nonzero(rng), (0, 7): _nonzero(rng)}],
        "f": [{(0, 1): 1, (1, 1): _nonzero(rng)}]}, None))
    out.append(("fsurf_a", 3, "function-milnor", {
        "phi": [{(2, 0, 0): _nonzero(rng), (0, 3, 0): _nonzero(rng), (0, 0, 4): _nonzero(rng)}],
        "f": [{(1, 0, 0): 1, (0, 1, 0): _nonzero(rng), (0, 0, 2): _nonzero(rng)}]}, None))
    out.append(("fsurf_b", 3, "function-milnor", {
        "phi": [{(1, 1, 0): _nonzero(rng), (0, 0, 3): _nonzero(rng)}],
        "f": [{(2, 0, 0): _nonzero(rng), (0, 3, 0): _nonzero(rng), (0, 0, 1): 1}]}, None))
    return out


# -- hard tier ----------------------------------------------------------------

# With the library as first benchmarked, every hang of every (a, b) pair
# ran for 10x the cap without finishing (checked by ``probe_hard.py``).
HARD_POOL = [(-7, 2), (5, 3), (-5, -2), (9, 4), (7, -3), (-3, 5), (3, -4), (-9, -5)]

def _hard_templates(a, b):
    """The hard germs for one pool entry: three hangs and two controls
    (neighbours of the hangs that the seed engine finishes)."""
    base = {(3, 0, 0): 1, (0, 4, 0): 1, (0, 0, 5): 1}
    return [
        ("hang_xyz2_x2y2z2", 3, "milnor", {"f": [{**base, (1, 1, 2): a, (2, 2, 2): b}]}, None),
        ("hang_xyz2_xy3z", 3, "milnor", {"f": [{**base, (1, 1, 2): a, (1, 3, 1): b}]}, None),
        ("hang_icis4", 4, "icis-milnor", {"phi": [
            {(2, 0, 0, 0): 1, (0, 3, 0, 0): 1, (0, 0, 1, 1): 1, (0, 1, 1, 1): a},
            {(0, 1, 1, 0): 1, (0, 0, 0, 3): 1, (3, 0, 0, 0): 1, (1, 1, 0, 1): b}]}, None),
        ("control_xyz2", 3, "milnor", {"f": [{**base, (1, 1, 2): a}]}, None),
        ("control_t345", 3, "milnor", {"f": [{**base, (1, 1, 1): b}]}, ("mu", 11)),
    ]


# -- families -----------------------------------------------------------------

JUMP_GRID = [(2, 3), (2, 5), (2, 7), (3, 4), (3, 5), (4, 5), (5, 6)]
SPACE_FAMILIES = [
    ("quintic", "x^5 + y^5 + t*x^3*y^2"),
    ("tacnode", "y^2 - (x^2 - t^2)^2"),
    ("cusp_smoothing", "x^3 - y^2 + t*x"),
    ("trivial_cusp", "x^2 - y^3"),
]
SAMPLE_POOL = ["2/3, -3", "5, 7/2", "-1/4, 3/5", "2, -2", "9/7, -5/3", "3, 4",
               "-1/2, 1/3", "4/5, -7"]


def _family_text(name, samples):
    if name.startswith("jump"):
        p, q = name[4], name[5]
        body = f"phi = x^{p} - y^{q};\nF = x + t*y;\n"
    else:
        body = f"phi = {dict(SPACE_FAMILIES)[name]};\n"
    return f"ring t, x, y;\nparam t;\n{body}kind family-analyze;\nsamples {samples};\n"


FAMILY_NAMES = [f"jump{p}{q}" for p, q in JUMP_GRID] + [n for n, _ in SPACE_FAMILIES]


# -- discriminants -------------------------------------------------------------

DISC_POOL = [(1, 2), (-1, 5), (2, -3), (-2, 7), (3, 1), (-3, -4), (4, 3),
             (-4, -1), (5, -5), (-5, 4), (6, -2), (-6, 6)]


def _disc_text(name, a, b):
    if name.startswith("plane"):
        d = int(name[5:])
        return f"ring x, y;\nphi = x, {fmt({(0, d): 1, (1, 1): a}, NAMES[2])};\nkind discriminant;\n"
    if name.startswith("space"):
        d = int(name[5:])
        g = fmt({(0, 0, d): 1, (1, 0, 1): a, (0, 1, d - 2): b}, NAMES[3])
        return f"ring x, y, z;\nphi = x, y, {g};\nkind discriminant;\n"
    g = fmt({(0, 4): 1, (1, 2): a, (2, 1): b}, NAMES[2])
    return f"ring x, y;\nphi = x, {g};\nkind discriminant;\n"


DISC_NAMES = [f"plane{d}" for d in range(3, 10)] + [f"space{d}" for d in range(3, 7)] + ["quartic"]


# -- assembling ------------------------------------------------------------------

FIXED_FIXTURES = {
    "germs": ["milnor_morse", "function_milnor", "icis_milnor_pair", "nonisolated",
              "bad_syntax", "bad_unbound", "bad_missing_param"],
    "families": ["ex43_23", "greuel_cusp", "inconclusive", "space_tacnode"],
    "discriminants": ["generic_line", "discriminant_plane"],
    "hard_germs": [],
}


def _generated(name, n, kind, polys, check):
    lines = [f"ring {_ring(n)};"]
    for key, ps in polys.items():
        lines.append(f"{key} = {', '.join(fmt(p, NAMES[n]) for p in ps)};")
    lines.append(f"kind {kind};")
    return Problem(name, "\n".join(lines) + "\n", check or ("oracle",), (kind, polys, n))


class Corpus:
    """Problems of one workload and seed, generated round by round."""

    def __init__(self, workload, seed):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.seed = seed
        self.cap_s = CAP_S[workload]
        self.trace_rounds = TRACE_ROUNDS[workload]
        rng = random.Random(f"{workload}:{seed}")
        # pooled templates visit their pool in a seeded order, so rounds
        # never repeat a text until the pool is exhausted
        pool = {"families": SAMPLE_POOL, "discriminants": DISC_POOL,
                "hard_germs": HARD_POOL}.get(workload)
        self.max_rounds = len(pool) if pool else 10**6
        names = {"families": FAMILY_NAMES, "discriminants": DISC_NAMES,
                 "hard_germs": ["hard"]}.get(workload, [])
        self._order = {n: rng.sample(range(len(pool)), len(pool)) for n in names}
        self._seen = set()

    def fixed(self):
        out = [Problem(name, (FIXTURES / f"{name}.icis").read_text(), ("recorded",))
               for name in FIXED_FIXTURES[self.workload]]
        if self.workload == "hard_germs":
            # the two known hangs quoted in the ROADMAP, as first measured
            out.append(_generated("roadmap_germ", *_hard_templates(-9, 3)[0][1:]))
            out.append(_generated("roadmap_icis4", *_hard_templates(1, 1)[2][1:]))
        self._seen.update(p.text for p in out)
        return out

    def round(self, r):
        """Problems of round r (rounds must be requested in order)."""
        if r >= self.max_rounds:
            raise IndexError("pool exhausted")
        w = self.workload
        if w == "germs":
            rng = random.Random(f"germs:{self.seed}:{r}")
            while True:
                probs = [_generated(f"r{r}_{name}", *rest) for name, *rest in _germs_round(rng)]
                if not any(p.text in self._seen for p in probs):
                    break
        elif w == "families":
            probs = [Problem(f"r{r}_{n}", _family_text(n, SAMPLE_POOL[self._order[n][r]]),
                             ("recorded",)) for n in FAMILY_NAMES]
        elif w == "discriminants":
            probs = [Problem(f"r{r}_{n}", _disc_text(n, *DISC_POOL[self._order[n][r]]),
                             ("recorded",)) for n in DISC_NAMES]
        else:
            a, b = HARD_POOL[self._order["hard"][r]]
            probs = [_generated(f"r{r}_{name}", *rest) for name, *rest in _hard_templates(a, b)]
        self._seen.update(p.text for p in probs)
        return probs


def recorded_problems():
    """Every problem text whose check is a recorded output: all fixtures
    and every pool entry of every pooled template."""
    out = [Problem(name, (FIXTURES / f"{name}.icis").read_text(), ("recorded",))
           for names in FIXED_FIXTURES.values() for name in names]
    out += [Problem(f"{n}_{i}", _family_text(n, s), ("recorded",))
            for n in FAMILY_NAMES for i, s in enumerate(SAMPLE_POOL)]
    out += [Problem(f"{n}_{i}", _disc_text(n, a, b), ("recorded",))
            for n in DISC_NAMES for i, (a, b) in enumerate(DISC_POOL)]
    return out
