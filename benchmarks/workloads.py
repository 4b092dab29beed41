"""Seeded inputs, fixed task lists and output checks for the benchmark.

Stdlib only, and nothing here imports hodgejump: the inputs a seed makes
do not depend on the code under test, and the program receives them only
as manifest documents and command lines.

A workload is built as ``{"manifests": {name: json_text}, "tasks": [...]}``.
Every task is a dict with a unique ``id`` and an ``op`` that
``passrun.py`` knows how to execute; a pass runs the tasks in list order.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from fractions import Fraction

WORKLOADS = ("hodge-ladder", "obstruction-n5", "lab-complexes", "iwasawa-cli")
DEFAULT_SEED = 1

# Exact nonzero values of Q(i), as (real, imaginary) parts, that the
# seeded generators draw from.
UNITS = ((1, 0), (-1, 0), (2, 0), (Fraction(1, 2), 0), (0, 1), (0, -1), (1, 1), (1, -1))
POINT_VALUES = ("1", "-1", "2", "1/2", "i", "1+i")
# The units of Z[i]: lab complexes built from them keep their entries small,
# so no seed's elimination is dominated by coefficient growth.
GAUSSIAN_UNITS = ((1, 0), (-1, 0), (0, 1), (0, -1))

# The three Iwasawa deformation classes, in the nine-number row order
# h^{1,0} h^{0,1} h^{2,0} h^{1,1} h^{0,2} h^{3,0} h^{2,1} h^{1,2} h^{0,3}.
IWASAWA_ROWS = {
    "i": (3, 2, 3, 6, 2, 1, 6, 6, 1),
    "ii": (2, 2, 2, 5, 2, 1, 5, 5, 1),
    "iii": (2, 2, 1, 5, 2, 1, 4, 4, 1),
}
IWASAWA_NAMED_POINTS = {"i": "t11=0", "ii": "t11=1", "iii": "t11=1,t22=1"}
THREEFOLD_ROW = ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 0), (2, 1), (1, 2), (0, 3))
IWASAWA_PARAMS = ("t11", "t12", "t21", "t22", "t31", "t32")


# -- manifests ---------------------------------------------------------------

def _lie_manifest(name, n, terms, params=(), deformation=(), points=None):
    doc = {
        "name": name,
        "kind": "lie-algebra",
        "dimension": n,
        "structure": [{"k": k, "monomial": m, "coefficient": c} for k, m, c in terms],
    }
    if params:
        doc["parameters"] = list(params)
        doc["deformation"] = [
            {"i": i, "lambda": lam, "coefficient": c} for i, lam, c in deformation
        ]
        doc["options"] = {"order": 2, "points": points or {}}
    return json.dumps(doc, indent=1, sort_keys=True)


HEISENBERG_X_C = ("heisxc", 4, [(4, "f1^f2", "-1")])
N5_TWO_STEP = ("n5", 5, [(5, "f1^f2", "-1"), (4, "f1^f3", "-1")])
IWASAWA = ("iwasawa3", 3, [(3, "f1^f2", "-1")])


def random_two_step(rng: random.Random, n: int):
    """Two-step structure with f1..f(n-2) closed and seeded nonzero Q(i)
    coefficients a, b, c, d in
        d f(n)   = a f1^f2 + b f2^c(n-2),
        d f(n-1) = c f1^f(n-2) + d f(n-2)^c2.
    The support is fixed: with seeded positions, the op count of a Hodge
    table moved by +-7% between seeds, while with seeded values alone it
    does not move."""
    m = n - 2
    support = [(n, "f1^f2"), (n, f"f2^c{m}"), (n - 1, f"f1^f{m}"), (n - 1, f"f{m}^c2")]
    return [(k, mono, gr_str(rng.choice(UNITS))) for k, mono in support]


def gr_str(c) -> str:
    re_, im = (Fraction(x) for x in c)
    if not im:
        return str(re_)
    imag = "i" if im == 1 else "-i" if im == -1 else f"{im}*i"
    if not re_:
        return imag
    return f"{re_}{imag}" if imag.startswith("-") else f"{re_}+{imag}"


# -- lab complexes over Q(i)[t] ------------------------------------------------
# A polynomial is a dict degree -> (re, im) with nonzero values; this small
# arithmetic builds the scrambled differentials without the program's types.

def _cmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _padd(a, b):
    out = dict(a)
    for k, c in b.items():
        s = (out.get(k, (0, 0))[0] + c[0], out.get(k, (0, 0))[1] + c[1])
        if s == (0, 0):
            out.pop(k, None)
        else:
            out[k] = s
    return out


def _pmul(a, b):
    out = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            out = _padd(out, {k1 + k2: _cmul(c1, c2)})
    return out


def _pneg(a):
    return {k: (-c[0], -c[1]) for k, c in a.items()}


def _mono(k, c):
    return {k: (Fraction(c[0]), Fraction(c[1]))}


def _matmul(a, b, inner):
    return [[_reduce_sum(_pmul(a[i][m], b[m][j]) for m in range(inner))
             for j in range(len(b[0]) if b else 0)] for i in range(len(a))]


def _reduce_sum(polys):
    out = {}
    for p in polys:
        out = _padd(out, p)
    return out


def poly_str(p, param="t") -> str:
    if not p:
        return "0"
    terms = []
    for k in sorted(p):
        re_, im = p[k]
        power = "" if k == 0 else f"*{param}" if k == 1 else f"*{param}^{k}"
        if re_:
            terms.append(f"{re_}{power}")
        if im:
            terms.append(f"{im}*i{power}")
    return "+".join(terms)


def random_lab_complex(rng: random.Random, kinds):
    """Three-term complex R^P0 -> R^P1 -> R^P2 over R = Q(i)[t], a direct sum
    of elementary blocks scrambled by unimodular transforms.

    Block kinds: ``free<q>`` (a free summand in degree q), ``map01``/``map12``
    (R --u t^k--> R) and ``pair`` (R --(f, g)--> R^2 --(-g, f)--> R).  A ``+``
    suffix makes the block vanish at t = 0 (entries u t), a ``0`` suffix
    keeps a unit there, so the kinds fix the cohomology at 0 and the seed
    only picks units and the scrambling.  Returns (ranks, (d0, d1) as
    polynomial matrices, truth) where truth holds per degree q: h at t = 0,
    h at generic t, the kernel drop of d^q and the image rise of d^(q-1).
    """
    ranks = [0, 0, 0]
    d_blocks = ([], [])          # per differential: (rows, cols, entries)
    rank_at0 = [0, 0]
    rank_gen = [0, 0]

    def entry(vanishing):
        return _mono(1 if vanishing else 0, rng.choice(GAUSSIAN_UNITS))

    for kind in kinds:
        vanishing = kind.endswith("+")
        if kind.startswith("free"):
            q = int(kind[-1])
            ranks[q] += 1
            if q < 2:
                d_blocks[q].append((0, 1, []))
            if q > 0:
                d_blocks[q - 1].append((1, 0, [[]]))
        elif kind.startswith("map"):
            q = int(kind[3])
            ranks[q] += 1
            ranks[q + 1] += 1
            d_blocks[q].append((1, 1, [[entry(vanishing)]]))
            # the shared middle rank grows, so the other differential
            # gains an empty column (d1) or an empty row (d0)
            d_blocks[1 - q].append((0, 1, []) if q == 0 else (1, 0, [[]]))
            rank_gen[q] += 1
            rank_at0[q] += not vanishing
        else:  # pair: d0 = (f, g), d1 = (-g, f)
            f = entry(vanishing)
            g = _mono(1, rng.choice(GAUSSIAN_UNITS))
            if rng.random() < 0.5:
                f, g = g, f
            ranks[0] += 1
            ranks[1] += 2
            ranks[2] += 1
            d_blocks[0].append((2, 1, [[f], [g]]))
            d_blocks[1].append((1, 2, [[_pneg(g), f]]))
            for q in (0, 1):
                rank_gen[q] += 1
                rank_at0[q] += not vanishing

    def assemble(blocks, rows, cols):
        m = [[{} for _ in range(cols)] for _ in range(rows)]
        r0 = c0 = 0
        for br, bc, entries in blocks:
            for i in range(br):
                for j in range(bc):
                    m[r0 + i][c0 + j] = entries[i][j]
            r0 += br
            c0 += bc
        return m

    def unimodular(size, degree):
        """(U, U^-1) from two elementary row operations of the given degree at
        fixed rows; the seed picks their units."""
        ident = [[_mono(0, (1, 0)) if i == j else {} for j in range(size)] for i in range(size)]
        u = [row[:] for row in ident]
        uinv = [row[:] for row in ident]
        ops = []
        if size > 1:   # u t^deg x row 1 onto row 0, u' t^deg x row -2 onto row -1
            ops = [(0, 1, _mono(degree, rng.choice(GAUSSIAN_UNITS)))]
        if size > 2:
            ops.append((size - 1, size - 2, _mono(degree, rng.choice(GAUSSIAN_UNITS))))
        for i, j, p in ops:
            u[i] = [_padd(u[i][c], _pmul(p, u[j][c])) for c in range(size)]
        for i, j, p in reversed(ops):
            uinv[i] = [_padd(uinv[i][c], _pneg(_pmul(p, uinv[j][c]))) for c in range(size)]
        return u, uinv

    d0 = assemble(d_blocks[0], ranks[1], ranks[0])
    d1 = assemble(d_blocks[1], ranks[2], ranks[1])
    # only the middle transform has degree 1, so entries keep degree <= 2
    u = [unimodular(r, int(q == 1)) for q, r in enumerate(ranks)]
    d0 = _matmul(_matmul(u[1][0], d0, ranks[1]), u[0][1], ranks[0])
    d1 = _matmul(_matmul(u[2][0], d1, ranks[2]), u[1][1], ranks[1])

    rank0 = (0, *rank_at0, 0)   # rank at t = 0 of d^(q-1) for q = 0..3
    rankg = (0, *rank_gen, 0)
    truth = []
    for q in range(3):
        truth.append({
            "h0": ranks[q] - rank0[q + 1] - rank0[q],
            "h_generic": ranks[q] - rankg[q + 1] - rankg[q],
            "kernel_drop": rankg[q + 1] - rank0[q + 1],
            "image_rise": rankg[q] - rank0[q],
        })
    return ranks, (d0, d1), truth


# -- workload generators --------------------------------------------------------
# Each returns (manifests, builtins, tasks, expect); ``expect`` stays with the
# checker and never reaches the program.

KNOWN_TABLES = {   # h^{p,q}, p-major, of the fixed structures
    "heisxc": (1, 3, 4, 3, 1, 4, 12, 16, 12, 4, 6, 18, 24, 18, 6, 4, 12, 16, 12, 4,
               1, 3, 4, 3, 1),
    "n5": (1, 3, 6, 6, 3, 1, 5, 15, 30, 30, 15, 5, 10, 30, 60, 60, 30, 10, 10, 30,
           60, 60, 30, 10, 5, 15, 30, 30, 15, 5, 1, 3, 6, 6, 3, 1),
}


def _hodge_ladder(rng, tiny):
    structures = [HEISENBERG_X_C] if tiny else [HEISENBERG_X_C, N5_TWO_STEP]
    n = 4 if tiny else 5
    structures.append(("random", n, random_two_step(rng, n)))
    manifests = {name: _lie_manifest(name, n, terms) for name, n, terms in structures}
    tasks = [{"id": name, "op": "hodge", "manifest": name} for name, _, _ in structures]
    expect = {name: {"n": n, "table": KNOWN_TABLES.get(name)} for name, n, _ in structures}
    return manifests, [], tasks, expect


# The paper's undercount example: on the n = 5 structure along
# psi = u theta1 (x) c1, o1 on H^{2,1} is zero, yet h^{2,1} drops from 30 to
# 24; two classes are obstructed at order 2 and o1 maps H^{2,0} onto a
# rank-4 subspace.  The tiny variant runs the same scenario on Iwasawa.
UNDERCOUNT = {
    False: {"structure": N5_TWO_STEP, "h0": 30, "first": 0, "second": 4,
            "obstructed": {"1": 0, "2": 2}, "oracle": 24},
    True: {"structure": IWASAWA, "h0": 6, "first": 0, "second": 1,
           "obstructed": {"1": 0, "2": 0}, "oracle": 5},
}


def _obstruction_n5(rng, tiny):
    expect = UNDERCOUNT[tiny]
    _, n, terms = expect["structure"]
    point = {"u": rng.choice(POINT_VALUES)}
    manifests = {"psi": _lie_manifest("psi", n, terms, params=("u",),
                                      deformation=[(1, 1, "u")], points={"x": point})}
    classes = list(range(expect["h0"]))
    rng.shuffle(classes)
    base = {"manifest": "psi"}
    tasks = [
        {"id": "mc", "op": "mc_extend", "order": 2, **base},
        {"id": "o1:2,0", "op": "o1", "p": 2, "q": 0, "point": "x", **base},
        {"id": "o1:2,1", "op": "o1", "p": 2, "q": 1, "point": "x", **base},
    ]
    tasks += [{"id": f"extend:{k}", "op": "extend_class", "class": k, "source": "o1:2,1",
               "family": "mc", "order": 2, **base} for k in classes]
    tasks.append({"id": "oracle", "op": "oracle", "family": "mc", "point": "x", **base})
    return manifests, [], tasks, expect


# Every complex has the same blocks in the same order and the same maximal
# entry degree, so the jet systems (whose order bound is degree x total
# rank + 1) have the same size and sparsity under every seed; the seed picks
# the units of the entries and of the scrambling transforms.  Shuffling the
# block order or the rows the transforms touch made the cost of a pass vary
# by up to +-20% between seeds, through fill-in alone.
LAB_SHAPE = {False: (8, ("free1", "map01+", "map12+", "pair0", "pair+"), 2),
             True: (2, ("free0", "map01+", "pair0"), 2)}


def _lab_complexes(rng, tiny):
    count, kinds, degree = LAB_SHAPE[tiny]
    manifests, tasks, expect = {}, [], {}
    for c in range(count):
        for _ in range(100):
            ranks, diffs, truth = random_lab_complex(rng, kinds)
            if max((max(p) for d in diffs for row in d for p in row if p), default=0) == degree:
                break
        else:
            raise ValueError(f"no complex of entry degree {degree} from blocks {kinds}")
        name = f"lab{c:02d}"
        manifests[name] = json.dumps({
            "name": name, "kind": "free-complex", "parameter": "t", "ranks": ranks,
            "differentials": [[[poly_str(p) for p in row] for row in d] for d in diffs],
        }, indent=1, sort_keys=True)
        for q in range(3):
            tasks.append({"id": f"{name}:q{q}", "op": "accounting", "manifest": name, "q": q})
            expect[f"{name}:q{q}"] = truth[q]
    return manifests, [], tasks, expect


def _random_point(rng):
    names = rng.sample(IWASAWA_PARAMS, rng.randint(1, 3))
    return ",".join(f"{name}={rng.choice(POINT_VALUES)}" for name in sorted(names))


def _iwasawa_cli(rng, tiny):
    """A fixed mix of short calls; the seed picks order, bidegrees and points.

    The mix keeps the median call well inside the cluster of short calls
    (validate, witness, obstruct, mc: about 2-9 ms) and the 90th percentile
    well inside the cluster of jump calls (about 45 ms), so neither lands on
    the gap between clusters where a small shift would move it a lot.
    """
    scale = 1 if tiny else 8
    calls = []
    for cmd in ("validate", "witness"):
        calls += [[cmd, "iwasawa"] for _ in range(scale)]
    for cmd in ("hodge", "d1"):
        calls += [[cmd, "iwasawa"] for _ in range(scale * 3 // 4)]
    pqs = [(p, q) for p in range(4) for q in range(4)]
    if tiny:
        pqs = rng.sample(pqs, 2)
    for p, q in pqs * (1 if tiny else 3):
        calls.append(["obstruct", "iwasawa", "--p", str(p), "--q", str(q),
                      "--point", _random_point(rng)])
    calls += [["mc", "iwasawa", "--order", str(2 + k % 3)] for k in range(3 * scale // 2)]
    calls += [["jump", "iwasawa", "--point", pt] for pt in IWASAWA_NAMED_POINTS.values()]
    calls += [["jump", "iwasawa", "--point", _random_point(rng)]
              for _ in range(1 if tiny else 18)]
    rng.shuffle(calls)
    tasks = []
    for k, argv in enumerate(calls):
        if k % 2:
            argv = argv + ["--format", "json"]
        tasks.append({"id": f"call{k:03d}", "op": "cli", "argv": argv})
    return {}, ["iwasawa"], tasks, {}


GENERATORS = {
    "hodge-ladder": _hodge_ladder,
    "obstruction-n5": _obstruction_n5,
    "lab-complexes": _lab_complexes,
    "iwasawa-cli": _iwasawa_cli,
}


def build(workload: str, seed: int, tiny: bool = False) -> dict:
    """The job a pass runs (manifests, builtins, tasks) and what to expect."""
    rng = random.Random(f"{workload}:{seed}")
    manifests, builtins, tasks, expect = GENERATORS[workload](rng, tiny)
    return {"job": {"manifests": manifests, "builtins": builtins, "tasks": tasks},
            "expect": expect}


def task_key(workload: str, job: dict, task: dict) -> str:
    """Identity of a task's input: same key, same expected output bytes."""
    body = {k: v for k, v in task.items() if k != "id"}
    manifest = job["manifests"].get(task.get("manifest"))
    blob = json.dumps([workload, body, manifest], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# -- output checks -----------------------------------------------------------------
# Each checker adds {task id: reason} for every wrong answer it can see.

IWASAWA_H = ((1, 2, 2, 1), (3, 6, 6, 3), (3, 6, 6, 3), (1, 2, 2, 1))
IWASAWA_MC2 = "(-t11*t22+t12*t21)*theta3(x)c3"
IWASAWA_D1_RANK = 6     # summed rank of d1 over all bidegrees


def _json_outputs(tasks, outs, bad):
    docs = {}
    for t in tasks:
        try:
            docs[t["id"]] = json.loads(outs[t["id"]]["out"])
        except ValueError:
            bad.setdefault(t["id"], "output is not JSON")
    return docs


def _table_problems(n, dim):
    for p in range(n + 1):
        for q in range(n + 1):
            if dim[p, q] != dim[n - p, n - q]:
                return f"h^{p},{q} != h^{n - p},{n - q}"
        if sum((-1) ** q * dim[p, q] for q in range(n + 1)):
            return f"row p={p} has nonzero alternating sum"
    return None


def _hodge_numbers(doc) -> dict:
    return {tuple(map(int, key.split(","))): h for key, h in doc["h"].items()}


def _check_hodge(job, expect, outs, bad):
    for tid, doc in _json_outputs(job["tasks"], outs, bad).items():
        n, known = expect[tid]["n"], expect[tid]["table"]
        dim = _hodge_numbers(doc)
        flat = tuple(dim.get((p, q)) for p in range(n + 1) for q in range(n + 1))
        if len(dim) != (n + 1) ** 2 or None in flat:
            problem = "table does not cover every bidegree"
        else:
            problem = _table_problems(n, dim)
        if problem is None and known is not None and flat != known:
            problem = "table differs from the known one"
        if problem:
            bad.setdefault(tid, problem)


def _check_obstruction(job, expect, outs, bad):
    tasks = job["tasks"]
    docs = _json_outputs(tasks, outs, bad)
    extends = [t["id"] for t in tasks if t["op"] == "extend_class"]
    needed = ["mc", "o1:2,0", "o1:2,1", "oracle", *extends]
    if any(k not in docs for k in needed):
        for k in needed:
            bad.setdefault(k, "scenario incomplete")
        return
    src, img = docs["o1:2,1"], docs["o1:2,0"]
    if docs["mc"]["order"] != 2:
        bad["mc"] = "family order != 2"
    if (src["source_dim"], src["rank_at_point"]) != (expect["h0"], expect["first"]):
        bad["o1:2,1"] = "H^{2,1} dimension or first-order rank differs"
    if img["rank_at_point"] != expect["second"]:
        bad["o1:2,0"] = "rank of o1 on H^{2,0} differs"
    counts = {"1": 0, "2": 0}
    for k in extends:
        d = docs[k]
        if d["status"] == "obstructed":
            counts[str(d["order"])] = counts.get(str(d["order"]), 0) + 1
        elif d["status"] != "extended":
            bad[k] = f"unknown status {d['status']!r}"
    if counts != expect["obstructed"]:
        for k in extends:
            bad.setdefault(k, f"obstructed classes by order {counts}")
    h = _hodge_numbers(docs["oracle"])
    n = max(p for p, _ in h)
    problem = _table_problems(n, h)
    if problem or h[2, 1] != expect["oracle"]:
        bad["oracle"] = problem or "oracle h^{2,1} differs"
    if src["source_dim"] - sum(counts.values()) - img["rank_at_point"] != h[2, 1]:
        for k in needed:
            bad.setdefault(k, "h0 - obstructed - rank o1|H^{2,0} != oracle h^{2,1}")


def _check_lab(job, expect, outs, bad):
    docs = _json_outputs(job["tasks"], outs, bad)
    for tid, d in docs.items():
        truth = expect[tid]
        got = {k: d[k] for k in truth}
        if got != truth:
            bad[tid] = f"accounting {got} != generator truth {truth}"
        elif not d["consistent"]:
            bad[tid] = "report is not consistent"
        elif (d["first_class_dim"], d["second_class_dim"]) != (
                truth["kernel_drop"], truth["image_rise"]):
            bad[tid] = "obstructed dimensions differ from the rank changes"


def _row(table) -> tuple:
    return tuple(table[pq] for pq in THREEFOLD_ROW)


def _cli_problem(argv, out) -> str | None:
    cmd, as_json = argv[0], "--format" in argv
    doc = json.loads(out) if as_json else None
    lines = out.splitlines()
    if cmd == "validate":
        ok = doc["valid"] is True if as_json else lines == ["iwasawa: lie-algebra manifest is valid"]
        return None if ok else "manifest not reported valid"
    if cmd == "hodge":
        if as_json:
            row = _row({pq: doc["h"][f"{pq[0]},{pq[1]}"] for pq in THREEFOLD_ROW})
        else:
            row = tuple(int(x) for x in lines[-1].split("=")[1].split())
        return None if row == IWASAWA_ROWS["i"] else f"Hodge row {row}"
    if cmd == "d1":
        if as_json:
            ranks = [m["rank"] for m in doc["maps"].values()]
        else:
            ranks = [int(line.split()[1]) for line in lines[2:]]
        ok = len(ranks) == 16 and sum(ranks) == IWASAWA_D1_RANK
        return None if ok else f"d1 ranks {ranks}"
    if cmd == "witness":
        ok = doc["witness"] is not None if as_json else lines[0].startswith("witness: ")
        return None if ok else "no witness"
    if cmd == "obstruct":
        p, q = int(argv[argv.index("--p") + 1]), int(argv[argv.index("--q") + 1])
        if as_json:
            dims = doc["source_dim"], doc["target_dim"]
            generic, at_point = doc["generic_rank"], doc["rank_at_point"]
        else:
            dims = tuple(int(x) for x in re.findall(r"\(dim (\d+)\)", lines[0]))
            generic = int(lines[1].split(":")[1])
            at_point = int(lines[-1].split(":")[1])
        want = (IWASAWA_H[p][q], IWASAWA_H[p][q + 1] if q < 3 else 0)
        ok = dims == want and 0 <= at_point <= generic <= min(dims)
        return None if ok else f"dims {dims} ranks {generic}/{at_point}"
    if cmd == "mc":
        order = int(argv[argv.index("--order") + 1])
        want = {str(k): IWASAWA_MC2 if k == 2 else "0" for k in range(2, order + 1)}
        if as_json:
            got = doc["corrections"] if doc["order"] == order else None
        else:
            got = dict(line[4:].split(" = ") for line in lines[1:])
            got = got if lines[0] == f"family extended to order {order}" else None
        return None if got == want else "Maurer-Cartan corrections differ"
    # jump
    if as_json:
        predicted = _row({pq: doc["rows"][f"{pq[0]},{pq[1]}"]["predicted"] for pq in THREEFOLD_ROW})
        oracle = _row({pq: doc["rows"][f"{pq[0]},{pq[1]}"]["oracle"] for pq in THREEFOLD_ROW})
        agree = doc["agree"]
    else:
        rows = {line.split(":")[0].split()[0]: tuple(map(int, line.split(":")[1].split()))
                for line in lines if "row:" in line}
        predicted, oracle = rows["predicted"], rows["oracle"]
        agree = not any(line.startswith("WARNING") for line in lines)
    if not agree or predicted != oracle:
        return "prediction disagrees with the oracle"
    point = argv[argv.index("--point") + 1]
    named = [label for label, pt in IWASAWA_NAMED_POINTS.items() if pt == point]
    allowed = [IWASAWA_ROWS[named[0]]] if named else list(IWASAWA_ROWS.values())
    return None if predicted in allowed else f"row {predicted} is not an Iwasawa class row"


def _check_cli(job, expect, outs, bad):
    for t in job["tasks"]:
        o = outs[t["id"]]
        if o["code"] != 0:
            bad.setdefault(t["id"], f"exit code {o['code']}")
            continue
        try:
            problem = _cli_problem(t["argv"], o["out"])
        except (ValueError, KeyError, IndexError, TypeError) as e:
            problem = f"unparsable output ({type(e).__name__})"
        if problem:
            bad.setdefault(t["id"], problem)


CHECKERS = {
    "hodge-ladder": _check_hodge,
    "obstruction-n5": _check_obstruction,
    "lab-complexes": _check_lab,
    "iwasawa-cli": _check_cli,
}


def check(workload: str, built: dict, outs: dict, digests: dict, seed: int) -> dict:
    """Task id -> reason, for every task of one pass whose output is wrong.

    ``outs`` maps task id to {"code", "out", "error"}.  ``digests`` holds
    the sha256 of each task's output recorded at the seed commit, keyed by
    ``task_key``; at the default seed every task must have one.
    """
    job = built["job"]
    bad = {tid: o["error"] for tid, o in outs.items() if o["error"]}
    for t in job["tasks"]:
        want = digests.get(task_key(workload, job, t))
        if want is None and seed == DEFAULT_SEED:
            bad.setdefault(t["id"], "no recorded output digest")
        elif want is not None and want != digest(outs[t["id"]]["out"]):
            bad.setdefault(t["id"], "output bytes differ from the recorded digest")
    CHECKERS[workload](job, built["expect"], outs, bad)
    return bad
