"""The four benchmark workloads: seeded inputs, the jobs, and answer checks.

Inputs come from the seed alone.  For the finite workloads the seed picks
the job order and, per group, a random word h in the generators; the job
receives the spec document with every generator replaced by h*x*h^-1, which
spans the same group with a different element indexing and discovery order.
Every checked answer is a group invariant, so any seed must give the answers
stored in reference.json.

Jobs call the library through its module attributes (``counting.cp``, not a
name bound at import) so the traced run sees every call it wraps.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from commprob import branching, cli, counting, groupspec, symbolic
from commprob.groups import matrix_element, permutation_element
from commprob.fields import field_create

BENCH_DIR = Path(__file__).resolve().parent
SPEC_DIR = BENCH_DIR / "specs"
CORPUS_DIR = Path(groupspec.__file__).resolve().parent / "corpus"

WORKLOADS = ("finite_table", "finite_carrier", "symbolic", "warm_queries")

# The 2048-element table limit splits the finite groups in two.
TABLE_GROUPS = (
    "s3", "d4", "q8", "s4", "gl2_f2", "gl2_f3", "gl3_f2",
    "s5", "s6", "gl2_f4", "gl2_f5", "sl2_f7", "sl2_f8", "gl2_f7",
)
CARRIER_GROUPS = ("s7", "sl2_f13", "s5xs4")
WARM_GROUPS = ("s4", "gl3_f2", "s5", "gl2_f5", "sl2_f7")

ORACLE_CAP = 500
SEQUENCE_DMAX = 50
FINITE_ORACLE_DMAX = 3
WARM_ORACLE_DMAX = 6
BIG_D = (100, 200, 300, 400, 500, 600, 700, 800, 900)
TOP_D = 1000
RATIO_DMAX = 300
FIXTURES = ("gl2", "gl3", "gl4")
# One exact-path d from each band plus the top one, d = 24, so every seed
# does comparable work and the costliest exact job is always there.
EXACT_D_BANDS = ((2, 7), (8, 13), (14, 19))
EXACT_D_TOP = 24
TROPICAL_D = (100, 1000, 10000)
DIAGONAL_SHAPES = ((4, 200), (6, 100))
DIAGONAL_R = range(2, 11)
CLI_COMMANDS = (
    ("cpd", "q8", "--d", "6", "--oracle"),
    ("ratio", "gl3_f2", "--dmax", "200"),
    ("symbolic", "--fixture", "gl4", "--d", "2000"),
)
WORD_LENGTH = 12


@dataclass(frozen=True)
class Job:
    key: str
    kind: str
    args: tuple


def digest(value) -> str:
    """Short stable digest of a JSON-able value."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def spec_text(name: str) -> str:
    path = SPEC_DIR / f"{name}.json"
    if not path.exists():
        path = CORPUS_DIR / f"{name}.json"
    return path.read_text(encoding="utf-8")


def conjugated_spec(name: str, rng: random.Random) -> str:
    """The group's spec with its generators conjugated by a random word."""
    obj = json.loads(spec_text(name))
    if obj["kind"] == "permutation":
        gens = [permutation_element(g) for g in obj["generators"]]
    else:
        f = obj["field"]
        field = field_create(f["p"], f.get("k", 1), f.get("modulus"))
        gens = [matrix_element(field, g) for g in obj["generators"]]
    carrier = gens[0].carrier
    letters = [g.data for g in gens] + [carrier.inv(g.data) for g in gens]
    h = carrier.identity()
    for _ in range(WORD_LENGTH):
        h = carrier.mul(h, rng.choice(letters))
    h_inv = carrier.inv(h)
    conj = [carrier.mul(carrier.mul(h, g.data), h_inv) for g in gens]
    if obj["kind"] == "permutation":
        obj["generators"] = [list(x) for x in conj]
    else:
        n = obj["degree"]
        obj["generators"] = [[list(x[i * n : (i + 1) * n]) for i in range(n)] for x in conj]
    return json.dumps(obj)


def random_condition_matrix(rng: random.Random, m: int, max_entry: int = 3):
    """A non-negative matrix meeting diagonal_degree_interval's preconditions.

    The same shape as the test suite's c07 matrices; the benchmark cannot
    import it from tests/, which is not a package.
    """
    entries = [[0] * m for _ in range(m)]
    for i in range(m):
        entries[i][i] = rng.randint(1, max_entry)
        for j in range(m):
            if i != j and rng.random() < 0.4:
                entries[i][j] = rng.randint(0, max_entry)
    for i in range(1, m):
        if not any(entries[i][j] for j in range(i)):
            entries[i][rng.randrange(i)] = rng.randint(1, max_entry)
    return entries


# ---------------------------------------------------------------------------
# inputs


def make_jobs(workload: str, seed: int) -> list[Job]:
    rng = random.Random(f"{workload}:{seed}")
    if workload in ("finite_table", "finite_carrier"):
        names = list(TABLE_GROUPS if workload == "finite_table" else CARRIER_GROUPS)
        jobs = [Job(name, "finite", (conjugated_spec(name, rng),)) for name in names]
    elif workload == "symbolic":
        jobs = []
        for fx in FIXTURES:
            jobs.append(Job(f"verify:{fx}", "verify", (fx,)))
            ds = [rng.randint(lo, hi) for lo, hi in EXACT_D_BANDS] + [EXACT_D_TOP, *TROPICAL_D]
            for d in ds:
                jobs.append(Job(f"window:{fx}:{d}", "window", (fx, d)))
                jobs.append(Job(f"bounds:{fx}:{d}", "bounds", (fx, d)))
        for m, count in DIAGONAL_SHAPES:
            for _ in range(count):
                entries = random_condition_matrix(rng, m)
                jobs.append(Job(f"diagonal:{digest(entries)}", "diagonal", (entries,)))
    elif workload == "warm_queries":
        jobs = []
        small_d = list(range(1, SEQUENCE_DMAX + 1))
        for name in WARM_GROUPS:
            for d in range(1, WARM_ORACLE_DMAX + 1):
                jobs.append(Job(f"oracle:{name}:{d}", "oracle", (name, d)))
            for kind in ("class_count", "cp", "commuting_count"):
                for d in rng.sample(small_d, 2) + [rng.choice(BIG_D), TOP_D]:
                    jobs.append(Job(f"{kind}:{name}:{d}", kind, (name, d)))
            jobs.append(Job(f"ratio:{name}:{RATIO_DMAX}", "ratio", (name, RATIO_DMAX)))
        for argv in CLI_COMMANDS:
            jobs.append(Job("cli:" + " ".join(argv), "cli", argv))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(jobs)
    return jobs


def make_context(workload: str, seed: int) -> dict:
    """Specs for the warm groups, conjugated like the cold jobs' specs."""
    if workload != "warm_queries":
        return {}
    rng = random.Random(f"{workload}:{seed}:warm")
    return {"specs": {name: conjugated_spec(name, rng) for name in WARM_GROUPS}}


# ---------------------------------------------------------------------------
# jobs


def build_tables(group) -> None:
    """The first FiniteGroup.inv on a fresh group builds its lookup tables."""
    group.inv(0)


def table_entries(group) -> int:
    table = getattr(group, "_mul_table", None)
    return sum(len(row) for row in table if row is not None) if table else 0


def setup(context: dict) -> dict:
    """Untimed state the jobs read: for warm_queries, built groups with matrices."""
    groups = {}
    for name, text in context.get("specs", {}).items():
        group = groupspec.build_group(groupspec.parse_group_spec(text))
        build_tables(group)
        branching.branching_matrix(group)
        groups[name] = group
    return groups


def finite_pipeline(text: str) -> dict:
    spec = groupspec.parse_group_spec(text)
    group = groupspec.build_group(spec)
    build_tables(group)
    matrix, registry = branching.branching_matrix(group)
    report = branching.verify_structure(matrix, registry)
    sequence = counting.class_count_sequence(group, SEQUENCE_DMAX)
    pairs = counting.commuting_count(group, 2)
    cp2 = counting.cp(group, 2)
    alpha, _ = counting.max_abelian(group)
    oracle = None
    if group.order <= ORACLE_CAP:
        oracle = [counting.oracle_class_count(group, d) for d in range(1, FINITE_ORACLE_DMAX + 1)]
    return {
        "order": group.order,
        "beta": matrix.size,
        "structure_ok": report.ok,
        "c": [str(x) for x in sequence],
        "commuting_pairs": str(pairs),
        "cp2": str(cp2),
        "max_abelian": alpha,
        "oracle": oracle,
    }


def capture_cli(argv) -> tuple[int, str]:
    """cli.run in-process: its exit code and its stdout text."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(list(argv))
    return code, out.getvalue()


def cli_answer(code: int, text: str) -> dict:
    return {"exit": code, "stdout": hashlib.sha256(text.encode()).hexdigest()}


def run_job(job: Job, groups: dict):
    kind, args = job.kind, job.args
    if kind == "finite":
        return finite_pipeline(*args)
    if kind == "verify":
        report = symbolic.verify_symbolic_structure(symbolic.fixture(args[0]))
        return {"ok": report.ok, "summary": report.summary()}
    if kind == "window":
        w = symbolic.degree_window(symbolic.fixture(args[0]), args[1])
        return [w.degree, w.degree_low, w.degree_high, str(w.window_low), str(w.window_high)]
    if kind == "bounds":
        low, high = symbolic.cp_bounds(symbolic.fixture(args[0]), args[1])
        return [str(low), str(high)]
    if kind == "diagonal":
        entries = args[0]
        out = []
        for l in range(len(entries)):
            for r in DIAGONAL_R:
                iv = symbolic.diagonal_degree_interval(entries, l, r)
                out.append([iv.degree, iv.low, iv.high])
        return out
    if kind == "cli":
        return cli_answer(*capture_cli(args))
    group = groups[args[0]]
    if kind == "oracle":
        return counting.oracle_class_count(group, args[1])
    if kind == "class_count":
        return str(counting.class_count(group, args[1]))
    if kind == "commuting_count":
        return str(counting.commuting_count(group, args[1]))
    if kind == "cp":
        return str(counting.cp(group, args[1]))
    if kind == "ratio":
        report = counting.asymptotic_ratio(group, args[1])
        return [str(report.estimate), str(report.last_delta)]
    raise ValueError(f"unknown job kind {kind!r}")


# ---------------------------------------------------------------------------
# checks against reference.json


def load_reference() -> dict:
    return json.loads((BENCH_DIR / "reference.json").read_text(encoding="utf-8"))


def diagonal_reference(entries) -> list:
    """[degree, low, high] per (l, r) by max-plus walk counting, not PsiPoly.

    The degree of (B^r)[l][0] in the symbolised entry b_ll is the largest
    number of (l, l) loops on a length-r walk from 0 to l along nonzero
    entries; coefficients are non-negative, so nothing cancels.
    """
    m = len(entries)
    out = []
    for l in range(m):
        v = [0 if i == 0 else None for i in range(m)]
        by_r = {}
        for r in range(1, max(DIAGONAL_R) + 1):
            nv = []
            for i in range(m):
                best = None
                for k in range(m):
                    if v[k] is None or not entries[i][k]:
                        continue
                    cand = v[k] + (1 if i == k == l else 0)
                    if best is None or cand > best:
                        best = cand
                nv.append(best)
            v = nv
            by_r[r] = v[l]
        for r in DIAGONAL_R:
            out.append([by_r[r], r - m, r])
    return out


def window_reference(fx: dict, d: int) -> list:
    degree, alpha, beta, n = fx["degrees"][str(d)], fx["alpha"], fx["beta"], fx["group_dim"]
    return [
        degree,
        (d - beta) * alpha,
        d * alpha,
        str(Fraction((d - beta) * alpha, d * n)),
        str(Fraction(alpha, n) + Fraction(1, d)),
    ]


def expected(job: Job, ref: dict):
    """The reference answer for a job, derived from reference.json."""
    kind, args = job.kind, job.args
    if kind == "finite":
        return ref["groups"][job.key]
    if kind == "verify":
        return ref["fixtures"][args[0]]["verify"]
    if kind == "window":
        return window_reference(ref["fixtures"][args[0]], args[1])
    if kind == "bounds":
        fx, d = ref["fixtures"][args[0]], args[1]
        low = Fraction(fx["degrees"][str(d)], d * fx["group_dim"])
        return [str(low), str(low + Fraction(1, d))]
    if kind == "diagonal":
        return diagonal_reference(args[0])
    if kind == "cli":
        return ref["cli"][" ".join(args)]
    name, d = args
    g = ref["groups"][name]
    order = g["order"]
    if kind == "oracle":
        return int(g["c"][d])
    if kind == "ratio":
        return ref["warm"][name]["ratio"]
    if d > SEQUENCE_DMAX:
        return ref["warm"][name][kind][str(d)]
    if kind == "class_count":
        return g["c"][d]
    pairs = order * int(g["c"][d - 1])
    return str(pairs) if kind == "commuting_count" else str(Fraction(pairs, order**d))


def matches(job: Job, answer, ref: dict) -> bool:
    want = expected(job, ref)
    if job.kind in ("class_count", "cp", "commuting_count") and job.args[1] > SEQUENCE_DMAX:
        return digest(answer) == want
    if job.kind == "ratio":
        return digest(answer) == want
    return answer == want
