"""Generate reference.json, the answers every benchmark job is checked against.

Run once from the repository root on the commit whose answers are trusted:

    python3 bench/make_reference.py

It computes each answer with the library on the unconjugated specs, then
cross-checks it against a fact that does not come from the branching
matrix, and refuses to write the file if any check fails:

- |G| against the order formulas (n!, (q^2-1)(q^2-q), q(q^2-1));
- k(G) = c(1) against p(n) for S_n, q^2-1 for GL2(q), q+4 (odd q) or
  q+1 (even q) for SL2(q), and literature values for the rest;
- c(2) against the sum over class representatives x of k(C(x)), computed
  here by plain orbit enumeration; commuting pairs against |G|*k(G);
- c(d), d <= 3, against the Burnside oracle when |G| <= 500, and every c(d)
  of S5xS4 against c_S5(d)*c_S4(d);
- beta against 4 for GL2(q), SL2(q) with q >= 3 and the product rule for
  S5xS4 (the symmetric groups' beta is checked only across seeds);
- max_abelian against literature values;
- symbolic degrees against an integer max-plus walk written here;
- large-d counts against the repeated-squaring BranchingMatrix.power path;
- CLI outputs against the reference values they print.
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

from commprob import branching, counting, groupspec, symbolic  # noqa: E402
import workloads  # noqa: E402

PARTITIONS = {3: 3, 4: 5, 5: 7, 6: 11, 7: 15}
GL2 = {"gl2_f2": 2, "gl2_f3": 3, "gl2_f4": 4, "gl2_f5": 5, "gl2_f7": 7}
SL2 = {"sl2_f7": 7, "sl2_f8": 8, "sl2_f13": 13}
SYMMETRIC = {"s3": 3, "s4": 4, "s5": 5, "s6": 6, "s7": 7}
KNOWN = {  # name: (order, k(G), max abelian order)
    "d4": (8, 5, 4),
    "q8": (8, 5, 4),
    "gl3_f2": (168, 6, 7),
    "s5xs4": (120 * 24, 7 * 5, 6 * 4),
}
SYMMETRIC_MAX_ABELIAN = {3: 3, 4: 4, 5: 6, 6: 9, 7: 12}


def known_facts(name: str) -> tuple[int, int, int]:
    if name in SYMMETRIC:
        n = SYMMETRIC[name]
        return math.factorial(n), PARTITIONS[n], SYMMETRIC_MAX_ABELIAN[n]
    if name in GL2:
        q = GL2[name]
        return (q * q - 1) * (q * q - q), q * q - 1, q * q - 1
    if name in SL2:
        q = SL2[name]
        if q % 2:
            return q * (q * q - 1), q + 4, 2 * q
        return q * (q * q - 1), q + 1, q + 1
    return KNOWN[name]


def class_count_by_orbits(group, members) -> int:
    """Number of conjugacy classes of the subgroup on `members`."""
    mul, inv = group.mul, group.inv
    seen, classes = set(), 0
    for x in members:
        if x in seen:
            continue
        classes += 1
        seen.update(mul(mul(g, x), inv(g)) for g in members)
    return classes


def pair_class_count(group) -> int:
    """c(2) as the sum over class representatives x of k(C(x))."""
    mul, inv = group.mul, group.inv
    everything = range(group.order)
    seen, total = set(), 0
    for x in everything:
        if x in seen:
            continue
        seen.update(mul(mul(g, x), inv(g)) for g in everything)
        cent = [g for g in everything if mul(g, x) == mul(x, g)]
        total += class_count_by_orbits(group, cent)
    return total


def check(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"reference check failed: {what}")


def group_reference() -> dict:
    out = {}
    for name in workloads.TABLE_GROUPS + workloads.CARRIER_GROUPS:
        answer = workloads.finite_pipeline(workloads.spec_text(name))
        order, k, alpha = known_facts(name)
        c = [int(x) for x in answer["c"]]
        check(answer["order"] == order, f"{name} order")
        check(answer["structure_ok"], f"{name} structure")
        check(c[1] == k, f"{name} k(G)")
        check(int(answer["commuting_pairs"]) == order * k, f"{name} commuting pairs")
        check(answer["max_abelian"] == alpha, f"{name} max abelian")
        group = groupspec.build_group(groupspec.parse_group_spec(workloads.spec_text(name)))
        check(c[2] == pair_class_count(group), f"{name} c(2)")
        if answer["oracle"] is not None:
            check(answer["oracle"] == c[1 : workloads.FINITE_ORACLE_DMAX + 1], f"{name} oracle")
        if name in SL2 or (name in GL2 and GL2[name] >= 3):
            check(answer["beta"] == 4, f"{name} beta")
        out[name] = answer
        print(f"{name}: order {order}, beta {answer['beta']}, k {k}", file=sys.stderr)
    s5, s4, prod = out["s5"], out["s4"], out["s5xs4"]
    check(prod["beta"] == s5["beta"] * s4["beta"], "S5xS4 beta product rule")
    check(
        all(int(p) == int(a) * int(b) for p, a, b in zip(prod["c"], s5["c"], s4["c"])),
        "S5xS4 c(d) product rule",
    )
    return out


def maxplus_degrees(grid, dmax: int) -> list[int]:
    """deg(1 . B^d . e1) for d = 1..dmax by integer max-plus steps."""
    m = len(grid)
    v = [0] + [None] * (m - 1)
    out = []
    for _ in range(dmax):
        v = [
            max((grid[i][k] + v[k] for k in range(m) if grid[i][k] >= 0 and v[k] is not None), default=None)
            for i in range(m)
        ]
        out.append(max(x for x in v if x is not None))
    return out


def fixture_reference() -> tuple[dict, dict]:
    out, all_degrees = {}, {}
    ds = list(range(2, 25)) + list(workloads.TROPICAL_D)
    for fx in workloads.FIXTURES:
        matrix = symbolic.fixture(fx)
        grid = matrix.exponent_grid()
        degrees = maxplus_degrees(grid, max(workloads.TROPICAL_D))
        all_degrees[fx] = degrees
        report = symbolic.verify_symbolic_structure(matrix)
        check(report.ok, f"{fx} structure")
        entry = {
            "alpha": max(max(row) for row in grid),
            "beta": matrix.size,
            "group_dim": matrix.group_dim,
            "verify": {"ok": report.ok, "summary": report.summary()},
            "degrees": {},
        }
        for d in ds:
            window = symbolic.degree_window(matrix, d)
            check(window.degree == degrees[d - 1], f"{fx} degree at d={d}")
            entry["degrees"][str(d)] = window.degree
        out[fx] = entry
    return out, all_degrees


def warm_reference(groups: dict) -> dict:
    out = {}
    for name in workloads.WARM_GROUPS:
        group = groupspec.build_group(groupspec.parse_group_spec(workloads.spec_text(name)))
        matrix, _ = branching.branching_matrix(group)
        order = group.order
        entry = {"class_count": {}, "commuting_count": {}, "cp": {}}
        for d in (*workloads.BIG_D, workloads.TOP_D):
            c_d = counting.class_count(group, d)
            c_prev = counting.class_count(group, d - 1)
            check(c_d == sum(row[0] for row in matrix.power(d)), f"{name} c({d}) power path")
            check(c_prev == sum(row[0] for row in matrix.power(d - 1)), f"{name} c({d - 1}) power path")
            pairs = counting.commuting_count(group, d)
            check(pairs == order * c_prev, f"{name} commuting_count({d})")
            prob = counting.cp(group, d)
            check(prob == Fraction(pairs, order**d), f"{name} cp({d})")
            entry["class_count"][str(d)] = workloads.digest(str(c_d))
            entry["commuting_count"][str(d)] = workloads.digest(str(pairs))
            entry["cp"][str(d)] = workloads.digest(str(prob))
        report = counting.asymptotic_ratio(group, workloads.RATIO_DMAX)
        a = groups[name]["max_abelian"]
        top = sum(row[0] for row in matrix.power(workloads.RATIO_DMAX))
        check(report.estimate == Fraction(top, a**workloads.RATIO_DMAX), f"{name} ratio estimate")
        entry["ratio"] = workloads.digest([str(report.estimate), str(report.last_delta)])
        out[name] = entry
    return out


def cli_reference(groups: dict, degrees: dict) -> dict:
    out = {}
    for argv in workloads.CLI_COMMANDS:
        code, text = workloads.capture_cli(argv)
        check(code == 0, f"cli {argv} exit code")
        rows = [line.split(",") for line in text.splitlines()]
        if argv[0] == "cpd":
            c = groups[argv[1]]["c"]
            body = rows[1:]
            check(len(body) == int(argv[3]), "cpd row count")
            check(all(r[1] == c[int(r[0])] and r[4] == c[int(r[0])] and r[5] == "MATCH" for r in body), "cpd rows")
        elif argv[0] == "ratio":
            c = groups[argv[1]]["c"]
            body = [r for r in rows[1:] if r[0].isdigit() and int(r[0]) <= workloads.SEQUENCE_DMAX]
            check(len(body) == workloads.SEQUENCE_DMAX and all(r[1] == c[int(r[0])] for r in body), "ratio rows")
            check(["max_abelian", str(groups[argv[1]]["max_abelian"])] in rows, "ratio max_abelian")
        else:
            fx = argv[2]
            body = rows[rows.index(["d", "degree", "cp_lower", "cp_upper", "window_lower", "window_upper"]) + 1 :]
            check(len(body) == int(argv[4]), "symbolic row count")
            check(all(int(r[1]) == degrees[fx][int(r[0]) - 1] for r in body), "symbolic degrees")
        out[" ".join(argv)] = workloads.cli_answer(code, text)
    return out


def main() -> int:
    groups = group_reference()
    fixtures, degrees = fixture_reference()
    reference = {
        "python": sys.version.split()[0],
        "groups": groups,
        "fixtures": fixtures,
        "warm": warm_reference(groups),
        "cli": cli_reference(groups, degrees),
    }
    path = BENCH_DIR / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
