"""Command-line front end.

Subcommands: classes, branching, cpd, ratio, symbolic, family.  Data goes
to stdout (or --output) as CSV or JSON with LF line endings; timing goes to
stderr so that repeated runs with identical inputs emit byte-identical
data.  Exit codes: 0 all requested checks passed, 1 a check failed,
2 usage or spec errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction

from .branching import branching_matrix, verify_structure
from .counting import (
    FamilySpec,
    _refuse_unprintable,
    asymptotic_ratio,
    class_count_sequence,
    family_asymptote,
    family_base_power,
    oracle_class_counts,
)
from .conjugacy import conjugacy_classes, z_classes
from .errors import ToolkitError
from .fields import MAX_TRIAL_DIVISION
from .groupspec import CORPUS_NAMES, build_group, corpus_spec, load_group_spec
from .symbolic import degree_windows, fixture, fixture_names, verify_symbolic_structure


def _resolve_group(argument: str):
    if os.path.exists(argument):
        spec = load_group_spec(argument)
    else:
        try:
            spec = corpus_spec(argument)
        except KeyError:
            raise ToolkitError(
                f"{argument!r} is neither a file nor a bundled spec {CORPUS_NAMES}"
            )
    return build_group(spec)


def _emit(lines: list[str], output: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if output:
        try:
            with open(output, "w", encoding="utf-8", newline="\n") as handle:
                handle.write(text)
        except OSError as exc:
            raise ToolkitError(f"cannot write {output}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


def cmd_classes(args) -> int:
    group = _resolve_group(args.group)
    partition = conjugacy_classes(group)
    zcs = z_classes(group)
    zclass_of = {}
    for zid, zc in enumerate(zcs):
        for cid in zc.class_ids:
            zclass_of[cid] = zid
    lines = ["class,representative,size,centralizer_order,zclass"]
    for cid, cls in enumerate(partition.classes):
        lines.append(
            f"{cid},{cls.representative},{cls.size},{group.order // cls.size},{zclass_of[cid]}"
        )
    lines.append("")
    lines.append("zclass,classes,centralizer_order,abelian")
    for zid, zc in enumerate(zcs):
        lines.append(
            f"{zid},{len(zc.class_ids)},{zc.centralizer.order},{int(zc.centralizer.is_abelian)}"
        )
    _emit(lines, args.output)
    return 0


def branching_payload(group) -> dict:
    matrix, registry = branching_matrix(group)
    return {
        "group": group.name,
        "order": group.order,
        "size": matrix.size,
        "labels": list(range(matrix.size)),
        "matrix": [list(row) for row in matrix.entries],
        "types": [
            {
                "id": tid,
                "depth": entry.depth,
                "centralizer_order": entry.centralizer.order,
                "abelian": entry.centralizer.is_abelian,
                "representative": list(entry.representative),
            }
            for tid, entry in enumerate(registry.types)
        ],
    }


def cmd_branching(args) -> int:
    group = _resolve_group(args.group)
    report = verify_structure(*branching_matrix(group))
    payload = branching_payload(group)
    if args.format == "json":
        _emit([json.dumps(payload, indent=2)], args.output)
    else:
        lines = ["matrix," + ",".join(f"t{i}" for i in payload["labels"])]
        lines += [f"t{i}," + ",".join(map(str, row)) for i, row in enumerate(payload["matrix"])]
        lines.append("")
        lines.append("type,depth,centralizer_order,abelian,representative")
        for t in payload["types"]:
            rep = " ".join(map(str, t["representative"]))
            lines.append(
                f"t{t['id']},{t['depth']},{t['centralizer_order']},{int(t['abelian'])},{rep}"
            )
        _emit(lines, args.output)
    if not report.ok:
        print(f"structure checks failed: {report.summary()}", file=sys.stderr)
        return 1
    return 0


def _refuse_unprintable_counts(group, d: int) -> None:
    """Refuse, before any count is computed, a table up to d whose integers
    could not be printed: every count, numerator and denominator in `cpd`
    and `ratio` is at most |G|**d.  Every count of a 1-element group is 1,
    so its table is held to the rows of a 2-element group instead."""
    order = group.order
    if order > 1:
        what = f"|G|**{d} = {order}**{d}"
    else:
        what = f"d={d} for the 1-element group, held to the rows of a 2-element group: 2**{d}"
    _refuse_unprintable(max(order, 2), d, what)


def cmd_cpd(args) -> int:
    group = _resolve_group(args.group)
    _refuse_unprintable_counts(group, args.d)
    header = "d,class_count,commuting_count,cp"
    if args.oracle:
        # first, so that a group above the oracle cap is refused before
        # the branching matrix is built
        oracle_counts = oracle_class_counts(group, args.d)
        header += ",oracle,verdict"
    counts = class_count_sequence(group, args.d)
    lines = [header]
    all_match = True
    for d in range(1, args.d + 1):
        tuple_count = group.order * counts[d - 1]
        row = [
            str(d),
            str(counts[d]),
            str(tuple_count),
            str(Fraction(tuple_count, group.order**d)),
        ]
        if args.oracle:
            oracle = oracle_counts[d - 1]
            match = oracle == counts[d]
            all_match = all_match and match
            row += [str(oracle), "MATCH" if match else "MISMATCH"]
        lines.append(",".join(row))
    _emit(lines, args.output)
    if args.oracle and not all_match:
        print("oracle disagreement detected", file=sys.stderr)
        return 1
    return 0


def cmd_ratio(args) -> int:
    group = _resolve_group(args.group)
    _refuse_unprintable_counts(group, args.dmax)
    report = asymptotic_ratio(group, args.dmax)
    lines = ["d,class_count,ratio,delta"]
    prev = None
    for d, ratio in enumerate(report.ratios, start=1):
        delta = "" if prev is None else str(abs(ratio - prev))
        lines.append(f"{d},{report.counts[d]},{ratio},{delta}")
        prev = ratio
    lines.append("")
    lines.append(f"max_abelian,{report.max_abelian_order}")
    lines.append(f"estimate,{report.estimate}")
    lines.append(f"last_delta,{report.last_delta}")
    _emit(lines, args.output)
    return 0


def cmd_symbolic(args) -> int:
    # a degree table has no huge integer, but it gets the row limit of a
    # 2-element group like every other table, so that no --d is unbounded
    _refuse_unprintable(
        2, args.d, f"--d {args.d}, held to the rows of a 2-element group: 2**{args.d}"
    )
    matrix = fixture(args.fixture)
    report = verify_symbolic_structure(matrix)
    lines = [
        f"fixture,{matrix.name}",
        f"beta,{matrix.size}",
        f"group_dim,{matrix.group_dim}",
        f"rank,{matrix.rank}",
        f"alpha,{matrix.alpha}",
        f"structure,{'pass' if report.ok else 'fail'}",
        "",
        "d,degree,cp_lower,cp_upper,window_lower,window_upper",
    ]
    for d, w in enumerate(degree_windows(matrix, args.d), start=1):
        lines.append(f"{d},{w.degree},{w.cp_lower},{w.cp_upper},{w.window_low},{w.window_high}")
    _emit(lines, args.output)
    if not report.ok:
        print("symbolic checks failed", file=sys.stderr)
        return 1
    return 0


def cmd_family(args) -> int:
    spec = FamilySpec(args.family, args.size, args.q)
    result = family_asymptote(spec)
    header = "family,size,q,order,max_abelian,base"
    row = (
        f"{spec.family},{spec.size},{spec.q},{result.order},"
        f"{result.max_abelian_order},{result.base}"
    )
    if args.d is not None:
        header += ",d,base_power"
        row += f",{args.d},{family_base_power(result.base, args.d - 1)}"
    _emit([header, row], args.output)
    return 0


def _int_at_least(low: int, high: int | None = None):
    """An argparse type: an integer >= low (and <= high when given), else a
    usage error (exit 2)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be <= {high}, got {value}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="commprob",
        description="Exact commuting-probability toolkit for finite and reductive groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_group_arg(p):
        p.add_argument("group", help=f"spec file path or bundled name {CORPUS_NAMES}")
        p.add_argument("--output", help="write data here instead of stdout")

    p = sub.add_parser("classes", help="conjugacy classes and z-classes")
    add_group_arg(p)
    p.set_defaults(func=cmd_classes)

    p = sub.add_parser("branching", help="branching matrix with type legend")
    add_group_arg(p)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_branching)

    p = sub.add_parser("cpd", help="commuting-tuple counts and probabilities")
    add_group_arg(p)
    p.add_argument("--d", type=_int_at_least(1), required=True, help="largest tuple length")
    p.add_argument("--oracle", action="store_true", help="cross-check by orbit counting")
    p.set_defaults(func=cmd_cpd)

    p = sub.add_parser("ratio", help="c(d)/a^d convergence table")
    add_group_arg(p)
    p.add_argument("--dmax", type=_int_at_least(3), required=True)
    p.set_defaults(func=cmd_ratio)

    p = sub.add_parser("symbolic", help="degree bounds for a bundled symbolic matrix")
    p.add_argument("--fixture", choices=fixture_names(), required=True)
    p.add_argument("--d", type=_int_at_least(1), required=True)
    p.add_argument("--output", help="write data here instead of stdout")
    p.set_defaults(func=cmd_symbolic)

    p = sub.add_parser("family", help="classical-family order, abelian bound and base")
    p.add_argument("--family", choices=("GL", "U", "Sp", "O"), required=True)
    p.add_argument("--size", type=int, required=True, help="n for GL/U, l for Sp/O")
    p.add_argument("--q", type=_int_at_least(2, MAX_TRIAL_DIVISION), required=True)
    p.add_argument("--d", type=_int_at_least(1), default=None)
    p.add_argument("--output", help="write data here instead of stdout")
    p.set_defaults(func=cmd_family)
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.monotonic()
    try:
        code = args.func(args)
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"elapsed_s={time.monotonic() - start:.3f}", file=sys.stderr)
    return code


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
