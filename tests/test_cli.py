import hashlib
import json
import os
import subprocess
import sys
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

import commprob

from commprob import cli
from commprob.branching import BranchingMatrix, branching_matrix
from commprob.cli import run
from commprob.groupspec import MAX_SPEC_BYTES
from commprob.symbolic import fixture


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cpd_with_oracle(capsys):
    code, out, err = invoke(capsys, "cpd", "s3", "--d", "3", "--oracle")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "d,class_count,commuting_count,cp,oracle,verdict"
    assert lines[1] == "1,3,6,1,3,MATCH"
    assert lines[2] == "2,8,18,1/2,8,MATCH"
    assert all(line.endswith("MATCH") for line in lines[1:])
    assert "elapsed_s=" in err  # timing goes to stderr only


def test_cpd_without_oracle(capsys):
    code, out, _ = invoke(capsys, "cpd", "q8", "--d", "2")
    assert code == 0
    assert out.strip().splitlines()[2] == "2,22,40,5/8"


def test_branching_json_round_trip(capsys, corpus):
    code, out, _ = invoke(capsys, "branching", "q8", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    matrix, registry = branching_matrix(corpus["q8"])
    assert tuple(tuple(row) for row in payload["matrix"]) == matrix.entries
    assert payload["size"] == matrix.size
    assert payload["labels"] == list(range(matrix.size))
    assert [t["centralizer_order"] for t in payload["types"]] == [
        e.centralizer.order for e in registry.types
    ]


def test_branching_csv_matches_matrix(capsys, corpus):
    code, out, _ = invoke(capsys, "branching", "s3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "matrix,t0,t1,t2"
    matrix, _ = branching_matrix(corpus["s3"])
    for row, line in zip(matrix.entries, lines[1:4]):
        assert line.split(",")[1:] == [str(x) for x in row]
    legend_at = lines.index("type,depth,centralizer_order,abelian,representative")
    assert legend_at > 0 and len(lines) - legend_at - 1 == matrix.size


def test_symbolic_gl2(capsys):
    code, out, _ = invoke(capsys, "symbolic", "--fixture", "gl2", "--d", "10")
    assert code == 0
    lines = out.strip().splitlines()
    assert "alpha,2" in lines
    assert "structure,pass" in lines
    assert lines[-1] == "10,20,1/2,3/5,7/20,3/5"


def test_family_sp2_q5(capsys):
    code, out, _ = invoke(capsys, "family", "--family", "Sp", "--size", "1", "--q", "5")
    assert code == 0
    assert out.strip().splitlines()[1] == "Sp,1,5,120,10,1/12"


def test_family_with_power(capsys):
    code, out, _ = invoke(
        capsys, "family", "--family", "Sp", "--size", "1", "--q", "5", "--d", "4"
    )
    assert code == 0
    assert out.strip().splitlines()[1].endswith(",4,1/1728")


def test_family_invalid_exits_2(capsys):
    code, _, err = invoke(capsys, "family", "--family", "Sp", "--size", "1", "--q", "4")
    assert code == 2
    assert "odd q" in err


def test_unknown_group_exits_2(capsys):
    code, _, err = invoke(capsys, "cpd", "no_such_group", "--d", "2")
    assert code == 2
    assert "bundled" in err


def test_ratio_output(capsys):
    code, out, _ = invoke(capsys, "ratio", "q8", "--dmax", "6")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "d,class_count,ratio,delta"
    assert lines[1] == "1,5,5/4,"
    assert "max_abelian,4" in lines
    assert any(line.startswith("estimate,") for line in lines)
    assert any(line.startswith("last_delta,") for line in lines)


def test_classes_output(capsys):
    code, out, _ = invoke(capsys, "classes", "s3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "class,representative,size,centralizer_order,zclass"
    sizes = sorted(int(line.split(",")[2]) for line in lines[1:4])
    assert sizes == [1, 2, 3]
    assert "zclass,classes,centralizer_order,abelian" in lines


def test_spec_file_path_accepted(tmp_path, capsys):
    doc = {
        "name": "C4",
        "kind": "permutation",
        "degree": 4,
        "generators": [[1, 2, 3, 0]],
    }
    path = tmp_path / "c4.json"
    path.write_text(json.dumps(doc))
    code, out, _ = invoke(capsys, "cpd", str(path), "--d", "2")
    assert code == 0
    assert out.strip().splitlines()[1] == "1,4,4,1"


def test_output_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "out.csv"
    code, out, _ = invoke(capsys, "cpd", "s3", "--d", "2", "--output", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("d,class_count")


def test_determinism_byte_identical(capsys):
    runs = []
    for _ in range(2):
        _, out, _ = invoke(capsys, "branching", "gl2_f3", "--format", "json")
        runs.append(out.encode())
    assert runs[0] == runs[1]
    runs = []
    for _ in range(2):
        _, out, _ = invoke(capsys, "cpd", "s4", "--d", "3", "--oracle")
        runs.append(out.encode())
    assert runs[0] == runs[1]


def test_invalid_spec_file_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{broken")
    code, _, err = invoke(capsys, "classes", str(path))
    assert code == 2
    assert "error" in err


def test_singular_generator_spec_exits_2(tmp_path, capsys):
    path = tmp_path / "singular.json"
    path.write_text(
        json.dumps(
            {
                "name": "singular",
                "kind": "matrix",
                "field": {"p": 3},
                "degree": 2,
                "generators": [[[1, 1], [0, 1]], [[1, 2], [2, 1]]],  # det = 0 mod 3
            }
        )
    )
    code, out, err = invoke(capsys, "classes", str(path))
    assert code == 2 and out == ""
    assert "generators[1]" in err and "singular" in err


@pytest.mark.parametrize(
    "document, message",
    [("[" * 100_000, "not valid JSON"), (" " * MAX_SPEC_BYTES + "{}", "larger than")],
    ids=["deep_nesting", "over_budget"],
)
def test_spec_file_refusals_exit_2_without_a_traceback(tmp_path, capsys, document, message):
    path = tmp_path / "spec.json"
    path.write_text(document)
    code, out, err = invoke(capsys, "cpd", str(path), "--d", "2")
    assert code == 2 and out == ""
    assert "Traceback" not in err and message in err


def test_cpd_oracle_refuses_an_over_cap_group_before_counting(tmp_path, capsys, monkeypatch):
    # S6 has 720 elements, above the oracle's default cap of 500
    path = tmp_path / "s6.json"
    path.write_text(
        json.dumps(
            {
                "name": "S6",
                "kind": "permutation",
                "degree": 6,
                "generators": [[1, 0, 2, 3, 4, 5], [1, 2, 3, 4, 5, 0]],
            }
        )
    )

    def refuse(*args, **kwargs):
        raise AssertionError("class counts computed before the oracle's cap check")

    monkeypatch.setattr(cli, "class_count_sequence", refuse)
    code, out, err = invoke(capsys, "cpd", str(path), "--d", "3", "--oracle")
    assert code == 2 and out == ""
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and "oracle cap 500" in errors[0]


def child_env(**extra):
    """Environment for a child process that imports the same commprob as
    this process, installed or not."""
    src = str(Path(commprob.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **extra)


def test_determinism_across_processes_and_hash_seeds():
    # hash randomisation must not leak into any emitted ordering
    outputs = []
    for seed in ("1", "4242"):
        env = child_env(PYTHONHASHSEED=seed)
        result = subprocess.run(
            [sys.executable, "-m", "commprob.cli", "branching", "s4", "--format", "json"],
            capture_output=True,
            env=env,
            check=True,
        )
        outputs.append(result.stdout)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "argv,digest",
    [
        (
            ("symbolic", "--fixture", "gl2", "--d", "300"),
            "87039eaf44c9f46a476c0518d57ab49328943b3330b5dfbbce66a7276a646451",
        ),
        (
            ("symbolic", "--fixture", "gl3", "--d", "300"),
            "d3a094ab3baf41115497c6010710eb391eda192bfb2bf912f8697039d546a25d",
        ),
        (
            ("symbolic", "--fixture", "gl4", "--d", "300"),
            "77da4f72ea764518b7be0fa7078e5e2f6027a5fd8a611b10ccb16a415433715f",
        ),
        (
            ("ratio", "q8", "--dmax", "20"),
            "65eb5dcb8f0b20dd7c8dbfc015177e15d470157ac4292327bc732bf42b4630fb",
        ),
        (
            ("cpd", "gl3_f2", "--d", "8", "--oracle"),
            "4e6cdbb69daecb6f7c5d3562d8e6794ce52393b1e9827ad11b304b01b8c542e6",
        ),
        (
            ("classes", "gl3_f2"),
            "0415ca27ef93ab8fbaab55968bf014b5fba6e9a6413fbf24cde8202ce4ee4644",
        ),
        (
            ("classes", "s4"),
            "2cc5926ff68cd29b2ef2027456c12efb16a1ffa2e7ca5e16ca998196f798ff4b",
        ),
        (
            ("branching", "gl3_f2"),
            "316052490a70a756af0971e24e90570f7c14c3c26f2505d43739759d2e505fc9",
        ),
        (
            ("branching", "gl3_f2", "--format", "json"),
            "f22c0d5a3251e478cbefdbfc628bebf24e4710b4704cfd196ca96df5759d4b28",
        ),
        (
            ("cpd", "gl2_f3", "--d", "30"),
            "18645b1f201b4db96836addfebb52f3110772f28c846c32f50274bb2ba9e07ed",
        ),
        (
            ("ratio", "gl3_f2", "--dmax", "200"),
            "69e0137f70174e8b2207930c8312fbff53c6378ae471b2c804414cc83dffbedc",
        ),
    ],
)
def test_stdout_golden_digest(capsys, argv, digest):
    # stdout digests pinned before `symbolic` and `ratio` moved onto library
    # results, before `cpd --oracle` took every row from one oracle pass, and
    # before `classes` and `branching` dropped their re-derived centralizers
    # and matrix labels, and before the integer and polynomial matrix
    # arithmetic moved onto one exact kernel; the bytes must not change
    code, out, _ = invoke(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv,flag",
    [
        (("ratio", "q8", "--dmax", "2"), "--dmax: must be >= 3, got 2"),
        (("cpd", "q8", "--d", "-1"), "--d: must be >= 1, got -1"),
        (("cpd", "q8", "--d", "0"), "--d: must be >= 1, got 0"),
        (("symbolic", "--fixture", "gl2", "--d", "0"), "--d: must be >= 1, got 0"),
        (("family", "--family", "GL", "--size", "2", "--q", "3", "--d", "0"), "--d: must be >= 1"),
        (("cpd", "q8", "--d", "two"), "--d: invalid int value: 'two'"),
    ],
)
def test_out_of_range_arguments_exit_2_with_one_error_line(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        run(list(argv))
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(errors) == 1 and flag in errors[0]
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "case", ["directory_as_spec", "undecodable_spec", "output_in_missing_directory"]
)
def test_unreadable_input_and_unwritable_output_exit_2(tmp_path, capsys, case):
    undecodable = tmp_path / "utf16.json"
    undecodable.write_bytes(b"\xff\xfe{\x00}\x00")
    argv, message = {
        "directory_as_spec": (("cpd", str(tmp_path), "--d", "1"), "cannot read"),
        "undecodable_spec": (("cpd", str(undecodable), "--d", "1"), "cannot read"),
        "output_in_missing_directory": (
            ("cpd", "s3", "--d", "2", "--output", str(tmp_path / "missing" / "out.csv")),
            "cannot write",
        ),
    }[case]
    code, out, err = invoke(capsys, *argv)
    assert code == 2 and out == ""
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and message in errors[0]
    assert "Traceback" not in err


def test_smallest_accepted_arguments(capsys):
    code, out, _ = invoke(capsys, "ratio", "q8", "--dmax", "3")
    assert code == 0 and out.startswith("d,class_count,ratio,delta\n1,5,5/4,\n")
    code, out, _ = invoke(capsys, "cpd", "q8", "--d", "1")
    assert code == 0 and out.strip().splitlines()[1] == "1,5,8,1"
    code, out, _ = invoke(capsys, "symbolic", "--fixture", "gl2", "--d", "1")
    assert code == 0 and out.strip().splitlines()[-1].startswith("1,")


def test_boolean_spec_degree_exits_2(tmp_path, capsys):
    doc = {"name": "S3", "kind": "permutation", "degree": True, "generators": [[0]]}
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(doc))
    code, out, err = invoke(capsys, "classes", str(path))
    assert code == 2 and out == ""
    assert "degree" in err


@pytest.mark.parametrize(
    "argv,message",
    [
        (("--size", "2", "--q", "1000000000000000000000000000057"), "--q: must be <= 1099511627776"),
        (("--size", "120", "--q", "2"), "the order of GL_120(2) could have 4336 digits"),
        (("--size", "2", "--q", "7", "--d", "3000"), "base**2999 could have"),
        (("--size", "1000000", "--q", "2"), "the order of GL_1000000(2) could have"),
    ],
)
def test_family_boundary_exits_2_quickly(capsys, monkeypatch, argv, message):
    from commprob import counting

    if argv[1] == "1000000":
        # refused from the bit-length estimate, before any power of q is formed
        def no_order(*args):
            raise AssertionError("family_order was called")

        monkeypatch.setattr(counting, "family_order", no_order)
    start = time.monotonic()
    try:
        code = run(["family", "--family", "GL", *argv])
    except SystemExit as exc:
        code = exc.code
    elapsed = time.monotonic() - start
    captured = capsys.readouterr()
    assert code == 2 and elapsed < 1
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(errors) == 1 and message in errors[0]
    assert "Traceback" not in captured.err


def test_family_largest_printable_arguments(capsys):
    from commprob.counting import family_order

    code, out, _ = invoke(capsys, "family", "--family", "GL", "--size", "119", "--q", "2")
    assert code == 0 and out.splitlines()[1].split(",")[3] == str(family_order("GL", 119, 2))
    code, out, _ = invoke(capsys, "family", "--family", "GL", "--size", "2", "--q", "7", "--d", "2000")
    assert code == 0 and out.splitlines()[1].endswith(",2000,1/" + str(42**1999))
    code, out, _ = invoke(capsys, "family", "--family", "GL", "--size", "2", "--q", str(2**40))
    assert code == 0


def test_python_dash_m_commprob_runs_the_cli():
    result = subprocess.run(
        [sys.executable, "-m", "commprob", "ratio", "q8", "--dmax", "20"],
        capture_output=True,
        env=child_env(),
    )
    assert result.returncode == 0
    assert (
        hashlib.sha256(result.stdout).hexdigest()
        == "65eb5dcb8f0b20dd7c8dbfc015177e15d470157ac4292327bc732bf42b4630fb"
    )


@pytest.mark.parametrize(
    "argv,message",
    [
        (("cpd", "s3", "--d", "6000"), "|G|**6000 = 6**6000 could have 4670 digits"),
        (("ratio", "s3", "--dmax", "9500"), "|G|**9500 = 6**9500 could have 7393 digits"),
        (("cpd", "s3", "--d", "100000000"), "6**100000000 could have"),
        (("ratio", "s3", "--dmax", "100000000"), "6**100000000 could have"),
    ],
)
def test_cpd_and_ratio_refuse_unprintable_tables_quickly(capsys, monkeypatch, argv, message):
    from commprob import cli

    # refused from logarithms, before any count is computed
    def no_counts(*args):
        raise AssertionError("a count was computed")

    monkeypatch.setattr(cli, "class_count_sequence", no_counts)
    monkeypatch.setattr(cli, "asymptotic_ratio", no_counts)
    start = time.monotonic()
    code, out, err = invoke(capsys, *argv)
    assert code == 2 and time.monotonic() - start < 1
    assert out == ""
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and message in errors[0]
    assert "Traceback" not in err


TRIVIAL_SPEC = '{"name": "T", "kind": "permutation", "degree": 1, "generators": [[0]]}'


@pytest.mark.parametrize("command,flag", [("cpd", "--d"), ("ratio", "--dmax")])
def test_trivial_group_tables_keep_the_row_limit_of_order_two(tmp_path, capsys, command, flag):
    # every count of the 1-element group is 1, so |G|**d alone would never
    # refuse; its tables are held to the 14283 rows of a 2-element group
    path = tmp_path / "trivial.json"
    path.write_text(TRIVIAL_SPEC)
    for d in ("14284", "1000000"):
        start = time.monotonic()
        code, out, err = invoke(capsys, command, str(path), flag, d)
        assert code == 2 and out == "" and time.monotonic() - start < 1
        assert f"d={d} for the 1-element group" in err and "Traceback" not in err
    code, out, _ = invoke(capsys, command, str(path), flag, "3")
    assert code == 0
    if command == "cpd":
        assert out == "d,class_count,commuting_count,cp\n1,1,1,1\n2,1,1,1\n3,1,1,1\n"
    else:
        assert out.splitlines()[:4] == ["d,class_count,ratio,delta", "1,1,1,", "2,1,1,0", "3,1,1,0"]
    code, out, _ = invoke(capsys, command, str(path), flag, "14283")
    assert code == 0 and out.count("\n") > 14283


def test_symbolic_table_keeps_the_row_limit_of_order_two(capsys, monkeypatch):
    # a degree table prints no huge integer, so its rows are held to those
    # of a 2-element group; a refused --d reaches no degree
    def no_windows(*args):
        raise AssertionError("a degree was computed")

    with monkeypatch.context() as patched:
        patched.setattr(cli, "degree_windows", no_windows)
        for d in ("14284", str(10**12)):
            start = time.monotonic()
            code, out, err = invoke(capsys, "symbolic", "--fixture", "gl2", "--d", d)
            assert code == 2 and out == "" and time.monotonic() - start < 1
            errors = [line for line in err.splitlines() if "error:" in line]
            assert len(errors) == 1 and f"2**{d} could have" in errors[0]
            assert "Traceback" not in err
    code, out, _ = invoke(capsys, "symbolic", "--fixture", "gl2", "--d", "14283")
    lines = out.splitlines()
    assert code == 0 and lines[-1] == "14283,28566,1/2,14285/28566,2380/4761,14285/28566"
    rows = lines[lines.index("d,degree,cp_lower,cp_upper,window_lower,window_upper") + 1 :]
    assert [int(row.split(",")[0]) for row in rows] == list(range(1, 14284))


def test_cpd_largest_printed_integer_within_the_digit_limit(tmp_path, capsys):
    # 6**5000 has 3891 digits, under the 4300-digit default; cp_d of S3 is
    # c(d-1)/6**(d-1) with c(d) = (3**d + 2**(d+1) - 1)/2
    target = tmp_path / "cpd.csv"
    code, _, _ = invoke(capsys, "cpd", "s3", "--d", "5000", "--output", str(target))
    assert code == 0
    last = target.read_text().splitlines()[-1].split(",")
    assert last[0] == "5000"
    assert last[3] == str(Fraction(3**4999 + 2**5000 - 1, 2 * 6**4999))


# --- exit code 1: a check failed -------------------------------------------


def test_branching_with_a_failing_structure_report_exits_1(capsys, monkeypatch):
    # the data is still printed; the failed checks go to stderr
    def tampered(group):
        matrix, registry = branching_matrix(group)
        bad = [list(row) for row in matrix.entries]
        bad[0][0] += 1  # the corner is |Z(S3)| = 1
        return BranchingMatrix(bad), registry

    monkeypatch.setattr(cli, "branching_matrix", tampered)
    code, out, err = invoke(capsys, "branching", "s3")
    assert code == 1
    assert out.splitlines()[:2] == ["matrix,t0,t1,t2", "t0,2,0,0"]
    (line,) = [line for line in err.splitlines() if "failed" in line]
    assert line.startswith("structure checks failed: diagonal_is_center_order=FAIL(")
    assert "diagonal at type 0: 2 != 1" in line


def test_cpd_with_a_disagreeing_oracle_exits_1(capsys, monkeypatch):
    oracle = cli.oracle_class_counts

    def off_by_one_at_d2(group, dmax):
        counts = oracle(group, dmax)
        return [counts[0], counts[1] + 1, *counts[2:]]

    monkeypatch.setattr(cli, "oracle_class_counts", off_by_one_at_d2)
    code, out, err = invoke(capsys, "cpd", "s3", "--d", "3", "--oracle")
    assert code == 1
    assert out.strip().splitlines()[1:] == [
        "1,3,6,1,3,MATCH",
        "2,8,18,1/2,9,MISMATCH",
        "3,21,48,2/9,21,MATCH",
    ]
    assert "oracle disagreement detected" in err.splitlines()


def test_symbolic_with_a_failing_structure_check_exits_1(capsys, monkeypatch):
    # gl2 with no abelian row: alpha has no abelian diagonal to sit on, but
    # the degree windows, which read only the grid, still hold
    gl2 = fixture("gl2")
    monkeypatch.setattr(cli, "fixture", lambda name: replace(gl2, abelian=(False,) * gl2.size))
    code, out, err = invoke(capsys, "symbolic", "--fixture", "gl2", "--d", "10")
    assert code == 1
    lines = out.strip().splitlines()
    assert "structure,fail" in lines
    assert lines[-1] == "10,20,1/2,3/5,7/20,3/5"  # as for the real gl2
    assert "symbolic checks failed" in err.splitlines()
