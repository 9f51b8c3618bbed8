import hashlib
import json

import pytest

from commprob.branching import branching_matrix
from commprob.cli import load_branching_json, run


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
    entries, payload = load_branching_json(out)
    matrix, registry = branching_matrix(corpus["q8"])
    assert entries == matrix.entries
    assert payload["size"] == matrix.size
    assert payload["labels"] == list(matrix.labels)
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


def test_determinism_across_processes_and_hash_seeds():
    # hash randomisation must not leak into any emitted ordering
    import os
    import subprocess
    import sys
    from pathlib import Path

    import commprob

    # the child imports the same commprob as this process, installed or not
    src = str(Path(commprob.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outputs = []
    for seed in ("1", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
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
    ],
)
def test_stdout_golden_digest(capsys, argv, digest):
    # stdout digests pinned before `symbolic` and `ratio` moved onto library
    # results; the bytes must not change
    code, out, _ = invoke(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
