from __future__ import annotations

import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gallai_forge import constructions, repro
from gallai_forge.cli import main
from gallai_forge.constructions import random_gallai
from gallai_forge.graphs import MAX_COLOR, decode, encode, new_uniform
from gallai_forge.repro import Criterion, _child_env


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    return code, report, captured.err


def test_report_envelope(capsys, tmp_path):
    out = tmp_path / "c.gcg"
    code, report, err = run_cli(
        capsys, "construct", "--family", "star-plus", "-t", "4", "-k", "3", "-o", str(out)
    )
    assert code == 0
    assert set(report) == {"command", "inputs", "result", "exit"}
    assert report["command"] == "construct"
    assert report["exit"] == 0
    assert report["inputs"]["t"] == 4
    assert report["result"]["order"] == 15
    assert report["result"]["threshold"] == 16
    assert "wrote" in err
    text = out.read_text()
    assert text.endswith("# recipe: blowup5(uniform(3,1),2,3)\n")
    assert decode(text).n == 15


def test_construct_missing_required_flag_exits_2():
    proc = subprocess.run(
        [sys.executable, "-m", "gallai_forge.cli", "construct", "--family", "star-plus", "-k", "3"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 2
    assert proc.stdout == ""  # usage errors from the parser go to stderr


def test_construct_rejects_degenerate_t(capsys, tmp_path):
    code, report, _ = run_cli(
        capsys, "construct", "--family", "star-plus", "-t", "3", "-k", "2",
        "-o", str(tmp_path / "x.gcg"),
    )
    assert code == 2
    assert "error" in report["result"]


@pytest.mark.parametrize("k", ["2100", "70000", "100000000"])
def test_construct_refuses_an_order_no_array_holds(capsys, tmp_path, k):
    # the order of each of these k has more edges than one numpy array holds
    out = tmp_path / "x.gcg"
    code, report, err = run_cli(capsys, "construct", "--family", "star-plus", "-t", "4", "-k", k, "-o", str(out))
    assert code == 2 and report["exit"] == 2
    assert report["result"]["error"].startswith(f"t = 4, k = {k} gives a construction of more than ")
    assert "Traceback" not in err
    assert not out.exists()


def test_construct_refuses_a_build_larger_than_memory(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(constructions, "_physical_memory", lambda: 2**10)
    out = tmp_path / "x.gcg"
    code, report, err = run_cli(capsys, "construct", "--family", "star-plus", "-t", "4", "-k", "5", "-o", str(out))
    assert code == 2 and report["exit"] == 2
    assert report["result"]["error"].startswith("t = 4, k = 5 needs about 0.0 GiB to build and encode, more than ")
    assert "Traceback" not in err
    assert not out.exists()


def test_verify_clean_and_violated(capsys, tmp_path):
    out = tmp_path / "c.gcg"
    run_cli(capsys, "construct", "--family", "path-plus", "-t", "5", "-k", "2", "-o", str(out))
    for family in ("star-plus", "path-plus"):
        code, report, _ = run_cli(capsys, "verify", str(out), "--family", family, "-t", "5")
        assert code == 0
        assert report["result"]["holds"] is True

    uniform = tmp_path / "u.gcg"
    uniform.write_text("gcg 1\n6 1\n1\n1 1\n1 1 1\n1 1 1 1\n1 1 1 1 1\n")
    code, report, _ = run_cli(capsys, "verify", str(uniform), "--family", "star-plus", "-t", "4")
    assert code == 1
    target_check = report["result"]["checks"][1]
    assert target_check["found"] is True
    assert target_check["witness"]["pattern"] == "star-plus"


def test_verify_finds_a_spanning_star_plus(capsys, tmp_path):
    uniform = tmp_path / "u.gcg"
    uniform.write_text(encode(new_uniform(1100, 1, 1)))
    code, report, err = run_cli(capsys, "verify", str(uniform), "--family", "star-plus", "-t", "1100")
    assert code == 1 and report["exit"] == 1
    assert report["result"]["checks"][1]["witness"]["vertices"] == list(range(1100))
    assert "Traceback" not in err


def test_verify_rainbow_only(capsys, tmp_path):
    rainbow = tmp_path / "r.gcg"
    rainbow.write_text("gcg 1\n3 3\n1\n2 3\n")
    code, report, _ = run_cli(capsys, "verify", str(rainbow), "--rainbow-only")
    assert code == 1
    check = report["result"]["checks"][0]
    assert check["found"] is True
    assert check["witness"]["color"] == "rainbow"


def test_verify_needs_target_without_rainbow_only(capsys, tmp_path):
    f = tmp_path / "g.gcg"
    f.write_text("gcg 1\n3 1\n1\n1 1\n")
    code, report, _ = run_cli(capsys, "verify", str(f))
    assert code == 2
    assert "required" in report["result"]["error"]


def test_verify_malformed_input(capsys, tmp_path):
    f = tmp_path / "bad.gcg"
    f.write_text("gcg 1\n3 1\n1\n9 9\n")
    code, report, _ = run_cli(capsys, "verify", str(f), "--rainbow-only")
    assert code == 2
    assert "line 4" in report["result"]["error"]


@pytest.mark.parametrize(
    "raw, where",
    [
        (b"\xef\xbb\xbfgcg 1\n3 1\n1\n1 1\n", "line 1, column 1: non-ASCII byte 0xef"),  # a UTF-8 BOM
        (b"gcg 1\r\n3 2\r\n1\r\n1 \xff\n", "line 4, column 3: non-ASCII byte 0xff"),
    ],
)
def test_non_ascii_input_is_located(capsys, tmp_path, raw, where):
    f = tmp_path / "bad.gcg"
    f.write_bytes(raw)
    for argv in (["verify", str(f), "--rainbow-only"], ["decompose", str(f)]):
        code, report, _ = run_cli(capsys, *argv)
        assert code == 2
        assert report["result"] == {"error": f"malformed input: {where}"}


def test_verify_refuses_an_overlong_integer(capsys, tmp_path):
    f = tmp_path / "long.gcg"
    f.write_text("gcg 1\n" + "1" * 5000 + " 2\n")
    code, report, _ = run_cli(capsys, "verify", str(f), "--rainbow-only")
    assert code == 2
    assert report["result"]["error"].startswith("malformed input: line 2, column 1:")


def test_verify_missing_file(capsys, tmp_path):
    code, report, _ = run_cli(capsys, "verify", str(tmp_path / "nope.gcg"), "--rainbow-only")
    assert code == 2


def test_decompose_two_clique(capsys, tmp_path):
    out = tmp_path / "c.gcg"
    run_cli(capsys, "construct", "--family", "star-plus", "-t", "4", "-k", "2", "-o", str(out))
    code, report, _ = run_cli(capsys, "decompose", str(out))
    assert code == 0
    assert report["result"]["partition"]["parts"] == [[0, 1, 2], [3, 4, 5]]
    assert report["result"]["reduced"]["order"] == 2
    assert report["result"]["reduced"]["rows"] == [[2]]


def test_decompose_stdout_is_pinned_for_five_parts(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the input path is echoed, so keep it relative
    run_cli(capsys, "construct", "--family", "star-plus", "-t", "4", "-k", "3", "-o", "c.gcg")
    assert main(["decompose", "c.gcg"]) == 0
    out = capsys.readouterr().out
    assert len(json.loads(out)["result"]["partition"]["parts"]) == 5
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "69c8873577d8a95f63302d3b2a62cc1cf42e50f476f4fdcd7d9ed2081a9987dc"
    )


def test_decompose_rainbow_refused(capsys, tmp_path):
    rainbow = tmp_path / "r.gcg"
    rainbow.write_text("gcg 1\n3 3\n1\n2 3\n")
    code, report, _ = run_cli(capsys, "decompose", str(rainbow))
    assert code == 1
    assert report["result"]["holds"] is False
    assert report["result"]["rainbow_triangle"]["color"] == "rainbow"


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(3, 7),
    seed=st.integers(0, 2**32 - 1),
    edit=st.sampled_from(["replace", "insert", "delete"]),
    data=st.data(),
)
def test_verify_and_decompose_answer_mutated_files_with_one_envelope(n, seed, edit, data):
    raw = (encode(random_gallai(n, 3, seed)) + "# a comment\n").encode("ascii")
    at = data.draw(st.integers(0, len(raw) - (edit != "insert")))
    byte = bytes([data.draw(st.integers(0, 255))])
    mutated = raw[:at] + (b"" if edit == "delete" else byte) + raw[at + (edit != "insert") :]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.gcg")
        with open(path, "wb") as fh:
            fh.write(mutated)
        for argv in (["verify", path, "--family", "star-plus", "-t", "4"], ["decompose", path]):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main(argv)
            report = json.loads(out.getvalue())  # one JSON document and nothing else
            assert set(report) == {"command", "inputs", "result", "exit"}
            assert report["exit"] == code and code in (0, 1, 2)
            assert "Traceback" not in err.getvalue()


def test_ramsey_match(capsys, tmp_path):
    code, report, err = run_cli(
        capsys, "ramsey", "--family", "star-plus", "-t", "4", "--out-dir", str(tmp_path)
    )
    assert code == 0
    result = report["result"]
    assert result["value"] == 7 and result["match"] is True
    assert result["divergence"] is None
    assert result["exhaustion"]["nodes"] == 95
    witness = decode(open(result["witness_path"]).read())
    assert witness.n == 6
    assert "searched orders" in err


def test_ramsey_asymmetric(capsys, tmp_path):
    code, report, _ = run_cli(
        capsys, "ramsey", "--family", "path-plus", "-s", "4", "-t", "5", "--out-dir", str(tmp_path)
    )
    assert code == 0
    assert report["result"]["value"] == 9
    assert report["inputs"]["s"] == 4


def test_ramsey_triangle_divergence(capsys, tmp_path):
    code, report, _ = run_cli(
        capsys, "ramsey", "--family", "star-plus", "-t", "3", "--out-dir", str(tmp_path)
    )
    assert code == 1
    result = report["result"]
    assert result["value"] == 6 and result["expected"] == 5
    assert result["match"] is False
    assert result["divergence"] is not None


def test_ramsey_budget_exhaustion(capsys, tmp_path):
    code, report, _ = run_cli(
        capsys,
        "ramsey", "--family", "star-plus", "-t", "7",
        "--max-seconds", "0.2", "--out-dir", str(tmp_path),
    )
    assert code == 3
    assert report["result"]["error"] == "budget exhausted"
    assert report["result"]["reason"] == "time"


def test_ramsey_node_budget(capsys, tmp_path):
    code, report, _ = run_cli(
        capsys,
        "ramsey", "--family", "star-plus", "-t", "4",
        "--max-nodes", "50", "--out-dir", str(tmp_path),
    )
    assert code == 3
    assert report["result"]["reason"] == "nodes"
    assert report["result"]["nodes"] == 50


def test_ramsey_n_max_below_value_exits_3(capsys, tmp_path):
    # no verdict, like a spent budget; exit 1 would claim a refutation
    code, report, _ = run_cli(
        capsys,
        "ramsey", "--family", "star-plus", "-t", "4",
        "--n-max", "5", "--out-dir", str(tmp_path),
    )
    assert code == 3 and report["exit"] == 3
    assert report["result"] == {
        "error": "every order up to 5 still admits a valid coloring",
        "reason": "n-max",
    }


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
def test_ramsey_refuses_a_non_finite_time_budget(capsys, tmp_path, value):
    # strict JSON has no NaN or Infinity to echo, so the parser refuses them
    with pytest.raises(SystemExit) as exc:
        main(["ramsey", "--family", "star-plus", "-t", "4", f"--max-seconds={value}", "--out-dir", str(tmp_path)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"invalid finite float value: '{value}'" in captured.err
    assert list(tmp_path.iterdir()) == []


def test_ramsey_checks_out_dir_before_searching(capsys, tmp_path):
    blocker = tmp_path / "plain-file"
    blocker.write_text("")
    # the node budget would run out (exit 3) if the search came first
    code, report, _ = run_cli(
        capsys,
        "ramsey", "--family", "star-plus", "-t", "4",
        "--max-nodes", "50", "--out-dir", str(blocker),
    )
    assert code == 2 and report["exit"] == 2
    assert "File exists" in report["result"]["error"]


RAMSEY_KEYS = {"value", "expected", "match", "witness_path", "witness_order", "exhaustion", "divergence"}


# pin one exit-0 case: size 4 certifies with 95 nodes at order 7
@example(family="star-plus", s=None, t=4, n_max=None, max_nodes=1000)
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    family=st.sampled_from(["star-plus", "path-plus"]),
    s=st.one_of(st.none(), st.integers(-1, 6)),
    t=st.integers(-1, 6),
    n_max=st.one_of(st.none(), st.integers(-1, 9)),
    max_nodes=st.integers(1, 500),
)
def test_ramsey_always_answers_with_one_envelope(family, s, t, n_max, max_nodes):
    with tempfile.TemporaryDirectory() as out_dir:
        argv = ["ramsey", "--family", family, "-t", str(t), "--max-nodes", str(max_nodes), "--jobs", "1"]
        if s is not None:
            argv += ["-s", str(s)]
        if n_max is not None:
            argv += ["--n-max", str(n_max)]
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = main(argv + ["--out-dir", out_dir])
    report = json.loads(out.getvalue())  # one JSON document and nothing else
    assert set(report) == {"command", "inputs", "result", "exit"}
    assert report["exit"] == code and code in (0, 1, 2, 3)
    result = report["result"]
    if code == 0:
        assert set(result) == RAMSEY_KEYS
    elif code == 1:
        assert set(result) == RAMSEY_KEYS  # a value mismatch
    elif code == 3 and result.get("reason") == "n-max":
        assert n_max is not None and set(result) == {"error", "reason"}
    else:
        assert "error" in result


@pytest.mark.parametrize(
    "jobs, out_dir_is_a_file, needle",
    [("0", False, "need jobs >= 1, got 0"), ("-1", False, "need jobs >= 1, got -1"), ("1", True, "File exists")],
)
def test_repro_refuses_bad_arguments_before_any_criterion(tmp_path, jobs, out_dir_is_a_file, needle):
    blocker = tmp_path / "plain-file"
    blocker.write_text("")
    argv = ["repro", "--quick", "--jobs", jobs, "--out-dir", str(blocker if out_dir_is_a_file else tmp_path)]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    report = json.loads(out.getvalue())  # one JSON document and nothing else
    assert code == report["exit"] == 2
    assert needle in report["result"]["error"]
    assert "Traceback" not in err.getvalue()
    assert "overall:" not in err.getvalue()  # no criterion ran


def _trivial_criteria(status: str) -> list[Criterion]:
    return [Criterion(1, "trivial", lambda ctx: (status, "done at once"), None)]


@st.composite
def repro_argv(draw, tmp: str) -> tuple[list[str], dict]:
    """argv for repro under ``tmp``, and the flags as main should echo them."""
    quick, stretch = draw(st.booleans()), draw(st.booleans())
    jobs = draw(st.one_of(st.integers(-3, 4).map(str), st.sampled_from(["", "abc", "1.5", "0x2", "2two"])))
    blocker = os.path.join(tmp, "plain-file")
    with open(blocker, "w"):
        pass
    out_dir = draw(
        st.sampled_from(
            [tmp, os.path.join(tmp, "new", "nested"), blocker, os.path.join(blocker, "below")]
        )
    )
    argv = ["repro", "--jobs", jobs, "--out-dir", out_dir]
    argv += ["--quick"] * quick + ["--stretch"] * stretch
    return argv, {"quick": quick, "stretch": stretch, "jobs": jobs, "out-dir": out_dir}


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(status=st.sampled_from(["pass", "fail"]), data=st.data())
def test_repro_always_answers_with_one_envelope(status, data):
    with tempfile.TemporaryDirectory() as tmp:
        argv, flags = data.draw(repro_argv(tmp))
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.object(repro, "CRITERIA", _trivial_criteria(status)):
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse refuses the argument list
                    code = exc.code
                    assert code == 2 and out.getvalue() == ""
                    with pytest.raises(ValueError):
                        int(flags["jobs"])
                    return
    report = json.loads(out.getvalue())  # one JSON document and nothing else
    assert set(report) == {"command", "inputs", "result", "exit"}
    assert report["exit"] == code and code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    assert report["inputs"] == {**flags, "jobs": int(flags["jobs"])}
    usable = int(flags["jobs"]) >= 1 and not flags["out-dir"].startswith(os.path.join(tmp, "plain-file"))
    assert code == (2 if not usable else 0 if status == "pass" else 1), report["result"]


FAMILIES = st.sampled_from(["star-plus", "path-plus"])
AROUND_FOUR = st.integers(-1, 7)  # the target-order bound t >= 4


@st.composite
def small_argv(draw) -> tuple[list[str], bool]:
    """argv for construct, random or a formula with small integers around each
    documented bound, and whether every value lies inside its bounds."""
    command = draw(st.sampled_from(["construct", "random", "gr", "ramsey", "cycle", "even-cycle-bounds"]))
    if command == "construct":
        t, k = draw(AROUND_FOUR), draw(st.integers(-1, 6))  # orders stay at or below 300
        return ["construct", "--family", draw(FAMILIES), "-t", str(t), "-k", str(k)], t >= 4 and k >= 1
    if command == "random":
        n = draw(st.integers(-1, 300))
        k = draw(st.one_of(st.integers(-1, 8), st.integers(MAX_COLOR - 1, MAX_COLOR + 1)))
        seed = draw(st.integers(-5, 2**64))
        return ["random", "-n", str(n), "-k", str(k), "--seed", str(seed)], n >= 1 and 1 <= k <= MAX_COLOR
    if command == "gr":
        t, k = draw(AROUND_FOUR), draw(st.integers(-1, 9))
        return ["formula", "gr", "--family", draw(FAMILIES), "-t", str(t), "-k", str(k)], t >= 4 and k >= 1
    if command == "ramsey":
        s, t = draw(AROUND_FOUR), draw(AROUND_FOUR)
        return ["formula", "ramsey", "--family", draw(FAMILIES), "-s", str(s), "-t", str(t)], min(s, t) >= 4
    if command == "cycle":
        m, n = draw(st.integers(-1, 9)), draw(st.integers(-1, 9))
        return ["formula", "cycle", "-m", str(m), "-n", str(n)], 3 <= m <= n and (m, n) not in ((3, 3), (4, 4))
    n, k = draw(st.integers(-1, 5)), draw(st.integers(-1, 5))
    return ["formula", "even-cycle-bounds", "-n", str(n), "-k", str(k)], n >= 2 and k >= 1


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=small_argv())
@example(case=(["random", "-n", "300", "-k", "70000", "--seed", "0"], False))
def test_construct_random_and_formula_answer_with_one_envelope(case):
    argv, in_bounds = case
    with tempfile.TemporaryDirectory() as tmp:
        if argv[0] != "formula":
            argv = argv + ["-o", os.path.join(tmp, "out.gcg")]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    report = json.loads(out.getvalue())  # one JSON document and nothing else
    assert set(report) == {"command", "inputs", "result", "exit"}
    assert report["exit"] == code and code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    assert (code == 0) == in_bounds, report["result"]


def test_formula_subcommands(capsys):
    code, report, _ = run_cli(capsys, "formula", "gr", "--family", "star-plus", "-t", "4", "-k", "3")
    assert code == 0 and report["result"] == {"value": 16, "branch": "odd-k"}
    code, report, _ = run_cli(capsys, "formula", "ramsey", "--family", "path-plus", "-s", "4", "-t", "5")
    assert code == 0 and report["result"]["value"] == 9
    code, report, _ = run_cli(capsys, "formula", "cycle", "-m", "4", "-n", "7")
    assert code == 0 and report["result"]["value"] == 8
    code, report, _ = run_cli(capsys, "formula", "even-cycle-bounds", "-n", "4", "-k", "3")
    assert code == 0 and report["result"] == {"lower": 14, "upper": 21, "branch": "interval"}


def test_formula_gr_bounds_k_by_the_printable_value(capsys):
    # 5^((k-1)/2) outgrows the interpreter's integer-to-text limit; the
    # refusal names k and the largest k that still prints
    code, report, _ = run_cli(capsys, "formula", "gr", "--family", "star-plus", "-t", "4", "-k", "20001")
    assert code == 2 and report["inputs"]["k"] == 20001
    error = report["result"]["error"]
    assert error.startswith("k = 20001 ") and "conversion" not in error
    largest = int(error.rsplit(" ", 1)[1])
    code, report, _ = run_cli(capsys, "formula", "gr", "--family", "star-plus", "-t", "4", "-k", str(largest))
    assert code == 0 and report["result"]["value"] > 0
    code, report, _ = run_cli(capsys, "formula", "gr", "--family", "path-plus", "-t", "4", "-k", str(largest + 1))
    assert code == 2 and report["result"]["error"].endswith(f" is {largest}")


def test_formula_gr_refuses_a_huge_k(capsys):
    # decided from k: the value at k = 10^8 alone takes minutes to compute
    code, report, err = run_cli(capsys, "formula", "gr", "--family", "star-plus", "-t", "4", "-k", "100000000")
    assert code == 2 and report["exit"] == 2
    assert report["result"]["error"].startswith("k = 100000000 gives a value of more than ")
    assert "Traceback" not in err


def test_formula_rejects_excluded_cycles(capsys):
    code, report, _ = run_cli(capsys, "formula", "cycle", "-m", "4", "-n", "4")
    assert code == 2
    assert "error" in report["result"]


def test_random_is_seed_deterministic(capsys, tmp_path):
    a = tmp_path / "a.gcg"
    b = tmp_path / "b.gcg"
    code, report_a, _ = run_cli(capsys, "random", "-n", "30", "-k", "4", "--seed", "9", "-o", str(a))
    assert code == 0 and report_a["result"]["seed"] == 9
    run_cli(capsys, "random", "-n", "30", "-k", "4", "--seed", "9", "-o", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_random_out_of_memory_exits_2(capsys, tmp_path):
    # refused up front, before allocating anything: by the memory estimate where the
    # platform reports physical memory, and by numpy's failed n x n allocation elsewhere
    code, report, _ = run_cli(capsys, "random", "-n", "1000000000", "-k", "2", "-o", str(tmp_path / "r.gcg"))
    assert code == 2 and report["exit"] == 2
    assert "allocate" in report["result"]["error"]
    assert not (tmp_path / "r.gcg").exists()


def test_random_refuses_more_colors_than_a_graph_holds(capsys, tmp_path):
    # n = 300 draws colors above 65535, which the uint16 color matrix cannot store
    out = tmp_path / "r.gcg"
    code, report, err = run_cli(capsys, "random", "-n", "300", "-k", "70000", "-o", str(out))
    assert code == 2 and report["exit"] == 2
    assert report["result"]["error"] == "color count must be in 1..65535, got 70000"
    assert "Traceback" not in err
    assert not out.exists()


def test_random_refuses_a_build_larger_than_memory(capsys, tmp_path, monkeypatch):
    # below the size numpy refuses by itself, the refusal comes before any allocation
    monkeypatch.setattr(constructions, "_physical_memory", lambda: 2**10)
    out = tmp_path / "r.gcg"
    code, report, err = run_cli(capsys, "random", "-n", "24", "-k", "4", "-o", str(out))
    assert code == 2 and report["exit"] == 2
    assert report["result"]["error"].startswith("n = 24, k = 4 would allocate about 0.0 GiB to build and encode, ")
    assert "Traceback" not in err
    assert not out.exists()


def test_random_seed_from_environment(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("GALLAI_FORGE_SEED", "77")
    a = tmp_path / "a.gcg"
    code, report, _ = run_cli(capsys, "random", "-n", "12", "-k", "2", "-o", str(a))
    assert code == 0
    assert report["inputs"]["seed"] == 77
    b = tmp_path / "b.gcg"
    monkeypatch.delenv("GALLAI_FORGE_SEED")
    run_cli(capsys, "random", "-n", "12", "-k", "2", "--seed", "77", "-o", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_random_names_a_malformed_environment_seed(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("GALLAI_FORGE_SEED", "abc")
    code, report, err = run_cli(capsys, "random", "-n", "12", "-k", "2", "-o", str(tmp_path / "r.gcg"))
    assert code == 2 and report["exit"] == 2
    assert report["result"] == {"error": "GALLAI_FORGE_SEED must be an integer, got 'abc'"}
    # no --seed and an unusable environment value, so the seed echoes as null
    assert report["inputs"] == {"n": 12, "k": 2, "seed": None, "output": str(tmp_path / "r.gcg")}
    assert "Traceback" not in err
    assert not (tmp_path / "r.gcg").exists()


@pytest.mark.parametrize(
    "argv, inputs",
    [
        (["construct", "--family", "star-plus", "-t", "4", "-k", "2"],
         {"family": "star-plus", "t": 4, "k": 2, "output": None}),
        (["construct", "--family", "path-plus", "-t", "5", "-k", "1", "--output", "c.gcg"],
         {"family": "path-plus", "t": 5, "k": 1, "output": "c.gcg"}),
        (["verify", "g.gcg", "--family", "cycle", "-t", "4"],
         {"input": "g.gcg", "family": "cycle", "t": 4, "rainbow-only": False}),
        (["verify", "g.gcg", "--rainbow-only"],
         {"input": "g.gcg", "family": None, "t": None, "rainbow-only": True}),
        (["decompose", "g.gcg"], {"input": "g.gcg"}),
        (["ramsey", "--family", "star-plus", "-t", "4"],
         {"family": "star-plus", "s": 4, "t": 4, "n-max": None, "max-nodes": None, "max-seconds": None,
          "jobs": 1, "out-dir": "."}),
        (["ramsey", "--family", "path-plus", "-s", "4", "-t", "5", "--n-max", "3", "--max-nodes", "10",
          "--max-seconds", "2.5", "--jobs", "1", "--out-dir", "w"],
         {"family": "path-plus", "s": 4, "t": 5, "n-max": 3, "max-nodes": 10, "max-seconds": 2.5,
          "jobs": 1, "out-dir": "w"}),
        (["formula", "gr", "--family", "star-plus", "-t", "4", "-k", "3"],
         {"formula": "gr", "family": "star-plus", "t": 4, "k": 3}),
        (["formula", "ramsey", "--family", "path-plus", "-s", "4", "-t", "6"],
         {"formula": "ramsey", "family": "path-plus", "s": 4, "t": 6}),
        (["formula", "cycle", "-m", "5", "-n", "7"], {"formula": "cycle", "m": 5, "n": 7}),
        (["formula", "even-cycle-bounds", "-n", "4", "-k", "3"],
         {"formula": "even-cycle-bounds", "n": 4, "k": 3}),
        (["random", "-n", "6", "-k", "2", "--seed", "31", "-o", "r.gcg"],
         {"n": 6, "k": 2, "seed": 31, "output": "r.gcg"}),
        (["random", "-n", "6", "-k", "2"], {"n": 6, "k": 2, "seed": 77, "output": None}),
        (["repro", "--quick", "--jobs", "2", "--out-dir", "m"],
         {"quick": True, "stretch": False, "jobs": 2, "out-dir": "m"}),
    ],
)
def test_inputs_echo_every_flag(capsys, tmp_path, monkeypatch, argv, inputs):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("GALLAI_FORGE_SEED", "77")
    monkeypatch.setattr(repro, "CRITERIA", _trivial_criteria("pass"))
    (tmp_path / "g.gcg").write_text("gcg 1\n3 1\n1\n1 1\n")
    code, report, _ = run_cli(capsys, *argv)
    assert code == 0 or argv[0] == "ramsey" and code == 3, report["result"]
    assert report["inputs"] == inputs


def test_stdout_is_sorted_stable_json(capsys, tmp_path):
    code, _, _ = run_cli(
        capsys, "construct", "--family", "star-plus", "-t", "4", "-k", "1",
        "-o", str(tmp_path / "x.gcg"),
    )
    assert code == 0
    # keys are emitted sorted, so two parses of the same args round-trip
    proc = subprocess.run(
        [sys.executable, "-m", "gallai_forge.cli", "construct", "--family", "star-plus",
         "-t", "4", "-k", "1", "-o", str(tmp_path / "y.gcg")],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    report = json.loads(proc.stdout)
    keys = list(report)
    assert keys == sorted(keys)
