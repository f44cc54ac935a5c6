import hashlib
import json
import subprocess
import sys

import pytest

CLI = [sys.executable, "-m", "interlacekit"]


def run_cli(*args, cwd=None):
    return subprocess.run(
        CLI + list(args), capture_output=True, text=True, cwd=cwd
    )


def strip_timing(report_text):
    report = json.loads(report_text)
    report.pop("timing")
    return report


def test_gen_writes_deterministic_files(tmp_path):
    out1 = tmp_path / "a_{i}.json"
    out2 = tmp_path / "b_{i}.json"
    args = ["gen", "--seed", "5", "--trials", "3", "--size-min", "2",
            "--size-max", "4", "--bound", "6"]
    r1 = run_cli(*args, "--out", str(out1))
    r2 = run_cli(*args, "--out", str(out2))
    assert r1.returncode == 0 and r2.returncode == 0
    for i in range(3):
        a = (tmp_path / f"a_{i}.json").read_bytes()
        b = (tmp_path / f"b_{i}.json").read_bytes()
        assert a == b
        doc = json.loads(a)
        assert set(doc) == {"n", "entries"}
        assert 2 <= doc["n"] <= 4


def test_gen_takes_no_check_flags(tmp_path):
    for flag, value in (("--mode", "cauchy"), ("--alphas", "3"), ("--width", "1/2")):
        result = run_cli("gen", flag, value, "--out", str(tmp_path / "x.json"))
        assert result.returncode == 2
        assert "unrecognized arguments" in result.stderr
    assert not (tmp_path / "x.json").exists()
    result = run_cli("gen", "--seed", "5", "--trials", "2",
                     "--out", str(tmp_path / "m_{i}.json"))
    assert result.returncode == 0
    files = b"".join((tmp_path / f"m_{i}.json").read_bytes() for i in range(2))
    assert hashlib.sha256(files).hexdigest() == (
        "f3be07a0f876476d688f385e91e0908c157a5ec1a7c17401ff36959cb202e780"
    )


def test_generated_matrices_are_valid_input(tmp_path):
    out = tmp_path / "m_{i}.json"
    assert run_cli("gen", "--seed", "8", "--trials", "2", "--out", str(out)).returncode == 0
    paths = [str(tmp_path / f"m_{i}.json") for i in range(2)]
    result = run_cli("check", "--mode", "cauchy", *paths)
    assert result.returncode == 0
    report = strip_timing(result.stdout)
    records = report["suites"]["cauchy"]["trials"]
    assert [r["path"] for r in records] == paths
    assert all(r["pass"] for r in records)


def test_check_all_is_deterministic_modulo_timing():
    args = ["check", "--mode", "all", "--seed", "17", "--trials", "3",
            "--size-min", "2", "--size-max", "4"]
    r1 = run_cli(*args)
    r2 = run_cli(*args)
    assert r1.returncode == 0 and r2.returncode == 0
    a = strip_timing(r1.stdout)
    b = strip_timing(r2.stdout)
    assert a == b
    assert set(a["suites"]) == {"definition", "pencil", "identity", "cauchy"}
    assert a["failures"] == 0
    assert a["config"]["seed"] == 17


def test_in_process_calls_reuse_one_parser(capsys):
    # The parser is built once per process; a rejected argv leaves it
    # as it was for the next call.
    from interlacekit import cli

    args = ["check", "--mode", "definition", "--seed", "4", "--trials", "2"]
    assert cli.main(args) == 0
    first = strip_timing(capsys.readouterr().out)
    with pytest.raises(SystemExit):
        cli.main(["check", "--mode", "bogus"])
    capsys.readouterr()
    assert cli.main(args) == 0
    assert strip_timing(capsys.readouterr().out) == first
    assert cli._build_parser() is cli._build_parser()


def test_check_single_mode_runs_one_suite():
    result = run_cli("check", "--mode", "identity", "--seed", "2", "--trials", "4")
    assert result.returncode == 0
    report = strip_timing(result.stdout)
    assert list(report["suites"]) == ["identity"]
    trials = report["suites"]["identity"]["trials"]
    assert len(trials) == 4
    assert all(t["report"]["exact_match"] for t in trials)


def test_check_out_flag_writes_file(tmp_path):
    target = tmp_path / "report.json"
    result = run_cli("check", "--mode", "definition", "--seed", "4",
                     "--trials", "2", "--out", str(target))
    assert result.returncode == 0
    assert result.stdout == ""
    report = json.loads(target.read_text())
    assert report["failures"] == 0


def test_pencil_file_mode_reports_witness(tmp_path):
    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps({"f": ["0", "-2", "1"], "g": ["-3", "1"]}))
    result = run_cli("check", "--mode", "pencil", "--seed", "1", str(pair))
    assert result.returncode == 0
    record = strip_timing(result.stdout)["suites"]["pencil"]["trials"][0]
    assert record["pass"]
    assert record["report"]["verdict"] == "Consistent"
    assert record["report"]["pencil"]["witness"] == "-1"
    assert record["report"]["interlace"]["verdict"] == "DoesNotInterlace"


def test_definition_file_mode(tmp_path):
    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps({"f": ["0", "-2", "1"], "g": ["-1", "1"]}))
    result = run_cli("check", "--mode", "definition", str(pair))
    assert result.returncode == 0
    record = strip_timing(result.stdout)["suites"]["definition"]["trials"][0]
    assert record["report"]["verdict"] == "Interlaces"


def test_not_real_rooted_file_fails_with_exit_one(tmp_path):
    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps({"f": ["3", "-3", "1"], "g": ["-1", "1"]}))
    result = run_cli("check", "--mode", "definition", str(pair))
    assert result.returncode == 1
    record = json.loads(result.stdout)["suites"]["definition"]["trials"][0]
    assert record["report"]["verdict"] == "NotRealRooted"
    assert not record["pass"]


def test_malformed_inputs_exit_two(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    result = run_cli("check", "--mode", "cauchy", str(bad))
    assert result.returncode == 2
    assert "bad.json" in result.stderr

    nonherm = tmp_path / "nonherm.json"
    nonherm.write_text(json.dumps(
        {"n": 2, "entries": [[["1", "0"], ["2", "0"]], [["3", "0"], ["1", "0"]]]}
    ))
    result = run_cli("check", "--mode", "cauchy", str(nonherm))
    assert result.returncode == 2
    assert "(0, 1)" in result.stderr

    badden = tmp_path / "badden.json"
    badden.write_text(json.dumps(
        {"n": 1, "entries": [[["1/0", "0"]]]}
    ))
    result = run_cli("check", "--mode", "cauchy", str(badden))
    assert result.returncode == 2

    extra_key = tmp_path / "extra_key.json"
    extra_key.write_text(json.dumps(
        {"n": 2, "entries": [[["1", "0"], ["0", "0"]], [["0", "0"], ["1", "0"]]],
         "x": 1}
    ))
    result = run_cli("check", "--mode", "cauchy", str(extra_key))
    assert result.returncode == 2
    assert "extra_key.json" in result.stderr and "'x'" in result.stderr
    assert result.stdout == ""

    missing = run_cli("check", "--mode", "cauchy", str(tmp_path / "nope.json"))
    assert missing.returncode == 2

    not_utf8 = tmp_path / "not_utf8.json"
    not_utf8.write_bytes(b"\xff\xfe{}")
    result = run_cli("check", "--mode", "cauchy", str(not_utf8))
    assert result.returncode == 2
    assert "not_utf8.json" in result.stderr and "Traceback" not in result.stderr

    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200000 + "]" * 200000)
    result = run_cli("check", "--mode", "pencil", str(deep))
    assert result.returncode == 2
    assert "deep.json" in result.stderr and "Traceback" not in result.stderr

    long_int = tmp_path / "long_int.json"
    long_int.write_text('{"f": [' + "1" * 5000 + '], "g": ["1"]}')
    result = run_cli("check", "--mode", "definition", str(long_int))
    assert result.returncode == 2
    assert "long_int.json" in result.stderr and "Traceback" not in result.stderr


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"),
    reason="interpreter has no int digit limit",
)
def test_digit_limit_coefficient_exits_two_briefly(tmp_path):
    limit = sys.get_int_max_str_digits()
    pair = tmp_path / "long_coeff.json"
    pair.write_text(json.dumps({"f": ["1" * (limit + 1), "1"], "g": ["1"]}))
    result = run_cli("check", "--mode", "definition", str(pair))
    assert result.returncode == 2
    assert "long_coeff.json" in result.stderr
    assert f"limit of {limit} digits" in result.stderr
    assert len(result.stderr) < 300


def test_quirky_fields_exit_two_naming_the_field(tmp_path):
    bool_size = tmp_path / "bool_size.json"
    bool_size.write_text(json.dumps({"n": True, "entries": [[["1", "0"]]]}))
    result = run_cli("check", "--mode", "cauchy", str(bool_size))
    assert result.returncode == 2
    assert "field 'n'" in result.stderr

    separator = tmp_path / "separator.json"
    separator.write_text(json.dumps({"n": 1, "entries": [[["1_000", "0"]]]}))
    result = run_cli("check", "--mode", "cauchy", str(separator))
    assert result.returncode == 2
    assert "entry (0, 0)" in result.stderr and "1_000" in result.stderr

    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps({"f": ["0", "\u0663", "1"], "g": ["1", "1"]}))
    result = run_cli("check", "--mode", "definition", str(pair))
    assert result.returncode == 2
    assert "pair.json" in result.stderr


def test_flag_validation_exits_two(tmp_path):
    # Spectra are refined to the library's DEFAULT_WIDTH; no flag sets it.
    out = tmp_path / "r_{i}.json"
    for command in ("check", "gen"):
        for width in ("1/2", "0", "nope"):
            result = run_cli(command, "--width", width, "--out", str(out))
            assert result.returncode == 2
            assert "unrecognized arguments: --width" in result.stderr
    assert list(tmp_path.iterdir()) == []


def test_flag_prefixes_are_not_accepted(tmp_path):
    # A prefix of --alphas or --trials is an unknown flag, not the flag.
    out = tmp_path / "r_{i}.json"
    for argv in (
        ["check", "--mode", "definition", "--al", "2", "--trials", "1"],
        ["gen", "--tri", "1"],
    ):
        result = run_cli(*argv, "--out", str(out))
        assert result.returncode == 2
        assert "unrecognized arguments" in result.stderr
        assert result.stdout == ""
    assert list(tmp_path.iterdir()) == []


def test_pair_files_name_unexpected_keys(tmp_path):
    extra = tmp_path / "extra.json"
    extra.write_text(json.dumps({"f": ["0", "1"], "g": ["1"], "h": 1, "a": 2}))
    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"f": ["0", "1"]}))
    for path, tail in ((extra, ", not 'a', 'h'"), (missing, "")):
        result = run_cli("check", "--mode", "pencil", str(path))
        assert result.returncode == 2
        assert result.stderr == (
            f"error: {path}: pair document needs exactly the keys f and g{tail}\n"
        )
        assert result.stdout == ""


@pytest.mark.parametrize("argv, line, code", [
    (["check", "--trials", "0"], "error: trials must be >= 1, got 0", 2),
    (["check", "--size-min", "5", "--size-max", "3"],
     "error: need 1 <= size-min <= size-max, got 5..3", 2),
    (["check", "--bound", "0"], "error: bound must be >= 1, got 0", 2),
    (["check", "--alphas", "-1"], "error: alphas must be >= 0, got -1", 2),
    (["check", "--mode", "cauchy", "--size-min", "1"],
     "error: mode 'cauchy' needs size-min >= 2, got 1", 2),
    (["check", "--mode", "all", "PAIR"],
     "error: input files require a single mode, not 'all'", 2),
    (["gen", "--trials", "0"], "error: trials must be >= 1, got 0", 2),
    (["gen", "--size-min", "0"],
     "error: need 1 <= size-min <= size-max, got 0..6", 2),
])
def test_flag_validation_messages(tmp_path, argv, line, code):
    pair = tmp_path / "p.json"
    pair.write_text(json.dumps({"f": ["0", "1"], "g": ["1"]}))
    out = tmp_path / "out_{i}.json"
    argv = [str(pair) if a == "PAIR" else a for a in argv]
    result = run_cli(*argv, "--out", str(out))
    assert result.returncode == code
    assert result.stderr == line + "\n"
    assert result.stdout == ""
    assert [p.name for p in tmp_path.iterdir()] == ["p.json"]


def test_inconsistent_deletion_is_a_failed_record(monkeypatch, capsys):
    from interlacekit import cli
    from interlacekit.errors import InternalInconsistencyError

    real_check = cli.cauchy_check

    def cauchy_check(matrix, k, *rest):
        if k == 1:
            raise InternalInconsistencyError("routes disagree at k = 1")
        return real_check(matrix, k, *rest)

    monkeypatch.setattr(cli, "cauchy_check", cauchy_check)
    code = cli.main(["check", "--mode", "cauchy", "--seed", "6", "--trials", "1",
                     "--size-min", "3", "--size-max", "3"])
    assert code == 1
    suite = strip_timing(capsys.readouterr().out)["suites"]["cauchy"]
    assert (suite["passes"], suite["failures"]) == (0, 1)
    record = suite["trials"][0]
    assert record["pass"] is False
    assert record["deletions"] == [
        {"k": 0, "verdict": "Interlaces"},
        {"k": 1, "verdict": "Inconsistent", "detail": "routes disagree at k = 1"},
        {"k": 2, "verdict": "Interlaces"},
    ]


def test_inconsistency_outside_a_record_exits_one(monkeypatch, capsys):
    from interlacekit import cli
    from interlacekit.errors import InternalInconsistencyError

    def interlaces_exact(f, g):
        raise InternalInconsistencyError("chain and roots disagree")

    monkeypatch.setattr(cli, "interlaces_exact", interlaces_exact)
    code = cli.main(["check", "--mode", "definition", "--seed", "6", "--trials", "1"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "check failed: chain and roots disagree\n"


def test_pair_degree_gap_exits_two(tmp_path):
    pair = tmp_path / "gap.json"
    pair.write_text(json.dumps({"f": ["1", "0", "0", "1"], "g": ["1", "1"]}))
    result = run_cli("check", "--mode", "pencil", str(pair))
    assert result.returncode == 2
    assert "gap.json" in result.stderr


def test_definition_degree_gap_is_a_failed_record(tmp_path):
    pair = tmp_path / "gap.json"
    pair.write_text(json.dumps({"f": ["1", "0", "0", "1"], "g": ["1", "1"]}))
    result = run_cli("check", "--mode", "definition", str(pair))
    assert result.returncode == 1
    record = strip_timing(result.stdout)["suites"]["definition"]["trials"][0]
    assert record["report"]["verdict"] == "DegreeMismatch"
    assert record["pass"] is False


def test_reports_carry_tool_and_config_blocks():
    result = run_cli("check", "--mode", "definition", "--seed", "40", "--trials", "2")
    report = json.loads(result.stdout)
    assert report["tool"]["name"] == "interlacekit"
    assert "version" in report["tool"]
    assert report["config"]["mode"] == "definition"
    assert "elapsed_seconds" in report["timing"]


def test_gen_rejects_bad_flags():
    assert run_cli("gen", "--trials", "0").returncode == 2
    assert run_cli("gen", "--size-min", "0").returncode == 2


@pytest.mark.parametrize("template", ["m_{i:q}.json", "m_{i}{j}.json", "m_{i:c}"])
def test_gen_rejects_malformed_out_template(tmp_path, template):
    result = run_cli("gen", "--trials", "1", "--out", str(tmp_path / template))
    assert result.returncode == 2
    assert "--out" in result.stderr and "Traceback" not in result.stderr
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("mode", ["definition", "pencil", "identity", "cauchy"])
def test_every_generated_suite_passes(mode):
    result = run_cli("check", "--mode", mode, "--seed", "23", "--trials", "3",
                     "--size-min", "2", "--size-max", "4")
    assert result.returncode == 0, result.stderr
    report = strip_timing(result.stdout)
    assert report["suites"][mode]["failures"] == 0
