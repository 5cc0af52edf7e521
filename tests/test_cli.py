import json
import os

import pytest

from liftproject.cli import main

from conftest import DATA_DIR, T1_MPS


@pytest.fixture
def t1_path(tmp_path):
    path = tmp_path / "t1.mps"
    path.write_text(T1_MPS)
    return str(path)


@pytest.fixture
def optima_path():
    return os.path.join(DATA_DIR, "reference_optima.txt")


def test_close_t1_pe(t1_path, optima_path, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(
        [
            "close", t1_path,
            "--mode", "pe",
            "--optima", optima_path,
            "--json", str(out),
        ]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["schema"] == 1
    assert report["gap_closed"] == pytest.approx(100.0)
    assert report["termination"] == "proved"
    human = capsys.readouterr().out
    assert "gap closed" in human and "100.00 %" in human


def test_close_reports_are_deterministic(t1_path, optima_path, tmp_path):
    outs = []
    for i in range(2):
        out = tmp_path / f"r{i}.json"
        code = main(
            [
                "close", t1_path,
                "--mode", "pestar",
                "--optima", optima_path,
                "--json", str(out),
                "--omit-times",
            ]
        )
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]  # byte-identical without wall-clock fields


def test_close_json_to_stdout_is_one_document(capsys):
    # with --json - the human table goes to stderr, so stdout parses as a
    # whole, and reruns print the same bytes
    path = os.path.join(DATA_DIR, "t1.mps")
    outs = []
    for _ in range(2):
        assert main(["close", path, "--json", "-", "--omit-times"]) == 0
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert report["termination"] == "proved" and "time" not in report
        assert "termination" in captured.err and "z_cut" in captured.err
        outs.append(captured.out.encode())
    assert outs[0] == outs[1]


def test_close_json_report_is_strict_json(capsys):
    # an infinite time limit is written as null: a strict parser, which
    # rejects Infinity and NaN, reads the report
    path = os.path.join(DATA_DIR, "t1.mps")
    argv = ["close", path, "--mode", "pe", "--time-limit", "inf", "--json", "-"]
    assert main(argv) == 0

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    report = json.loads(capsys.readouterr().out, parse_constant=reject)
    assert report["termination"] == "proved"
    assert report["config"]["time_limit"] is None


def test_close_gmi_rounds(t1_path, optima_path, tmp_path):
    out = tmp_path / "gmi.json"
    code = main(
        [
            "close", t1_path,
            "--mode", "gmi-rounds",
            "--rounds", "1",
            "--optima", optima_path,
            "--json", str(out),
        ]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["termination"] == "rounds_done"
    assert report["gap_closed"] == pytest.approx(100.0)
    seps = report["separations"]
    assert seps["total"] == seps["cut"] + seps["no_cut"] + seps["inconclusive"]
    assert seps["total"] >= 1


CONFIG_BLOCK = {
    "eps": 0.0001,
    "marker_default_binary": True,
    "max_active_cuts": 5000,
    "pool_park_after": 30,
    "tail_tol": 0.0001,
    "tail_window": 10,
    "time_limit": 3600.0,
}


@pytest.mark.parametrize(
    "mode, keys",
    [
        ("pe", {"mode": "pe"}),
        ("pestar", {"mode": "pestar"}),
        ("gmi-rounds", {"mode": "gmi", "rounds": 1}),
    ],
)
def test_close_config_block_is_pinned(t1_path, tmp_path, capsys, mode, keys):
    out = tmp_path / "report.json"
    assert main(["close", t1_path, "--mode", mode, "--json", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["config"] == {**CONFIG_BLOCK, **keys}
    assert report["termination_reason"]
    assert f"reason        : {report['termination_reason']}\n" in (
        capsys.readouterr().out
    )


def test_close_missing_file_exits_1(capsys):
    assert main(["close", "/nonexistent/foo.mps"]) == 1
    assert "error" in capsys.readouterr().err


def test_close_unwritable_json_exits_1(t1_path, tmp_path, capsys):
    out = tmp_path / "no" / "such" / "dir" / "out.json"
    assert main(["close", t1_path, "--mode", "pe", "--json", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"error: cannot write {out}" in err and "Traceback" not in err
    assert not out.exists()


def test_close_malformed_mps_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.mps"
    bad.write_text("NAME X\nROWS\n N obj\nCOLUMNS\n    x nosuch 1.0\nENDATA\n")
    assert main(["close", str(bad)]) == 1
    assert "line 5" in capsys.readouterr().err


@pytest.mark.parametrize(
    "old, new, line",
    [
        (" PL BND       X1", " UP BND       X1        nan", 15),
        ("X2        R2             1.0", "X2        R2             inf", 11),
    ],
    ids=["nan-bound", "inf-coefficient"],
)
def test_close_non_finite_mps_exits_1(tmp_path, capsys, old, new, line):
    bad = tmp_path / "bad.mps"
    bad.write_text(T1_MPS.replace(old, new))
    assert main(["close", str(bad), "--mode", "pe"]) == 1
    captured = capsys.readouterr()
    assert f"line {line}: non-finite value" in captured.err
    assert captured.out == ""


def test_close_unbounded_exits_1(tmp_path, capsys):
    text = (
        "NAME U\nOBJSENSE\n MAX\nROWS\n N obj\n G r1\n"
        "COLUMNS\n    x r1 1.0 obj 1.0\nRHS\n    rhs r1 0.0\nENDATA\n"
    )
    path = tmp_path / "unbounded.mps"
    path.write_text(text)
    assert main(["close", str(path)]) == 1
    assert "unbounded" in capsys.readouterr().err


def test_close_free_variable_exits_1(tmp_path, capsys):
    # min x + y, x + y >= -5.5, x integer in [0, 10], y free: the optimum
    # is -5.5.  Read with y in [0, inf) the run proved the invalid bound 0
    path = tmp_path / "free.mps"
    path.write_text(
        "NAME FREE\nROWS\n N obj\n G r1\nCOLUMNS\n"
        "    MARKER 'MARKER' 'INTORG'\n    x obj 1.0 r1 1.0\n"
        "    MARKER 'MARKER' 'INTEND'\n    y obj 1.0 r1 1.0\n"
        "RHS\n    rhs r1 -5.5\nBOUNDS\n UP bnd x 10\n FR bnd y\nENDATA\n"
    )
    assert main(["close", str(path), "--mode", "pe"]) == 1
    captured = capsys.readouterr()
    assert "variables without a finite lower bound are not supported: y" in captured.err
    assert captured.out == ""


def test_close_time_limit_exits_2(t1_path):
    assert main(["close", t1_path, "--time-limit", "0"]) == 2


def test_close_without_optima_reports_na(t1_path, capsys):
    code = main(["close", t1_path, "--mode", "pe"])
    assert code == 0
    out = capsys.readouterr().out
    assert "n/a" in out


def test_verify_cli_passes(capsys):
    code = main(["verify", "--suite", "duality", "--count", "5", "--seed", "2"])
    assert code == 0
    assert "ok" in capsys.readouterr().out


def test_verify_cli_fault_injection_exits_3(capsys):
    code = main(
        [
            "verify", "--suite", "validity",
            "--count", "3",
            "--seed", "3",
            "--corrupt-rhs", "0.4",
        ]
    )
    assert code == 3
    err = capsys.readouterr()
    assert "counterexample" in err.err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--eps", "0"], "eps must be positive and finite"),
        (["--eps", "inf"], "eps must be positive and finite"),
        (["--time-limit", "nan"], "time_limit must be a number"),
        (["--mode", "gmi-rounds", "--rounds", "-3"], "rounds must be non-negative"),
        (["--time-limit", "-5"], "time_limit must be non-negative"),
        (["--eps", "0.7"], "eps must be below 0.5"),
        (["--eps", "0.3"], "eps must be at most 0.25 in pe and pestar modes"),
        (
            ["--optima", "{optima}"],
            "optima file: {optima}: line 1: optimum nan is not finite",
        ),
        (
            ["--optima", "{optima}.abc"],
            "optima file: {optima}.abc: line 2: optimum 'abc' is not a number",
        ),
    ],
)
def test_close_invalid_config_exits_1(t1_path, tmp_path, capsys, argv, message):
    # {optima} names an optima file whose only value is nan, and
    # {optima}.abc one whose second value is no number
    optima = tmp_path / "optima.txt"
    optima.write_text("t1 nan\n")
    (tmp_path / "optima.txt.abc").write_text("t0 1\nt1 abc\n")
    argv = [arg.format(optima=optima) for arg in argv]
    message = message.format(optima=optima)
    assert main(["close", t1_path, *argv]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_close_reads_mps_infinity_as_no_bound(tmp_path):
    # max x + y s.t. 2x + 2y <= 3 over integers whose upper bound 1e30 is
    # the usual MPS infinity: read as a finite bound it scaled the
    # simplex's tolerances past the model and proved 0.  With no bound the
    # pe closure of this model is its LP bound 1.5
    path = tmp_path / "inf.mps"
    path.write_text(
        "NAME INF\nOBJSENSE\n    MAX\nROWS\n N obj\n L c1\nCOLUMNS\n"
        "    MARKER 'MARKER' 'INTORG'\n    x obj 1.0 c1 2.0\n    y obj 1.0 c1 2.0\n"
        "    MARKER 'MARKER' 'INTEND'\nRHS\n    rhs c1 3.0\n"
        "BOUNDS\n UP BND x 1e30\n UP BND y 1e30\nENDATA\n"
    )
    out = tmp_path / "report.json"
    assert main(["close", str(path), "--mode", "pe", "--json", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["termination"] == "proved"
    assert report["z_lp"] == pytest.approx(1.5)
    assert report["z_cut"] == pytest.approx(1.5)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--count", "-5"], "count must be non-negative"),
        (["--corrupt-rhs", "nan"], "corrupt-rhs must be finite"),
        (["--corrupt-rhs", "-1"], "corrupt-rhs must be non-negative"),
        (["--seed", "-1"], "seed must be non-negative"),
    ],
)
def test_verify_invalid_option_exits_1(capsys, argv, message):
    assert main(["verify", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_verify_count_zero_is_vacuous(capsys):
    code = main(["verify", "--suite", "theorem3", "--count", "0"])
    assert code == 0


def test_json_report_round_trips(t1_path, optima_path, tmp_path):
    out = tmp_path / "rt.json"
    main(["close", t1_path, "--optima", optima_path, "--json", str(out)])
    payload = json.loads(out.read_text())
    assert json.loads(json.dumps(payload)) == payload
    assert payload["config"]["marker_default_binary"] is True
