import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import sympack
from sympack import cli
from sympack.cli import COMMANDS, MAX_BALLS, parse_ball_list, run
from sympack.rationals import RationalParseError

F = Fraction


def capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


def test_parse_ball_list():
    assert parse_ball_list("1/2,1/3") == [F(1, 2), F(1, 3)]
    assert parse_ball_list("13/100x3") == [F(13, 100)] * 3
    assert parse_ball_list("1,2/5x2,3") == [1, F(2, 5), F(2, 5), 3]
    with pytest.raises(RationalParseError):
        parse_ball_list("0.5")


@pytest.mark.parametrize("text", ["1/2x1_000", "1/2x ３", "1/2x", "1/2x3x"])
def test_parse_ball_list_rejects_repetition(text):
    with pytest.raises(RationalParseError):
        parse_ball_list(text)


def test_weights_json(capsys):
    code, out = capture(capsys, ["weights", "5/2"])
    assert code == 0
    data = json.loads(out)
    assert data == {"a": "5/2", "weights": ["1", "1", "1/2", "1/2"],
                    "p": 4, "sum_sq": "5/2"}


def test_weights_round_trip(capsys):
    code, out = capture(capsys, ["weights", "201/100"])
    data = json.loads(out)
    parsed = [F(w) for w in data["weights"]]
    assert sum(w * w for w in parsed) == F(data["a"])
    assert len(parsed) == data["p"]


def test_volume(capsys):
    code, out = capture(capsys, ["volume", "T(3/2,3/2,1,1)"])
    assert code == 0
    assert json.loads(out)["volume"] == "3/2"


def test_dstar(capsys):
    code, out = capture(capsys, ["dstar", "--lambdas", "1/2,1/2",
                                 "--search-kmax", "5"])
    assert code == 0
    data = json.loads(out)
    assert data["search_value"] == "3/16"
    assert data["bound"]["rounding"] == "down"
    assert data["bound"]["precision_bits"] == 128
    assert float(data["bound"]["decimal"]) <= 3 / 16


def test_decide_accept_exit_zero(capsys):
    code, out = capture(capsys, ["decide", "--mu", "1",
                                 "--balls", "2/5x5", "--trace"])
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "accepted"
    assert len(data["trace"]["steps"]) == 3
    # zeros are dropped from reported vectors
    for step in data["trace"]["steps"]:
        assert "0" not in step["after"]["lambdas"]


def test_decide_reject_exit_one(capsys):
    code, out = capture(capsys, ["decide", "--mu", "1", "--balls", "3/5,3/5"])
    assert code == 1
    assert json.loads(out)["reason"] == "negative entry"


def test_invalid_input_exit_two(capsys):
    assert run(["decide", "--mu", "0.5", "--balls", "1/2"]) == 2
    assert run(["volume", "E(1,-2)"]) == 2
    assert run(["weights", "1/2"]) == 2


def test_max_equal_ball(capsys):
    code, out = capture(capsys, ["max-equal-ball", "--n", "5",
                                 "--tol", "1/1000000"])
    assert code == 0
    cap = F(json.loads(out)["capacity"])
    assert abs(cap - F(2, 5)) <= F(1, 1000000)


def test_max_equal_ball_count_limits(capsys):
    # above the cap of a ball list the balls are never built; below one the
    # library's ValueError is the message
    for n in (MAX_BALLS + 1, 0):
        assert run(["max-equal-ball", "--n", str(n)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("sympack: error:") and "Traceback" not in err


def test_certify_exit_codes(capsys):
    code, out = capture(capsys, ["certify", "--target", "T(3/2,3/2,1,1)",
                                 "--balls", "19/100x10",
                                 "--mode", "optimistic"])
    assert code == 0
    assert json.loads(out)["verdict"] == "CERTIFIED"
    code, _ = capture(capsys, ["certify", "--target", "E(1,2)",
                               "--balls", "1/2"])
    assert code == 1


def test_certify_blowup_target(capsys):
    code, out = capture(capsys, ["certify", "--target", "Blowup(1/2)",
                                 "--balls", "1/10", "--mode", "optimistic"])
    assert code == 0
    data = json.loads(out)
    assert data["target"] == "Blowup(1/2)"
    assert data["lambda_threshold"]["rational"] == "1/8"


def test_p2_not_a_target(capsys):
    assert run(["certify", "--target", "P2(2)", "--balls", "1/10"]) == 2


def test_ellipsoid_decide(capsys):
    code, out = capture(capsys, ["ellipsoid-decide", "-a", "5/2",
                                 "--balls", "1,1,1/2,1/2", "--trace"])
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "accepted"
    assert len(data["trace"]["steps"]) == 4
    code, _ = capture(capsys, ["ellipsoid-decide", "-a", "2",
                               "--balls", "1,1,1/100"])
    assert code == 1


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("argv, golden", [
    (["decide", "--mu", "1", "--balls", "2/5x5", "--trace"],
     "decide_trace.txt"),
    (["ellipsoid-decide", "-a", "5/2", "--balls", "1,1,1/2,1/2", "--trace"],
     "ellipsoid_decide_trace.txt"),
])
def test_trace_output_is_pinned(capsys, argv, golden):
    code, out = capture(capsys, argv)
    assert code == 0
    assert out == (GOLDEN / golden).read_text()


def test_global_flags_both_positions(capsys):
    code_a, out_a = capture(capsys, ["--json", "weights", "5/2"])
    code_b, out_b = capture(capsys, ["weights", "5/2", "--json"])
    assert code_a == code_b == 0
    rep_a, rep_b = json.loads(out_a), json.loads(out_b)
    assert rep_a["outputs"] == rep_b["outputs"]
    assert rep_a["command"] == "weights"
    assert rep_a["precision_bits"] == 128
    assert "version" in rep_a and "elapsed_s" in rep_a


def _every_command(tmp_path):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({"components": ["1"], "assignments": [
        {"kind": "second_axis", "component": 0, "ellipsoid": ["2", "1/2"]}]}))
    pol = tmp_path / "pol.json"
    pol.write_text(json.dumps({"curves": [{"area": "1", "residue": "1/10"}] * 3}))
    balls = tmp_path / "balls.json"
    balls.write_text(json.dumps(["1/500"] * 5))
    return [
        ["weights", "5/2"],
        ["volume", "E(1,5/2)"],
        ["dstar", "--lambdas", "1/2", "--search-kmax", "3"],
        ["decide", "--mu", "1", "--balls", "2/5x5", "--trace"],
        ["max-equal-ball", "--n", "4", "--tol", "1/1000"],
        ["certify", "--target", "Blowup(1/2,1/3)", "--balls", "1/10x3"],
        ["ellipsoid-decide", "-a", "2", "--balls", "1,1,1/100"],
        ["directed-check", "--file", str(inst)],
        ["decompose", "--polarization", str(pol), "--balls", str(balls),
         "--pad"],
        ["atlas", "--amin", "2", "--amax", "5/2", "--step", "1/4"],
    ]


def test_json_report_wraps_plain_output(capsys, tmp_path):
    commands = _every_command(tmp_path)
    assert [argv[0] for argv in commands] == list(COMMANDS)
    for argv in commands:
        code = run(argv)
        plain = capsys.readouterr()
        assert run(argv + ["--json"]) == code
        wrapped = capsys.readouterr()
        if argv[0] == "atlas":
            # CSV on stdout either way, a one-line report on stderr
            assert wrapped.out == plain.out and plain.err == ""
            report = json.loads(wrapped.err)
            assert set(report) == {"command", "rows", "elapsed_s",
                                   "precision_bits", "rounding"}
            assert report["rows"] == len(plain.out.splitlines()) - 1
        else:
            report = json.loads(wrapped.out)
            assert set(report) == {"command", "inputs", "outputs", "version",
                                   "precision_bits", "elapsed_s"}
            assert report["outputs"] == json.loads(plain.out)
        assert report["command"] == argv[0]
        assert report["precision_bits"] == 128


def test_precision_flag_and_env(capsys, monkeypatch):
    _, out64 = capture(capsys, ["dstar", "--lambdas", "1/2",
                                "--precision", "64"])
    assert json.loads(out64)["bound"]["precision_bits"] == 64
    monkeypatch.setenv("SYMPACK_PRECISION", "32")
    _, out32 = capture(capsys, ["dstar", "--lambdas", "1/2"])
    assert json.loads(out32)["bound"]["precision_bits"] == 32


def test_directed_check(capsys, tmp_path):
    inst = {
        "components": ["1", "1"],
        "assignments": [
            {"kind": "cross", "ellipsoid": ["3/5", "7/10"],
             "first_component": 0, "first_branch": "first",
             "second_component": 1, "second_branch": "second"},
        ],
    }
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(inst))
    code, out = capture(capsys, ["directed-check", "--file", str(path)])
    assert code == 0
    assert json.loads(out)["slacks"] == ["2/5", "3/10"]


def test_decompose(capsys, tmp_path):
    pol = {"curves": [{"area": "1", "residue": "1/10"}] * 3,
           "volume": "3/20"}
    pol_path = tmp_path / "pol.json"
    pol_path.write_text(json.dumps(pol))
    code, out = capture(capsys, ["decompose", "--polarization",
                                 str(pol_path), "--mode", "optimistic"])
    assert code == 0
    data = json.loads(out)
    assert data["total_volume"] == "3/20"
    assert data["delta"] == "1/2000"
    assert len(data["pieces"]) == 6
    assert data["pieces"][0]["domain"] == "E(7/10,1/10)"
    assert abs(float(data["lambda_prime"]["decimal"]) - 0.0092) < 2e-4


def test_decompose_with_balls(capsys, tmp_path):
    pol = {"curves": [{"area": "1", "residue": "1/10"}] * 3}
    balls = {"balls": ["1/500"] * 40}
    pol_path = tmp_path / "pol.json"
    balls_path = tmp_path / "balls.json"
    pol_path.write_text(json.dumps(pol))
    balls_path.write_text(json.dumps(balls))
    code, out = capture(capsys, ["decompose", "--polarization", str(pol_path),
                                 "--balls", str(balls_path), "--pad"])
    assert code == 0
    data = json.loads(out)
    assert "partition" in data and "certificates" in data
    assert len(data["partition"]["subsets"]) == 6
    assert all(c["verdict"] == "CERTIFIED" for c in data["certificates"])


def test_atlas(capsys):
    code, out = capture(capsys, ["atlas", "--amin", "2", "--amax", "2"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "a,conservative,optimistic,p,kappa_sq"
    assert len(lines) == 2
    a, cons, opt, p, kappa_sq = lines[1].split(",")
    assert a == "2" and p == "2" and kappa_sq == "1/2"
    assert abs(float(opt) - 0.1327) < 1e-4
    assert abs(float(cons) - float(opt) / 2) < 1e-12


def test_atlas_empty_grid(capsys):
    assert run(["atlas", "--amin", "3", "--amax", "2"]) == 2
    assert run(["atlas", "--amin", "1", "--amax", "2"]) == 2


def _invalid(capsys, argv):
    code = run(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("sympack: error:") and "Traceback" not in err
    return err


def test_invalid_precision_exit_two(capsys, monkeypatch):
    assert "--precision" in _invalid(capsys, ["weights", "5/2", "--precision", "0"])
    _invalid(capsys, ["dstar", "--lambdas", "1/2", "--precision", "-3"])
    monkeypatch.setenv("SYMPACK_PRECISION", "abc")
    assert "SYMPACK_PRECISION" in _invalid(capsys, ["weights", "5/2"])


def test_dstar_overflow_exit_two(capsys):
    # lcm of six denominators near 1100 times k reaches the search limit
    err = _invalid(capsys, ["dstar", "--lambdas",
                            "1/1103,1/1109,1/1117,1/1123,1/1129,1/1151",
                            "--search-kmax", "8"])
    assert "2^63" in err


def test_dstar_table_above_row_limit_exit_two(capsys):
    err = _invalid(capsys, ["dstar", "--lambdas", "1/10x6",
                            "--search-kmax", "20"])
    assert "50000" in err


def test_ball_list_at_limit():
    assert len(parse_ball_list(f"1/1000x{MAX_BALLS - 1},1/2")) == MAX_BALLS
    for text in (f"1/1000x{MAX_BALLS + 1}", f"1/1000x{MAX_BALLS},1/2",
                 "1/1000x3000000000"):
        with pytest.raises(RationalParseError, match="more than"):
            parse_ball_list(text)


def test_certify_ball_count_limit(capsys, monkeypatch):
    monkeypatch.setattr(cli, "MAX_BALLS", 1000)
    code, out = capture(capsys, ["certify", "--target", "E(1,2)",
                                 "--balls", "1/1000x999,1/2"])
    assert code == 1 and len(json.loads(out)["balls"]) == 1000
    assert "more than 1000 balls" in _invalid(
        capsys, ["certify", "--target", "E(1,2)", "--balls", "1/1000x999,1/2x2"])
    monkeypatch.undo()
    assert "more than 1000000 balls" in _invalid(
        capsys, ["certify", "--target", "E(1,2)", "--balls", "1/1000x3000000000"])


@pytest.mark.parametrize("command, content", [
    ("decompose", {"curves": [{"area": 1, "residue": "1/10"}] * 3}),
    ("decompose", [{"area": "1", "residue": "1/10"}]),
    ("decompose", {"curves": [1, 2, 3]}),
    ("decompose", {"curves": "1/2"}),
    ("directed-check", {"components": [1]}),
    ("directed-check", ["1"]),
    ("directed-check", {"components": ["1"], "assignments": [
        {"kind": "first_axis", "component": [0], "ellipsoid": ["2", "1/2"]}]}),
    ("directed-check", {"components": ["1"], "assignments": [7]}),
])
def test_json_of_wrong_shape_exit_two(capsys, tmp_path, command, content):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(content))
    flag = "--polarization" if command == "decompose" else "--file"
    assert "must be" in _invalid(capsys, [command, flag, str(path)])


def test_decompose_balls_of_wrong_shape_exit_two(capsys, tmp_path):
    pol = tmp_path / "pol.json"
    pol.write_text(json.dumps({"curves": [{"area": "1", "residue": "1/10"}] * 3,
                               "volume": "3/20"}))
    for balls in ({"balls": [1]}, 3):
        path = tmp_path / "balls.json"
        path.write_text(json.dumps(balls))
        _invalid(capsys, ["decompose", "--polarization", str(pol),
                          "--balls", str(path)])


def test_cli_import_leaves_numpy_out():
    src = Path(sympack.__file__).resolve().parents[1]
    subprocess.run(
        [sys.executable, "-c",
         "import sympack.cli, sys; assert 'numpy' not in sys.modules"],
        env=dict(os.environ, PYTHONPATH=str(src)), check=True, timeout=60)
