import contextlib
import io
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sympack
from sympack import cli, cremona, toric
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
    assert parse_ball_list("0,0x3") == [0] * 4
    with pytest.raises(RationalParseError):
        parse_ball_list("0.5")
    for text in ("-1/2", "1/2,-1/3x2", "-0x0,-1"):
        with pytest.raises(RationalParseError, match="negative ball capacity"):
            parse_ball_list(text)


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


def test_weights_count_limit(capsys, monkeypatch):
    # the weights are counted from the continued fraction before any is built
    monkeypatch.setattr(cli, "MAX_BALLS", 10)
    code, out = capture(capsys, ["weights", "10"])
    assert code == 0 and json.loads(out)["p"] == 10
    assert "more than 10 weights" in _invalid(capsys, ["weights", "11"])


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


@pytest.mark.parametrize("target", ["Blowup(1/2) junk", "blowupXYZ(1/2)"])
def test_blowup_target_with_junk_exits_two(capsys, target):
    _invalid(capsys, ["certify", "--target", target, "--balls", "1/10"])


@pytest.mark.parametrize("target, shown", [
    ("Blowup()", "Blowup()"),
    ("Blowup(1/2,1/3)", "Blowup(1/2,1/3)"),
    ("blowup(1/2x2)", "Blowup(1/2,1/2)"),
])
def test_blowup_target_forms_accepted(capsys, target, shown):
    code, out = capture(capsys, ["certify", "--target", target,
                                 "--balls", "1/10"])
    assert code in (0, 1)
    assert json.loads(out)["target"] == shown


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


REPO = Path(__file__).resolve().parents[1]
GOLDEN = REPO / "tests" / "golden"


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


@pytest.mark.parametrize("flags", [[], ["--json"]])
def test_atlas_output_is_pinned(capsys, flags):
    code = run(["atlas", "--amin", "11/10", "--amax", "10", "--step", "1/10"]
               + flags)
    out, err = capsys.readouterr()
    assert code == 0
    assert out == (GOLDEN / "atlas.csv").read_text()
    masked = re.sub(r'"elapsed_s": [^,]+,', '"elapsed_s": "masked",', err)
    assert masked == ((GOLDEN / "atlas_report.json").read_text() if flags else "")


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


def test_atlas_row_limit_exits_two_at_once(capsys):
    started = time.perf_counter()
    code = run(["atlas", "--amin", "11/10", "--amax", "10",
                "--step", "1/1000000"])
    assert time.perf_counter() - started < 1
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("sympack: error:")
    assert "8900001 rows" in captured.err and "Traceback" not in captured.err


def test_atlas_at_row_limit(capsys, monkeypatch):
    monkeypatch.setattr(cli, "MAX_ROWS", 5)
    code, out = capture(capsys, ["atlas", "--amin", "2", "--amax", "3",
                                 "--step", "1/4"])
    assert code == 0 and len(out.strip().splitlines()) == 1 + 5
    assert run(["atlas", "--amin", "2", "--amax", "3", "--step", "1/5"]) == 2


def _invalid(capsys, argv):
    code = run(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("sympack: error:") and "Traceback" not in err
    return err


@pytest.mark.parametrize("argv", [
    ["decide", "--mu", "1", "--balls=-1/2,1/2"],
    ["decide", "--mu", "0", "--balls", "0"],
    ["decide", "--mu=-1", "--balls", "1/2"],
    ["ellipsoid-decide", "-a", "2", "--balls=1/2,-1/3x2"],
    ["certify", "--target", "E(1,2)", "--balls=-1/10"],
])
def test_negative_or_zero_sizes_exit_two(capsys, argv):
    _invalid(capsys, argv)


def test_decompose_padding_limit_exit_two(capsys, tmp_path):
    # delta is 1/200000 here, so padding would emit 237,994 fillers
    pol = tmp_path / "pol.json"
    pol.write_text(json.dumps(
        {"curves": [{"area": "40", "residue": "1/100"}] * 3}))
    balls = tmp_path / "balls.json"
    balls.write_text(json.dumps(["1/10"]))
    started = time.perf_counter()
    err = _invalid(capsys, ["decompose", "--polarization", str(pol),
                            "--balls", str(balls), "--pad"])
    assert time.perf_counter() - started < 1
    assert "237994 filler balls" in err


def test_invalid_precision_exit_two(capsys, monkeypatch):
    assert "--precision" in _invalid(capsys, ["weights", "5/2", "--precision", "0"])
    _invalid(capsys, ["dstar", "--lambdas", "1/2", "--precision", "-3"])
    # above the limit both sources are refused before any bound is computed
    too_large = str(cli.MAX_PRECISION_BITS + 1)
    err = _invalid(capsys, ["certify", "--target", "E(1,2)", "--balls", "1/10",
                            "--precision", too_large])
    assert "--precision too large" in err and str(cli.MAX_PRECISION_BITS) in err
    monkeypatch.setenv("SYMPACK_PRECISION", too_large)
    err = _invalid(capsys, ["dstar", "--lambdas", "1/2"])
    assert "SYMPACK_PRECISION too large" in err and str(cli.MAX_PRECISION_BITS) in err
    monkeypatch.setenv("SYMPACK_PRECISION", "abc")
    assert "SYMPACK_PRECISION" in _invalid(capsys, ["weights", "5/2"])


def test_dstar_overflow_exit_two(capsys):
    # lcm of six denominators near 1100 times k reaches the search limit
    err = _invalid(capsys, ["dstar", "--lambdas",
                            "1/1103,1/1109,1/1117,1/1123,1/1129,1/1151",
                            "--search-kmax", "8"])
    assert "2^63" in err


def test_dstar_many_sizes(capsys):
    # 1000 sizes search the table of 2 k_max^2 = 2 entries, with no deep
    # recursion; the witness is -E of one size: (1 + 1/100) / 4
    code, out = capture(capsys, ["dstar", "--lambdas", "1/100x1000",
                                 "--search-kmax", "1"])
    assert code == 0
    data = json.loads(out)
    assert data["search_value"] == "101/400"
    assert data["witness"]["k"] == 1 and sorted(data["witness"]["m"]) == (
        [-1] + [0] * 999)


def test_decide_trace_size_limit_exit_two(capsys, monkeypatch):
    balls = ["--balls", "33333334/100000000x9,1/1000000000x100000"]
    err = _invalid(capsys, ["decide", "--mu", "1", *balls, "--trace"])
    assert "4000000 entries" in err
    # the limit is on the trace: without --trace the same inputs are decided
    assert capture(capsys, ["decide", "--mu", "1", *balls])[0] == 1
    thin = ["ellipsoid-decide", "-a", "2844", "--balls", "1/2"]
    assert capture(capsys, thin)[0] == 0
    assert "1423 states" in _invalid(capsys, [*thin, "--trace"])
    # nine balls just above 1/3 need 81,649 passes of one move each; no
    # more than MAX_TRACE_ENTRIES // 4 passes are made, trace or not
    monkeypatch.setattr(cremona, "MAX_TRACE_ENTRIES", 4 * 10 ** 4)
    err = _invalid(capsys, ["decide", "--mu", "1",
                            "--balls", "3333333334/10000000000x9"])
    assert "more than 10000 passes" in err


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


@pytest.mark.parametrize("command, content, field", [
    ("directed-check", {"components": ["1", "1"], "assignments": [
        {"kind": "cross", "ellipsoid": ["1", "1"], "first_component": 0,
         "first_branch": "a", "second_component": 1}]}, "second_branch"),
    ("decompose", {"volume": "3/20"}, "curves"),
])
def test_json_missing_field_is_named(capsys, tmp_path, command, content, field):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(content))
    flag = "--polarization" if command == "decompose" else "--file"
    assert f'no "{field}" field' in _invalid(capsys, [command, flag, str(path)])


@pytest.mark.parametrize("argv", [
    ["certify", "--target", "Blowup(1/2,1/3)", "--balls", "1/10",
     "--precision", "16384"],
    ["certify", "--target", "E(1,2)", "--balls", "1/" + "7" * 4000],
])
def test_output_too_long_to_print_names_the_limit(capsys, argv):
    err = _invalid(capsys, argv)
    assert f"more than {sys.get_int_max_str_digits()} digits" in err
    assert "--precision" in err
    assert "set_int_max_str_digits" not in err


def test_cli_import_leaves_numpy_out():
    src = Path(sympack.__file__).resolve().parents[1]
    subprocess.run(
        [sys.executable, "-c",
         "import sympack.cli, sys; assert 'numpy' not in sys.modules"],
        env=dict(os.environ, PYTHONPATH=str(src)), check=True, timeout=60)


# exit code of each pinned report that does not exit 0
PINNED_EXIT_CODES = {"certify_blowup.txt": 1, "certify_volume_fails.txt": 1,
                     "certify_pseudo_ball.txt": 1}


@pytest.mark.parametrize("argv, golden", [
    (["decompose", "--polarization", "examples/pol.json",
      "--balls", "examples/balls.json", "--pad"], "decompose_examples.txt"),
    (["decompose", "--polarization", "tests/golden/pol_ties.json",
      "--balls", "tests/golden/balls_ties.json", "--pad",
      "--mode", "optimistic"], "decompose_ties.txt"),
    (["certify", "--target", "E(1,2)", "--balls", "13/100x100",
      "--mode", "optimistic"], "certify_ellipsoid.txt"),
    (["certify", "--target", "Blowup(1/2,1/3)", "--balls", "1/10x3"],
     "certify_blowup.txt"),
    # fails only the volume check, by 111/20000
    (["certify", "--target", "E(1,2)", "--balls", "13/100x119",
      "--mode", "optimistic"], "certify_volume_fails.txt"),
    (["certify", "--target", "T(3/2,3/2,1,1)", "--balls", "1/10x5,1/7x3",
      "--precision", "17"], "certify_pseudo_ball.txt"),
])
def test_decompose_report_is_pinned(capsys, monkeypatch, argv, golden):
    monkeypatch.chdir(REPO)
    code, out = capture(capsys, argv + ["--json"])
    assert code == PINNED_EXIT_CODES.get(golden, 0)
    masked = re.sub(r'"elapsed_s": [^,]+,', '"elapsed_s": "masked",', out)
    assert masked == (GOLDEN / golden).read_text()


# --- the CLI contract: parsers and exit codes on random input --------------

_numerals = st.integers(-20, 400).map(str)
_rational_texts = st.one_of(
    st.builds("{}/{}".format, _numerals, st.integers(1, 97)),
    _numerals,
    st.sampled_from(("", " ", "1/0", "0.5", "1e3", "abc", "1/2/3", "-0",
                     " 3/4 ", "+5/6", "1_000", "٣")))


@st.composite
def ball_list_texts(draw):
    """(text, expected balls) for a list of 'p/q' or 'p/qxN' parts."""
    parts, balls = [], []
    for num, den, count in draw(st.lists(
            st.tuples(st.integers(0, 300), st.integers(1, 97),
                      st.none() | st.integers(0, 40)), max_size=8)):
        pad = draw(st.sampled_from(("", " ", "  ")))
        if count is None:
            parts.append(f"{pad}{num}/{den}{pad}")
            count = 1
        else:
            parts.append(f"{pad}{num}/{den}x{count}{pad}")
        balls += [F(num, den)] * count
        if draw(st.booleans()):
            parts.append(draw(st.sampled_from(("", " "))))      # empty part
    return ",".join(parts), balls


@settings(max_examples=300, deadline=None)
@given(ball_list_texts())
def test_parse_ball_list_reads_its_grammar(case):
    text, balls = case
    parsed = parse_ball_list(text)
    assert parsed == balls and all(type(b) is F for b in parsed)


@settings(max_examples=500, deadline=None)
@given(st.text(alphabet="0123456789/x, -+.e_", max_size=24))
def test_parse_ball_list_accepts_or_names_the_error(text):
    try:
        parsed = parse_ball_list(text)
    except RationalParseError:
        return
    assert all(type(b) is F for b in parsed) and len(parsed) <= MAX_BALLS


_positive = st.builds(F, st.integers(1, 60), st.integers(1, 30))
_domains = st.one_of(
    st.builds(toric.Ball, _positive),
    st.builds(toric.Ellipsoid, _positive, _positive),
    st.builds(toric.ProjectivePlane, _positive),
    st.builds(lambda al, be, s, t: toric.PseudoBall(al + s * be, be + t * al,
                                                    al, be),
              _positive, _positive,
              st.builds(F, st.integers(1, 29), st.just(30)),
              st.builds(F, st.integers(1, 29), st.just(30))))


@settings(max_examples=300, deadline=None)
@given(_domains, st.sampled_from(("", " ")))
def test_parse_domain_round_trip(domain, pad):
    assert toric.parse_domain(f"{pad}{domain}{pad}") == domain


@settings(max_examples=500, deadline=None)
@given(st.one_of(
    st.builds("{}({})".format, st.sampled_from(("B", "E", "T", "P2", "Q", "")),
              st.lists(_rational_texts, max_size=5).map(",".join)),
    st.text(alphabet="BETP2()0123456789/,.- ", max_size=20)))
def test_parse_domain_accepts_or_names_the_error(text):
    try:
        domain = toric.parse_domain(text)
    except (toric.DomainError, RationalParseError):
        return
    assert isinstance(domain, (toric.Ball, toric.Ellipsoid, toric.PseudoBall,
                               toric.ProjectivePlane))


_clean_rationals = st.builds("{}/{}".format, st.integers(1, 40), st.integers(1, 40))


def _ball_list_arg(broken):
    if not broken:
        return st.lists(st.builds("{}/{}x{}".format, st.integers(1, 9),
                                  st.integers(10, 40), st.integers(1, 12)),
                        min_size=1, max_size=3).map(",".join)
    return st.one_of(
        st.lists(st.one_of(_rational_texts,
                           st.builds("{}x{}".format, _rational_texts,
                                     st.sampled_from(("3", "0", "-1", "", "2x2")))),
                 max_size=5).map(",".join),
        st.builds(lambda c, n: f"{c}x{n}", _rational_texts, st.integers(0, 60)))


def _domain_arg(broken):
    if not broken:
        return st.one_of(_domains.filter(
            lambda d: not isinstance(d, toric.ProjectivePlane)).map(str),
            st.lists(st.builds("1/{}".format, st.integers(2, 9)),
                     max_size=3).map(lambda ls: f"Blowup({','.join(ls)})"))
    return st.one_of(
        st.builds("{}({})".format,
                  st.sampled_from(("B", "E", "T", "P2", "Blowup", "blowup")),
                  st.lists(_rational_texts, max_size=5).map(",".join)),
        _domains.map(str))


@st.composite
def _json_files(draw, broken):
    """Contents for the polarization, balls and instance files."""
    rational = (st.one_of(_rational_texts, st.integers(-2, 3), st.none())
                if broken else _clean_rationals)
    curve = st.fixed_dictionaries(
        {"area": st.sampled_from(("3/2", "2", "5")),
         "residue": st.sampled_from(("1/10", "1/8", "1/4"))})
    if broken:
        curve = st.one_of(curve, st.fixed_dictionaries(
            {"area": rational, "residue": rational}))
    curves = st.lists(curve, min_size=2, max_size=4)
    pol = st.fixed_dictionaries({"curves": curves})
    balls = st.lists(st.sampled_from(("1/10", "1/20", "1/5")), max_size=6)
    assignment = st.one_of(
        st.fixed_dictionaries({
            "kind": st.sampled_from(("first_axis", "second_axis")),
            "ellipsoid": st.lists(rational, min_size=2, max_size=2),
            "component": st.integers(0, 2)}),
        st.fixed_dictionaries({
            "kind": st.just("cross"),
            "ellipsoid": st.lists(rational, min_size=2, max_size=2),
            "first_component": st.integers(0, 2), "first_branch": st.just("a"),
            "second_component": st.integers(0, 2), "second_branch": st.just("b")}))
    inst = st.fixed_dictionaries(
        {"components": st.lists(st.sampled_from(("1", "2", "3")),
                                min_size=3, max_size=3),
         "assignments": st.lists(assignment, max_size=3)})
    if broken:
        pol = st.one_of(
            st.fixed_dictionaries({"curves": st.lists(curve, max_size=4)},
                                  optional={"volume": rational}),
            st.lists(curve, max_size=2), rational)
        balls = st.one_of(
            st.lists(st.one_of(st.sampled_from(("1/10", "1/5")), rational),
                     max_size=6),
            st.fixed_dictionaries({"balls": st.lists(rational, max_size=4)}),
            rational)
        assignment = st.one_of(assignment, st.fixed_dictionaries(
            {"kind": st.sampled_from(("first_axis", "cross", "free", "other")),
             "ellipsoid": st.lists(rational, min_size=1, max_size=3)},
            optional={"component": st.one_of(st.integers(-1, 3), rational),
                      "first_component": st.integers(-1, 3),
                      "first_branch": st.sampled_from(("a", "b")),
                      "second_component": st.integers(-1, 3),
                      "second_branch": st.sampled_from(("a", "b"))}))
        inst = st.one_of(st.fixed_dictionaries(
            {"components": st.lists(rational, max_size=3)},
            optional={"assignments": st.lists(assignment, max_size=3)}), rational)
    return {"pol.json": draw(pol), "balls.json": draw(balls),
            "inst.json": draw(inst)}


@st.composite
def _argvs(draw, broken):
    """An argument list of the CLI grammar; ``broken`` mixes in bad values.

    Sizes stay small (few balls, k_max <= 6, a coarse atlas grid) so that
    each call is quick; the grammar probes exit codes, not time limits.
    """
    name = draw(st.sampled_from(sorted(COMMANDS)))
    rational = _rational_texts if broken else _clean_rationals
    above_one = st.builds("{}/{}".format, st.integers(11, 40), st.just(10))
    arguments = {
        "weights": lambda: [draw(rational)],
        "volume": lambda: [draw(_domain_arg(broken))],
        "dstar": lambda: ["--lambdas", draw(
            _ball_list_arg(True) if broken else st.lists(
                st.builds("{}/{}".format, st.integers(1, 4), st.integers(10, 30)),
                max_size=3).map(",".join)),
            "--search-kmax", str(draw(st.integers(-1 if broken else 1, 6)))],
        "decide": lambda: ["--mu", draw(rational),
                           "--balls", draw(_ball_list_arg(broken))],
        "max-equal-ball": lambda: ["--n", str(draw(st.integers(-1 if broken else 1, 30))),
                                   "--tol", draw(rational)],
        "certify": lambda: ["--target", draw(_domain_arg(broken)),
                            "--balls", draw(_ball_list_arg(broken))],
        "ellipsoid-decide": lambda: ["-a", draw(rational if broken else above_one),
                                     "--balls", draw(_ball_list_arg(broken))],
        "directed-check": lambda: ["--file", "inst.json" if not broken else draw(
            st.sampled_from(("inst.json", "missing.json", "pol.json")))],
        "decompose": lambda: ["--polarization", "pol.json" if not broken else draw(
            st.sampled_from(("pol.json", "missing.json")))] + draw(st.sampled_from(
                ([], ["--balls", "balls.json"], ["--balls", "balls.json", "--pad"])
                + ((["--balls", "inst.json", "--pad"],) if broken else ()))),
        "atlas": lambda: ["--amin", draw(st.sampled_from(("1", "11/10", "2", "x"))
                                         if broken else st.just("11/10")),
                          "--amax", draw(st.sampled_from(("2", "5/2", "0"))),
                          "--step", draw(st.sampled_from(("1/4", "1/2", "0", "-1"))
                                         if broken else st.just("1/4"))],
    }
    argv = [name] + arguments[name]()
    flags = ("--json", "--trace", "--mode optimistic", "--precision 64")
    if broken:
        flags += ("--mode other", "--precision 0", "--precision x", "--bogus")
    for flag in draw(st.lists(st.sampled_from(flags), max_size=2)):
        argv += flag.split()
    return argv


@st.composite
def _cli_cases(draw):
    broken = draw(st.booleans())
    return draw(_argvs(broken)), draw(_json_files(broken))


@settings(max_examples=400, deadline=None)
@given(_cli_cases())
def test_every_argument_list_ends_in_an_exit_code(tmp_path_factory, case):
    argv, files = case
    workdir = tmp_path_factory.getbasetemp() / "cli-contract"
    workdir.mkdir(exist_ok=True)
    for name, content in files.items():
        (workdir / name).write_text(json.dumps(content))
    argv = [str(workdir / a) if a.endswith(".json") else a for a in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = run(argv)
        except SystemExit as exc:        # argparse usage errors
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in stderr.getvalue()
    if code == 2 and not stderr.getvalue().startswith("usage:"):
        assert stderr.getvalue().startswith("sympack: error:")
