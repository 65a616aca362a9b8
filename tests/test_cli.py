"""CLI behavior: output, exit codes, logging, replay."""
import json
import math

import pytest

from mahlerlab import cli
from mahlerlab import embedding as E


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def test_mahler_cube_exit_zero(capsys):
    code, out = run_cli(capsys, "--no-log", "mahler",
                        "--body", '{"type":"cube","dim":3}')
    assert code == 0
    assert out["exact_ratio"] == "1"
    assert out["ratio"] == 1.0


def test_body_from_file(tmp_path, capsys):
    f = tmp_path / "body.json"
    f.write_text('{"type":"cross","dim":2}')
    code, out = run_cli(capsys, "--no-log", "volume", "--body", str(f))
    assert code == 0
    assert out["exact"] == "2"


def test_section_command(capsys):
    code, out = run_cli(capsys, "--no-log", "section",
                        "--body", '{"type":"cube","dim":3}',
                        "--normal", "1,1,1")
    assert code == 0
    assert out["body"]["type"] == "scaled"
    assert math.isclose(out["volume"]["value"], 3 * math.sqrt(3), rel_tol=1e-9)


def test_reduce_command(capsys):
    code, out = run_cli(capsys, "--no-log", "reduce",
                        "--body", '{"type":"product","body":{"type":"cross","dim":3}}',
                        "--normal", "1,0,0", "--normal", "1,1")
    assert code == 0
    assert out["dim"] == 2
    assert math.isclose(out["volume_product"]["value"], 4.0, rel_tol=1e-12)


def test_capacity_command(capsys):
    code, out = run_cli(capsys, "--no-log", "capacity",
                        "--body", '{"type":"lp_ball","p":2,"dim":4}',
                        "--points", "32", "--starts", "6", "--seed", "1",
                        "--no-loop")
    assert code == 0
    assert abs(out["value"] - math.pi) / math.pi < 0.01


def test_crofton_command(capsys):
    code, out = run_cli(capsys, "--no-log", "crofton", "--epsilon", "0",
                        "--samples", "2000", "--seed", "3")
    assert code == 0
    assert out["agrees"]


def test_crofton_without_extra_crossings_agrees(capsys):
    # no circle of this draw crosses more than twice; the interval must
    # still cover the area's 1.9e-3 excess over pi
    code, out = run_cli(capsys, "--no-log", "crofton", "--epsilon", "0.05",
                        "--g", "q2^3", "--samples", "2048", "--seed", "5")
    assert code == 0
    assert out["agrees"] and out["rhs_ci"] > 0


def test_verify_command(capsys):
    code, out = run_cli(capsys, "--no-log", "verify", "--suite",
                        "reduction-bound", "--trials", "2", "--n", "3",
                        "--seed", "1")
    assert code == 0
    assert out["passed"]


def test_usage_error_exit_one(capsys):
    code = cli.main(["--no-log", "volume", "--body", '{"type":"nope"}'])
    assert code == 1
    code = cli.main(["--no-log", "section",
                     "--body", '{"type":"cube","dim":3}', "--normal", "0,0,0"])
    assert code == 1


def test_assertion_failure_exit_two(capsys, monkeypatch):
    def fake_check(*args, **kwargs):
        return {"contained_fraction": 0.5, "eps": 0.01, "radius": 1.0,
                "alpha": 2.0, "beta": 2.0, "n_exp": 8, "copies": 2,
                "samples": 10, "worst_excess": 0.2, "worst_point": None,
                "seed": 0}

    monkeypatch.setattr(E, "product_embedding_check", fake_check)
    monkeypatch.setattr(cli.E, "product_embedding_check", fake_check)
    code = cli.main(["--no-log", "embed", "--samples", "10"])
    assert code == 2


def test_log_record_and_replay(tmp_path, capsys):
    log = tmp_path / "exp.jsonl"
    code, out1 = run_cli(capsys, "--log", str(log), "mahler",
                         "--body", '{"type":"cross","dim":3}')
    assert code == 0
    rec = json.loads(log.read_text().splitlines()[-1])
    assert rec["command"] == "mahler"
    assert rec["version"]
    assert len(rec["body_hash"]) == 40  # git-style sha1
    # replay: rerunning the logged command reproduces the exact result
    code, out2 = run_cli(capsys, "--no-log", "mahler",
                         "--body", json.dumps(rec["body"]))
    assert out2["exact_product"] == out1["exact_product"]


def test_mc_replay_matches_seed(tmp_path, capsys):
    log = tmp_path / "exp.jsonl"
    body = '{"type":"lp_ball","p":2,"dim":2}'
    code, out1 = run_cli(capsys, "--log", str(log), "volume", "--body", body,
                         "--samples", "20000", "--seed", "5", "--method", "mc")
    rec = json.loads(log.read_text().splitlines()[-1])
    code, out2 = run_cli(capsys, "--no-log", "volume", "--body", body,
                         "--samples", "20000",
                         "--seed", str(rec["result"]["seed"]), "--method", "mc")
    assert out1["value"] == out2["value"]


def test_env_seed(capsys, monkeypatch):
    monkeypatch.setenv("MAHLER_LAB_SEED", "77")
    code, out = run_cli(capsys, "--no-log", "volume",
                        "--body", '{"type":"lp_ball","p":2,"dim":2}',
                        "--samples", "10000", "--method", "mc")
    assert out["seed"] == 77


# ---------------------------------------------------------------------------
# malformed input ends in exit code 1 with a message


def test_missing_body_field_exit_one(capsys):
    code = cli.main(["--no-log", "volume", "--body", '{"type":"cube"}'])
    assert code == 1
    assert "lacks field(s) dim" in capsys.readouterr().err


@pytest.mark.parametrize("body, message", [
    ('{"type":"hpoly","A":5,"b":[1]}', "'A' must be a non-empty list of rows"),
    ('{"type":"hpoly","A":[[1,0],[0]],"b":[1,1]}', "'A' is not rectangular"),
    ('{"type":"hpoly","A":[[1,0],[0,null]],"b":[1,1]}', "non-numeric entry None"),
    ('{"type":"hpoly","A":[[1,0],[-1,0]],"b":[1]}', "'b' has 1 entries, expected 2"),
    ('{"type":"vpoly","vertices":[[1,"x"],[-1,0]]}', "cannot parse rational from 'x'"),
    ('{"type":"cube","dim":[3]}', "non-numeric entry [3]"),
    ('{"type":"cross","dim":0}', "'dim' must be a positive integer"),
    ('{"type":"lp_ball","p":{},"dim":3}', "non-numeric entry {}"),
    ('{"type":"hanner","expr":5}', "'expr' must be a string"),
    ('{"type":"section","body":{"type":"cube","dim":3},"normal":5}', "'normal' must be"),
    ('{"type":"linimg","body":{"type":"cube","dim":2},"matrix":5}', "'matrix' must be"),
    ('{"type":"scaled","core":{"type":"cube","dim":2},"scales2":5}', "'scales2' must be"),
])
def test_wrong_typed_body_field_exit_one(capsys, body, message):
    code = cli.main(["--no-log", "volume", "--body", body])
    assert code == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("expr, message", [
    ("X(" * 1200 + "S, S" + ")" * 1200, "at least two operands"),
    ("X(S, " * 1200 + "S" + ")" * 1200, "1201 leaves"),
])
def test_deep_hanner_nesting_exit_one(capsys, expr, message):
    body = json.dumps({"type": "hanner", "expr": expr})
    code = cli.main(["--no-log", "volume", "--body", body])
    assert code == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("g, coef, exps, malformed", [
    ("1e-1*q2^3", 0.1, (0, 0, 0, 3), "1e*q2^3"),
    ("2.5E+0*q1^3", 2.5, (0, 0, 3, 0), "2.5E*q1^3"),
])
def test_crofton_accepts_float_literals(capsys, g, coef, exps, malformed):
    from mahlerlab import crofton as CR

    assert CR.parse_odd_polynomial(g, 2).terms == ((coef, exps),)
    code, out = run_cli(capsys, "--no-log", "crofton", "--epsilon", "0.05",
                        "--g", g, "--samples", "200", "--seed", "3")
    assert code == 0
    assert out["samples"] == 200
    code = cli.main(["--no-log", "crofton", "--epsilon", "0.05",
                     "--g", malformed, "--samples", "200"])
    assert code == 1
    assert "bad monomial" in capsys.readouterr().err
