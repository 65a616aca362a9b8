"""CLI behavior: output, exit codes, logging, replay."""
import contextlib
import functools
import inspect
import io
import json
import math
import time
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from mahlerlab import bodies as B
from mahlerlab import cli
from mahlerlab import embedding as E
from mahlerlab.verify import SUITES, suite_embedding


LP3 = '{"type":"lp_ball","p":3,"dim":3}'


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


def test_reduce_prints_exact_volume_product(capsys):
    code, out = run_cli(capsys, "--no-log", "reduce",
                        "--body", '{"type":"product","body":{"type":"cross","dim":3}}',
                        "--normal", "1,2,3")
    assert code == 0
    assert out["volume_product"]["exact"] == "8"
    assert out["volume_product"]["value"] == 8.0


def test_volume_of_product_beyond_dimension_eight(capsys):
    code, out = run_cli(capsys, "--no-log", "volume",
                        "--body", '{"type":"product","body":{"type":"cube","dim":5}}')
    assert code == 0
    assert out["exact"] == "128/15" and out["method"] == "exact"


def test_capacity_of_a_product_polar(capsys):
    """The free sum polar(cross2 x cube2) has a support witness: the
    witness of the block with the larger support value."""
    code, out = run_cli(capsys, "--no-log", "capacity", "--body",
                        '{"type":"polar","body":{"type":"product",'
                        '"body":{"type":"cross","dim":2},"dual":{"type":"cube","dim":2}}}',
                        "--points", "32", "--starts", "6", "--seed", "3", "--no-loop")
    assert code == 0
    assert out["value"] == 1.3804269710694732


def test_mahler_of_product_beyond_dimension_eight(capsys):
    code, out = run_cli(capsys, "--no-log", "mahler",
                        "--body", '{"type":"product","body":{"type":"cube","dim":5}}')
    assert code == 0
    assert out["exact_ratio"] == "1"
    assert out["vol_polar"]["method"] == "exact" and out["vol_polar"]["exact"] == "32/945"


FLAT_SQUARE = '{"type":"vpoly","vertices":[[1,0,0],[-1,0,0],[0,1,0],[0,-1,0]]}'


@pytest.mark.parametrize("argv, why", [
    (["section", "--body", FLAT_SQUARE, "--normal", "0,0,1"], "no facets"),
    (["section", "--body", FLAT_SQUARE, "--normal", "1,0,0"], "no facets"),
    (["mahler", "--body", FLAT_SQUARE], "polar of a flat body"),
    (["volume", "--body", '{"type":"polar","body":%s}' % FLAT_SQUARE], "polar of a flat body"),
], ids=["section-flat-normal", "section-in-plane-normal", "mahler", "volume-of-polar"])
def test_flat_vpolytope_errors_say_the_body_is_flat(capsys, argv, why):
    """A square in R^3 spans rank 2: every operation that needs its facets or
    its polar's vertices exits 1 saying so, not with a message about
    halfspaces the user never gave."""
    code = cli.main(["--no-log", *argv])
    assert code == 1
    err = capsys.readouterr().err
    assert "flat body" in err and "rank 2 < dim 3" in err and why in err
    assert "Traceback" not in err and "rank deficient" not in err
    # its own volume and its projections are fine: they need no facets
    if argv[0] == "mahler":
        code, out = run_cli(capsys, "--no-log", "volume", "--body", FLAT_SQUARE)
        assert code == 0 and out["exact"] == "0"


def test_l1sum_block_mismatch_exit_one(capsys):
    code = cli.main(["--no-log", "volume", "--body",
                     '{"type":"l1sum","body":{"type":"cube","dim":2},"dual":{"type":"cross","dim":3}}'])
    assert code == 1
    assert "factor dimensions differ" in capsys.readouterr().err


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


# the verify options that a suite's signature does not take
REFUSED_OPTIONS = [
    ("sections-hanner", "--samples"), ("polytopes-2n2", "--samples"),
    ("reduction-bound", "--samples"), ("capacity-monotone", "--samples"),
    ("capacity-monotone", "--n"), ("crofton", "--n"), ("crofton", "--trials"),
    ("embedding", "--n"), ("embedding", "--trials"),
]
OPTION_VALUES = {"--trials": "1", "--samples": "10", "--n": "3"}


def _stand_in_suite(monkeypatch, suite):
    """Replace a suite by a stand-in with its signature that records its
    arguments and returns a passing report without running anything."""
    calls = []

    @functools.wraps(SUITES[suite])
    def stand_in(**params):
        calls.append(params)
        return {"suite": suite, "params": params, "cases": [{"passed": True}],
                "passed": True}

    monkeypatch.setitem(cli.SUITES, suite, stand_in)
    return calls


@pytest.mark.parametrize("suite, option", REFUSED_OPTIONS)
def test_verify_refuses_an_option_the_suite_does_not_take(capsys, monkeypatch, suite,
                                                           option):
    calls = _stand_in_suite(monkeypatch, suite)
    code = cli.main(["--no-log", "verify", "--suite", suite, option, OPTION_VALUES[option]])
    assert code == 1
    assert calls == []
    err = capsys.readouterr().err
    assert suite in err and option in err


@pytest.mark.parametrize("suite, option", [
    (suite, option) for suite in SUITES for option in OPTION_VALUES
    if (suite, option) not in REFUSED_OPTIONS])
def test_verify_passes_an_option_the_suite_takes(capsys, monkeypatch, suite, option):
    monkeypatch.delenv("MAHLER_LAB_SEED", raising=False)
    calls = _stand_in_suite(monkeypatch, suite)
    code = cli.main(["--no-log", "verify", "--suite", suite, option, OPTION_VALUES[option]])
    assert code == 0
    value = int(OPTION_VALUES[option])
    expect = {"--trials": {"trials": value}, "--samples": {"samples": value},
              "--n": {"n_values": [value]} if suite != "polytopes-2n2" else {"n": value}}
    assert calls == [{"seed": 0, **expect[option]}]


@pytest.mark.parametrize("argv, message", [
    (["--suite", "sections-lp", "--trials", "0"], "--trials must be >= 1"),
    (["--suite", "sections-lp", "--trials", "-1"], "--trials must be >= 1"),
    (["--suite", "polytopes-2n2", "--n", "1", "--trials", "1"],
     "polytopes-2n2 needs n >= 2"),
])
def test_verify_that_would_check_nothing_exit_one(capsys, argv, message):
    code = cli.main(["--no-log", "verify"] + argv)
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_suite_without_cases_does_not_pass():
    from mahlerlab.verify import suite_sections_lp

    rep = suite_sections_lp(trials=0)
    assert rep["cases"] == [] and not rep["passed"]


# every parameter of each suite, at small values
SUITE_ARGUMENTS = {
    "sections-lp": {"p_values": (3.0,), "n_values": (3,), "trials": 1, "samples": 100,
                    "seed": 1},
    "sections-hanner": {"n_values": (3,), "trials": 1, "seed": 1},
    "polytopes-2n2": {"n": 2, "trials": 1, "seed": 1},
    "reduction-bound": {"n_values": (3,), "trials": 1, "seed": 1},
    "capacity-monotone": {"trials": 2, "seed": 1, "m": 4, "starts": 1, "image_trials": 2},
    "crofton": {"epsilons": (0.05,), "g_exprs": ("q2^3",), "samples": 100, "seed": 1},
    "embedding": {"alphas": (2.0,), "copies": 2, "n_exp": 2, "samples": 10, "seed": 1},
}


def test_every_suite_reports_its_arguments():
    """A suite's params name each argument it was called with, at the value
    it used, so runs that differ in any argument report different params."""
    assert set(SUITE_ARGUMENTS) == set(SUITES)
    for suite, args in SUITE_ARGUMENTS.items():
        assert set(args) == set(inspect.signature(SUITES[suite]).parameters), suite
        params = SUITES[suite](**args)["params"]
        for name, value in args.items():
            assert params[name] == (list(value) if isinstance(value, tuple) else value), \
                (suite, name)


def test_usage_error_exit_one(capsys):
    code = cli.main(["--no-log", "volume", "--body", '{"type":"nope"}'])
    assert code == 1
    code = cli.main(["--no-log", "embed", "--cache", "profiles"])
    assert code == 1
    assert "unrecognized arguments: --cache" in capsys.readouterr().err
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


def test_corrupted_area_table_fails_embed_and_the_suite(capsys, monkeypatch):
    build_profile = E.build_profile

    def corrupted(alpha, n_exp):
        prof = build_profile(alpha, n_exp)
        prof.area_table = prof.area_table * [1.0, 1.0 + 1e-3]  # measured areas 0.1% off
        return prof

    monkeypatch.setattr(E, "build_profile", corrupted)
    code, out = run_cli(capsys, "--no-log", "embed", "--copies", "2", "--samples", "2000")
    assert code == 2
    assert out["contained_fraction"] == 1.0 and out["area_rel_err"] > E.AREA_TOL
    rep = suite_embedding(alphas=(2.0,), samples=2000)
    assert not rep["passed"]
    monkeypatch.setattr(E, "build_profile", build_profile)
    assert suite_embedding(alphas=(2.0,), samples=2000)["passed"]


def test_mahler_reports_each_volume_stream(capsys):
    body = '{"type":"section","body":{"type":"lp_ball","p":3,"dim":3},"normal":[1,2,2]}'
    code, out = run_cli(capsys, "--no-log", "mahler", "--body", body, "--samples", "5000")
    assert code == 0
    assert (out["vol_body"]["stream"], out["vol_polar"]["stream"]) == (0, 1)


@pytest.mark.parametrize("alpha, nexp, code", [
    ("2", "8", 0),
    # the knot table no longer resolves the corners of the level curves:
    # every sampled point is contained, but the map is not area preserving
    ("2", "1024", 2),
    ("1.5", "256", 2),
])
def test_embed_runs_the_map_certificates(capsys, alpha, nexp, code):
    got, out = run_cli(capsys, "--no-log", "embed", "--alpha", alpha, "--nexp", nexp,
                       "--copies", "2", "--samples", "2000")
    assert got == code
    assert out["contained_fraction"] == 1.0
    assert out["oddness"] <= E.ODDNESS_TOL
    assert (out["jacobian_dev"] <= E.JACOBIAN_TOL) == (code == 0)
    c_n = E.build_profile(float(alpha), int(nexp)).c_n
    assert out["eps"] == 4.0 / c_n - 1.0


def test_log_record_and_replay(tmp_path, capsys):
    log = tmp_path / "exp.jsonl"
    # a float section of an l_p ball is logged as the slice_numeric it
    # describes itself as, which --body reads back
    for body, extra in (('{"type":"cross","dim":3}', []),
                        ('{"type":"section","body":%s,"normal":[1,2,3]}' % LP3,
                         ["--samples", "1000"])):
        code, out1 = run_cli(capsys, "--log", str(log), "mahler", "--body", body, *extra)
        assert code == 0
        rec = json.loads(log.read_text().splitlines()[-1])
        assert rec["command"] == "mahler"
        assert rec["version"]
        assert len(rec["body_hash"]) == 40  # git-style sha1
        # replay: rerunning the logged command reproduces the result and
        # logs the same body
        code, out2 = run_cli(capsys, "--log", str(log), "mahler",
                             "--body", json.dumps(rec["body"]), *extra)
        assert code == 0 and out2 == out1
        again = json.loads(log.read_text().splitlines()[-1])
        assert (again["body"], again["body_hash"]) == (rec["body"], rec["body_hash"])


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


HEXAGON = json.dumps({"type": "hpoly", "A": [[2, 0], [0, 1], [1, 1], [-2, 0], [0, -1], [-1, -1]],
                      "b": [2, 1, 1, 2, 1, 1]})


def test_log_records_the_body_as_given(tmp_path, capsys):
    """section, project and mahler log the same hash and the H-description
    of an H-polytope, whichever representations the command computed."""
    log = tmp_path / "exp.jsonl"
    for argv in (["section", "--body", HEXAGON, "--normal", "1,2"],
                 ["project", "--body", HEXAGON, "--normal", "1,2"],
                 ["mahler", "--body", HEXAGON]):
        code, _ = run_cli(capsys, "--log", str(log), *argv)
        assert code == 0
    records = [json.loads(line) for line in log.read_text().splitlines()]
    given = B.parse_body(HEXAGON).describe()
    assert given["type"] == "hpoly"
    assert [r["body"] for r in records] == [given] * 3
    assert {r["body_hash"] for r in records} == {cli.body_content_hash(given)}


def test_failed_run_leaves_the_log_unchanged(tmp_path, capsys):
    """A run that exits 1 (here a singular linear image) prints only its
    error and appends nothing, as the module docstring says."""
    log = tmp_path / "exp.jsonl"
    code, _ = run_cli(capsys, "--log", str(log), "mahler", "--body", CUBE3)
    assert code == 0
    before = log.read_bytes()
    singular = json.dumps({"type": "linimg", "body": {"type": "cube", "dim": 2},
                           "matrix": [[1, 2], [2, 4]]})
    for argv in (["mahler", "--body", singular], ["volume", "--body", singular]):
        code = cli.main(["--log", str(log), *argv])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert log.read_bytes() == before


CUBE3 = '{"type":"cube","dim":3}'
CROSS3_PRODUCT = '{"type":"product","body":{"type":"cross","dim":3}}'


@pytest.mark.parametrize("normal", ["-1,2,3", "-1/2,2,3", "-.5,1,0"])
@pytest.mark.parametrize("command, body", [("section", CUBE3), ("project", CUBE3),
                                           ("reduce", CROSS3_PRODUCT)],
                         ids=["section", "project", "reduce"])
def test_negative_normal_is_a_value(capsys, command, body, normal):
    """``--normal -1,2,3`` prints what ``--normal=-1,2,3`` prints."""
    outputs = []
    for flags in (["--normal", normal], [f"--normal={normal}"]):
        assert cli.main(["--no-log", command, "--body", body] + flags) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] and outputs[0]


def test_negative_normals_repeat_on_reduce(capsys):
    outputs = []
    for flags in (["--normal", "-1,2,3", "--normal", "-.5,1"],
                  ["--normal=-1,2,3", "--normal=-.5,1"]):
        assert cli.main(["--no-log", "reduce", "--body", CROSS3_PRODUCT] + flags) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] and json.loads(outputs[0])["dim"] == 2


@pytest.mark.parametrize("after", ["--body", "-h", "--no-log"])
def test_option_after_normal_is_not_a_value(capsys, after):
    code = cli.main(["--no-log", "section", "--body", CUBE3, "--normal", after, CUBE3])
    assert code == 1
    assert "--normal: expected one argument" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["directory", "below-a-file"])
def test_unreadable_body_path_exit_one(tmp_path, capsys, kind):
    path = tmp_path
    if kind == "below-a-file":
        (tmp_path / "body.json").write_text('{"type":"cross","dim":2}')
        path = tmp_path / "body.json" / "inner.json"
    code = cli.main(["--no-log", "volume", "--body", str(path)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and str(path) in captured.err


@pytest.mark.parametrize("dim", [17, 24])  # one past the Hanner leaf limit, and far past
@pytest.mark.parametrize("kind", ["cube", "cross"])
def test_oversized_cube_and_cross_exit_one_fast(capsys, kind, dim):
    start = time.perf_counter()
    code = cli.main(["--no-log", "volume", "--method", "mc",
                     "--body", json.dumps({"type": kind, "dim": dim})])
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert f"{dim} leaves" in capsys.readouterr().err


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


@pytest.mark.parametrize("body, message", [
    ('{"type":"linimg","body":{"type":"cube","dim":3},"matrix":[[1,0,0],[0,1,0]]}',
     "dimension 3 needs a 3 x 3 matrix, got rows of [3, 3] entries"),
    ('{"type":"linimg","body":{"type":"lp_ball","p":3,"dim":3},"matrix":[[1,0,0],[0,1,0]]}',
     "dimension 3 needs a 3 x 3 matrix, got rows of [3, 3] entries"),
    ('{"type":"linimg","body":{"type":"cube","dim":2},"matrix":[[1,0,0],[0,1,0]]}',
     "dimension 2 needs a 2 x 2 matrix, got rows of [3, 3] entries"),
    ('{"type":"linimg","body":{"type":"cube","dim":2},"matrix":[[1,"x"],[0,1]]}',
     "matrix entries must be numbers: could not convert string to float: 'x'"),
    ('{"type":"linimg","body":{"type":"lp_ball","p":3,"dim":2},"matrix":[[1,"x"],[0,1]]}',
     "matrix entries must be numbers"),
    ('{"type":"linimg","body":{"type":"cube","dim":2},"matrix":[[0.5,1],[1,2]]}',
     "singular or non-finite matrix"),
    ('{"type":"linimg","body":{"type":"cube","dim":2},"matrix":[["1/2",1],[1,2]]}',
     "singular matrix"),
    ('{"type":"linimg","body":{"type":"lp_ball","p":3,"dim":2},"matrix":[["1/2",1],[1,2]]}',
     "singular or non-finite matrix"),
    ('{"type":"linimg","body":{"type":"lp_ball","p":3,"dim":2},"matrix":[["inf",0],[0,1]]}',
     "singular or non-finite matrix"),
], ids=["cube-2x3", "lp-2x3", "cube-too-wide", "cube-x", "lp-x", "cube-float-singular",
        "cube-rational-singular", "lp-rational-singular", "lp-inf"])
def test_bad_linear_image_matrix_exit_one(capsys, body, message):
    """The matrix's shape is checked against the body's dimension for
    every body, and an entry that is not a number says so."""
    code = cli.main(["--no-log", "volume", "--body", body])
    assert code == 1
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("body, message", [
    ('{"type":"slice_numeric","body":%s}' % LP3, "lacks field(s) basis"),
    ('{"type":"slice_numeric","body":%s,"basis":5}' % LP3, "'basis' must be a non-empty list"),
    ('{"type":"slice_numeric","body":%s,"basis":[[1,0],[0,"x"],[0,0]]}' % LP3,
     "'basis' entries must be numbers"),
    ('{"type":"slice_numeric","body":%s,"basis":[[1,0],[0,1e400],[0,0]]}' % LP3,
     "'basis' entries must be finite"),
    ('{"type":"slice_numeric","body":%s,"basis":[[1,0],[0,%d],[0,0]]}' % (LP3, 10**400),
     "'basis' entries must be numbers"),
    ('{"type":"slice_numeric","body":%s,"basis":[[1,0,0],[0,1,0]]}' % LP3,
     "must be a full-rank 3 x 2 or 3 x 3 matrix, got 2 x 3"),
    ('{"type":"slice_numeric","body":%s,"basis":[[1],[0],[0]]}' % LP3,
     "must be a full-rank 3 x 2 or 3 x 3 matrix, got 3 x 1"),
    ('{"type":"slice_numeric","body":%s,"basis":[[1,1],[0,0],[0,0]]}' % LP3, "full-rank"),
    ('{"type":"image_numeric","body":%s,"matrix":[[1,0],[0,1],[0,0]]}' % LP3,
     "must be a full-rank 2 x 3 or 3 x 3 matrix, got 3 x 2"),
    ('{"type":"image_numeric","body":%s,"matrix":[[1,0,0],[0,1,0],[0,0,0]]}' % LP3,
     "full-rank"),
    ('{"type":"image_numeric","body":{"type":"nope"},"matrix":[[1]]}', "unknown body type"),
], ids=["no-basis", "basis-5", "basis-x", "basis-inf", "basis-overflow", "basis-wide",
        "basis-thin", "basis-rank", "image-tall", "image-singular", "image-child"])
def test_bad_numeric_body_exit_one(capsys, body, message):
    """The float cuts and images that ``describe`` writes are read back as
    any body is: a malformed one exits 1 with a message."""
    code = cli.main(["--no-log", "volume", "--method", "mc", "--samples", "100",
                     "--body", body])
    assert code == 1
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def test_linear_image_takes_rational_strings_for_every_body(capsys):
    """Entries that parse as rationals give the exact image of a polytope
    and the float image of an l_p ball, as a cut's normal does."""
    for body, exact in (('{"type":"cube","dim":2}', True),
                        ('{"type":"lp_ball","p":3,"dim":2}', False)):
        image = B.parse_body('{"type":"linimg","body":%s,"matrix":[["1/2",0],[0,2]]}' % body)
        assert isinstance(image, B.PolytopeBody) == exact
        if exact:
            assert image.volume_exact() == 4
        else:
            assert image.M.tolist() == [[0.5, 0.0], [0.0, 2.0]]


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


@pytest.mark.parametrize("body, normal", [
    ('{"type":"cube","dim":3}', "1,1e400,1"),
    ('{"type":"lp_ball","p":2,"dim":3}', "1,1e400,1"),
    # |u| overflows to inf, so u/|u| would be 0 and the frame span(e_1, e_3)
    ('{"type":"lp_ball","p":3,"dim":3}', "1,1e308,1e308"),
    # |u|^2 underflows to 0
    ('{"type":"cube","dim":3}', "1e-200,1e-200,0.0"),
    # an exact integer entry that no float holds, on a body cut in floats
    pytest.param('{"type":"lp_ball","p":3,"dim":3}', "1" + "0" * 400 + ",1,1",
                 id="lp3-integer-10^400"),
])
@pytest.mark.parametrize("command", ["section", "project"])
def test_non_finite_normal_exit_one(capsys, command, body, normal):
    code = cli.main(["--no-log", command, "--body", body, "--normal", normal])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "finite" in captured.err


@pytest.mark.parametrize("argv, message", [
    (["capacity", "--body", '{"type":"product","body":{"type":"cube","dim":2}}',
      "--points", "8", "--starts", "0"], "starts must be >= 1"),
    (["embed", "--copies", "0", "--samples", "10"], "copies and samples must be >= 1"),
    (["verify", "--suite", "embedding", "--samples", "0"],
     "copies and samples must be >= 1"),
    # the n = 1 case would cut a 1-dimensional body
    (["verify", "--suite", "sections-hanner", "--n", "1", "--trials", "1"],
     "hyperplane_section needs dim >= 2"),
])
def test_bad_size_exit_one(capsys, argv, message):
    code = cli.main(["--no-log"] + argv)
    assert code == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("max_iters", ["0", "-3"])
def test_capacity_without_descent_steps_exit_one(capsys, max_iters):
    # no descent step would refine the start value
    code = cli.main(["--no-log", "capacity", "--body", '{"type":"cube","dim":2}',
                     "--points", "8", "--starts", "2", "--max-iters", max_iters])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "max_iters must be >= 1" in captured.err


@pytest.mark.parametrize("body", [
    '{"type":"section","body":{"type":"lp_ball","p":3,"dim":3},"normal":[1,2,3]}',
])
def test_capacity_without_support_witness_exit_one(capsys, body):
    code = cli.main(["--no-log", "capacity", "--body", body, "--points", "8",
                     "--starts", "2", "--max-iters", "5"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "has no support witness" in captured.err


@pytest.mark.parametrize("factor", ["nan", "-1", "0", "inf"])
def test_embed_bad_radius_exit_one(capsys, factor):
    code = cli.main(["--no-log", "embed", "--copies", "1", "--samples", "3",
                     "--radius-factor", factor])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "radius must be finite and positive" in captured.err


@pytest.mark.parametrize("normal", ["1.5", "1"])
@pytest.mark.parametrize("command", ["section", "project"])
def test_one_dimensional_cut_exit_one(capsys, command, normal):
    code = cli.main(["--no-log", command, "--body", '{"type":"cube","dim":1}',
                     "--normal", normal])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"hyperplane_{command}" in captured.err and "needs dim >= 2" in captured.err


@pytest.mark.parametrize("command", ["section", "project"])
def test_overflowing_normal_warns_nothing(capsys, command):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(["--no-log", command, "--body", '{"type":"lp_ball","p":3,"dim":3}',
                         "--normal", "1,1e308,1e308"])
    assert code == 1
    assert [str(w.message) for w in caught] == []
    assert "finite" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# fuzzing: no argv ends in a traceback

NUMBERS = ["0", "1", "-1", "2", "3", "2/3", "0.5", "-0.05", "1e-320", "1e308",
           "1e400", "-1e400", "nan", "inf", "1/0", "x", ""]
EVEN_BODIES = [
    '{"type":"product","body":{"type":"cube","dim":2}}',
    '{"type":"product","body":{"type":"cross","dim":2}}',
    '{"type":"product","body":{"type":"lp_ball","p":3,"dim":2}}',
    '{"type":"lp_ball","p":2,"dim":4}',
]
BODIES = EVEN_BODIES + [
    '{"type":"cube","dim":3}', '{"type":"cross","dim":3}', '{"type":"cube","dim":2}',
    '{"type":"lp_ball","p":3,"dim":3}', '{"type":"lp_ball","p":1.5,"dim":2}',
    '{"type":"hanner","expr":"X(S, L(S, S))"}',
    '{"type":"vpoly","vertices":[[1,0],[-1,0],[0,1],[0,-1]]}',
    '{"type":"hpoly","A":[[1,0],[-1,0]],"b":[1,1]}',
    '{"type":"vpoly","vertices":[[1,0],[-1,0]]}',
    '{"type":"cube"}', '{"type":"cube","dim":0}', '{"type":"nope"}', "{", "[1]",
    '{"type":"lp_ball","p":0.5,"dim":3}', '{"type":"hpoly","A":5,"b":[1]}',
    '{"type":"product","body":{"type":"lp_ball","p":3,"dim":2},"dual":{"type":"cube","dim":2}}',
    '{"type":"polar","body":{"type":"product","body":{"type":"lp_ball","p":3,"dim":2}}}',
    '{"type":"section","body":{"type":"lp_ball","p":3,"dim":3},"normal":[1,2,3]}',
]
LP_BODY = st.builds(
    lambda p, dim, product: json.dumps(
        {"type": "product", "body": {"type": "lp_ball", "p": p, "dim": dim}}
        if product else {"type": "lp_ball", "p": p, "dim": dim}),
    st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from([1.0, 1.5, 3.0]),
    st.integers(-1, 3), st.booleans())


def _opt(flag, values):
    return st.one_of(st.just([]), st.sampled_from(values).map(lambda v: [flag, v]))


NUMBER = st.sampled_from(NUMBERS)
BODY = st.sampled_from(BODIES) | LP_BODY
NORMAL = st.lists(NUMBER, max_size=4).map(",".join)
SMALL = ["0", "1", "2", "-1", "x"]
CUT = st.tuples(st.sampled_from(["section", "project"]), BODY, NORMAL).map(
    lambda t: [t[0], "--body", t[1], "--normal", t[2]])
VOLUME = BODY.map(lambda b: ["volume", "--method", "exact", "--body", b])
CAPACITY = st.tuples(
    st.sampled_from(EVEN_BODIES) | BODY, st.sampled_from(["4", "6", "8", "3", "0", "-2", "x"]),
    st.sampled_from(SMALL), st.sampled_from(["0", "5", "20", "-1"]),
    st.lists(st.sampled_from(["--symmetric", "--no-loop"]), unique=True),
    _opt("--seed", ["0", "3", "x"]),
).map(lambda t: ["capacity", "--body", t[0], "--points", t[1], "--starts", t[2],
                 "--max-iters", t[3]] + t[4] + t[5])
CROFTON = st.tuples(
    st.sampled_from(["1", "3", "8", "0", "-1"]), _opt("--epsilon", NUMBERS),
    _opt("--g", ["q2^3", "q1^3", "q1*p2*q2", "q2^2", "p1^3", "1e-1*q2^3", "", "q2^",
                 "q9^3", "1e400*q2^3"]),
    _opt("--radius", NUMBERS), _opt("--seed", ["0", "5"]),
).map(lambda t: ["crofton", "--samples", t[0]] + t[1] + t[2] + t[3] + t[4])
SAMPLES = ["200", "1", "0", "-3", "x"]
MAHLER = st.tuples(BODY, st.sampled_from(SAMPLES), _opt("--seed", ["0", "4"])).map(
    lambda t: ["mahler", "--body", t[0], "--samples", t[1]] + t[2])
REDUCE = st.tuples(
    st.sampled_from(EVEN_BODIES) | BODY, st.lists(NORMAL, min_size=1, max_size=2),
).map(lambda t: ["reduce", "--body", t[0]] + [f"--normal={u}" for u in t[1]])
EMBED = st.tuples(
    st.sampled_from(["1", "3", "0", "-2"]), st.sampled_from(SMALL),
    _opt("--alpha", ["2", "1.5", "1", "0.5", "nan", "inf"]),
    _opt("--nexp", ["1", "2", "0", "-1"]),
    _opt("--radius-factor", ["0.5", "1", "2", "nan", "-1"]),
).map(lambda t: ["embed", "--samples", t[0], "--copies", t[1]] + t[2] + t[3] + t[4])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(CUT, VOLUME, CAPACITY, CROFTON, EMBED, MAHLER, REDUCE))
def test_cli_fuzz_exit_codes(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        code = cli.main(["--no-log"] + argv)
    assert code in (0, 1, 2), (argv, code)
    if code == 1:
        assert err.getvalue().strip(), argv
