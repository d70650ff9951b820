import contextlib
import hashlib
import io
import json
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from inertia_lab import cli, linalg
from inertia_lab.cli import main
from inertia_lab.constructions import pencil_base
from inertia_lab.linalg import SymMatrix


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:  # argparse errors
        code = exc.code
    return code, out.getvalue(), err.getvalue()


HOMOTHETY_3D = '{"type":"homothety","c":1.0,"slot":1,"arity":3}'

VERIFY_SPEC = {
    "theorem": "exact",
    "fn": {"type": "homothety", "c": 2.0, "slot": 1, "arity": 1},
    "config": {
        "domain": {"kind": "two_sided", "rho": 1.0},
        "k": [1],
        "l": 1,
        "trials": 20,
        "seed": 3,
    },
}


def test_inertia_compact_output():
    code, out, err = run_cli(["inertia", "--matrix", "[[1,2],[2,1]]"])
    assert code == 0
    assert out == '{"neg":1,"zero":0,"pos":1}\n'


def test_inertia_with_eigenvalues_runs_one_eigensolve(monkeypatch):
    solves = []
    real = linalg.eig_sym

    def spy(*args, **kwargs):
        solves.append(args[0].n)
        return real(*args, **kwargs)

    monkeypatch.setattr(linalg, "eig_sym", spy)
    monkeypatch.setattr(cli, "eig_sym", spy)
    code, out, err = run_cli(["inertia", "--eigenvalues", "--matrix", "[[1,2],[2,1]]"])
    assert code == 0
    assert out == '{"neg":1,"zero":0,"pos":1,"eigenvalues":[-1.0,3.0]}\n'
    assert solves == [2]


@pytest.mark.parametrize("top", [1.7e308, -1.7e308, np.finfo(float).max])
def test_inertia_of_entries_whose_pair_sums_overflow(top):
    # a + a^T overflows here; the eigenvalues are 1 - |top| and 1 + |top|
    matrix = json.dumps([[1.0, top], [top, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run_cli(["inertia", "--eigenvalues", "--matrix", matrix])
    assert code == 0, err
    rep = json.loads(out)
    assert (rep["neg"], rep["zero"], rep["pos"]) == (1, 0, 1)
    assert [np.sign(x) for x in rep["eigenvalues"]] == [-1.0, 1.0]
    assert rep["eigenvalues"][1] == pytest.approx(abs(top))


# the eigenvalues are -1.7e308 * sqrt(2) and +1.7e308 * sqrt(2)
BEYOND_THE_DOUBLES = "[[1.7e308,1.7e308],[1.7e308,-1.7e308]]"


def test_an_eigenvalue_beyond_the_largest_double_still_counts():
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run_cli(["inertia", "--matrix", BEYOND_THE_DOUBLES])
        lam, _ = linalg.eig_sym(SymMatrix(json.loads(BEYOND_THE_DOUBLES)))
    assert (code, out, err) == (0, '{"neg":1,"zero":0,"pos":1}\n', "")
    assert lam.tolist() == [-np.inf, np.inf]


@pytest.mark.parametrize(
    "argv", [["inertia", "--eigenvalues"], ["pontryagin", "factor", "--k", "1"]]
)
def test_a_spectrum_beyond_the_largest_double_is_refused_where_it_is_used(argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run_cli(argv + ["--matrix", BEYOND_THE_DOUBLES])
    assert (code, out) == (2, "")
    assert "an eigenvalue is beyond the largest double" in err


def test_an_asymmetry_beyond_the_largest_double_is_refused_without_a_warning():
    # a - a^T overflows to inf, which passes any tolerance
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run_cli(["inertia", "--matrix", "[[1.0,1.7e308],[-1.7e308,1.0]]"])
    assert (code, out) == (3, "")
    assert "asymmetric" in err


CUBE_AT_1E150 = {
    "fn": {"type": "series", "arity": 1, "terms": [{"alpha": [3], "coeff": 1.0}]},
    "config": {"domain": {"kind": "closed_left", "rho": 1e150}, "k": [0], "l": 0, "trials": 5},
}


@pytest.mark.parametrize(
    "argv",
    [
        ["apply", "--fn", json.dumps(CUBE_AT_1E150["fn"]), "--matrix", "[[1e150,0],[0,1]]"],
        ["verify", json.dumps({"theorem": "bounded", **CUBE_AT_1E150})],
        ["falsify", "--strategy", "random", json.dumps({"theorem": "exact", **CUBE_AT_1E150})],
        ["construct", "ones-spike", "--k", "255", "--delta", "1", "--epsilon", "1e308"],
        ["construct", "two-by-two", "--t0", "1e308"],
        ["construct", "vandermonde", "--k", "3", "--t0", "1e308"],
        ["construct", "embed", "--a", "1e308", "--b", "1.7e308", "--k", "1", "--epsilon", "1.7e308",
         "--block", "[[1.7e308]]"],
    ],
    ids=["apply", "verify", "falsify", "ones-spike", "two-by-two", "vandermonde", "embed"],
)
def test_an_overflowing_matrix_is_refused_without_a_warning(argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run_cli(argv)
    assert (code, out) == (2, "")
    assert err == "inertia-lab: error: matrix entries must be finite\n"


def test_asymmetry_is_judged_relative_to_the_entries():
    code, out, err = run_cli(["inertia", "--matrix", "[[1e-13,2e-13],[3e-13,1e-13]]"])
    assert code == 3
    assert "asymmetric" in err
    code, out, err = run_cli(["inertia", "--matrix", "[[1e-13,2e-13],[2e-13,1e-13]]"])
    assert code == 0
    assert out == '{"neg":1,"zero":0,"pos":1}\n'


def test_inertia_rejects_asymmetric_matrix():
    code, out, err = run_cli(["inertia", "--matrix", "[[1,2],[3,4]]"])
    assert code == 3
    assert "asymmetric" in err


def test_malformed_json_argument():
    code, out, err = run_cli(["inertia", "--matrix", "not json"])
    assert code == 2
    assert "malformed JSON" in err


def test_unknown_subcommand_is_usage_error():
    code, out, err = run_cli(["warp"])
    assert code == 2


def test_apply_reports_image_inertia():
    code, out, err = run_cli(
        [
            "apply",
            "--fn",
            '{"type":"affine","offset":1.0,"c":1.0,"slot":1,"arity":1}',
            "--matrix",
            "[[-0.5,0],[0,-0.5]]",
        ]
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["inertia"] == {"neg": 1, "zero": 0, "pos": 1}
    assert rep["matrix"]["rows"] == [[0.5, 1.0], [1.0, 0.5]]


def test_apply_flags_domain_violations():
    code, out, err = run_cli(
        [
            "apply",
            "--fn",
            '{"type":"homothety","c":1.0,"slot":1,"arity":1}',
            "--matrix",
            "[[2.0]]",
            "--domain",
            '{"kind":"two_sided","rho":1.0}',
        ]
    )
    assert code == 4
    assert "domain" in err.lower() or "entry" in err.lower()


@pytest.mark.parametrize(
    "argv",
    [
        ["apply", "--fn", '{"type":"constant","value":"x"}', "--matrix", "[[1.0]]"],
        [
            "apply",
            "--fn",
            '{"type":"series","arity":1,"terms":[{"alpha":[1],"coeff":"x"}]}',
            "--matrix",
            "[[1.0]]",
        ],
    ],
)
def test_non_numeric_json_values_are_config_errors(argv):
    code, out, err = run_cli(argv)
    assert code == 2
    assert out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "inflate", "--matrix", "[[1.0, 2.0], [2.0, 1.0]]", "--partition", "[[0,1],2]"],
        ["construct", "inflate", "--matrix", "[[1.0]]", "--partition", "[0,1]"],
        ["construct", "weight", "--n", "3", "--partition", "[[0,1],2]"],
        ["construct", "weight", "--n", "2", "--partition", "[0,1]"],
        ["construct", "vandermonde", "--k", "2", "--t0", "1", "--nodes", '["x",1,2]'],
        ["construct", "vandermonde", "--k", "2", "--t0", "1", "--nodes", '{"a":1}'],
        ["construct", "vandermonde", "--k", "2", "--t0", "1", "--nodes", "3"],
        ["verify", json.dumps(dict(VERIFY_SPEC, config=dict(VERIFY_SPEC["config"], trials=True)))],
        ["construct", "vandermonde", "--k", "2", "--t0", "1", "--nodes", '["0.1", 0.5, 0.9]'],
        ["apply", "--fn", '{"type":"homothety","c":1,"arity":true}', "--matrix", "[[1.0]]"],
        ["apply", "--fn", '{"type":"homothety","c":2,"slot":true,"arity":1}', "--matrix", "[[1.0]]"],
        [
            "apply",
            "--fn",
            '{"type":"series","arity":1,"degree":true,"terms":[{"alpha":[1],"coeff":1.0}]}',
            "--matrix",
            "[[1.0]]",
        ],
        [
            "verify",
            json.dumps(
                dict(VERIFY_SPEC, config=dict(VERIFY_SPEC["config"], domain={"kind": "two_sided", "rho": True}))
            ),
        ],
        ["inertia", "--matrix", '{"n": true, "rows": [[1.0]]}'],
        ["apply", "--fn", '{"type":"homothety","c":true,"slot":1,"arity":1}', "--matrix", "[[1.0]]"],
        ["apply", "--fn", '{"type":"homothety","c":"2.5","slot":1,"arity":1}', "--matrix", "[[1.0]]"],
        ["apply", "--fn", '{"type":"constant","value":"3","arity":1}', "--matrix", "[[1.0]]"],
        [
            "apply",
            "--fn",
            '{"type":"series","arity":1,"terms":[{"alpha":[1],"coeff":true}]}',
            "--matrix",
            "[[1.0]]",
        ],
        [
            "apply",
            "--fn",
            '{"type":"affine","offset":false,"c":1.0,"slot":1,"arity":1}',
            "--matrix",
            "[[1.0]]",
        ],
        [
            "apply",
            "--fn",
            '{"type":"homothety","c":1.0,"slot":1,"arity":1}',
            "--matrix",
            "[[0.1]]",
            "--domain",
            '{"kind":"two_sided","rho":"0.5"}',
        ],
        ["inertia", "--matrix", '[["2", true], [true, "-1"]]'],
        [
            "construct", "embed", "--a", "0.1", "--b", "0.5", "--k", "1", "--epsilon", "0",
            "--block", "[[true]]",
        ],
        # step * 2^-1099 underflows to 0 (and at 1069 the two smallest points coincide)
        ["absmon", "limit", "--fn", "exp", "--levels", "1100"],
        ["absmon", "limit", "--fn", "exp", "--levels", "1069"],
        # an int beyond the double range (numpy raised OverflowError: exit 1)
        ["inertia", "--matrix", "[[1" + "0" * 400 + "]]"],
        ["apply", "--fn", '{"type":"homothety","c":1.0}', "--matrix", "[[0.1]]",
         "--domain", '{"kind":"two_sided","rho":Infinity}'],
        # a size built from a count, just above N_MAX = 256 (10^8 once asked numpy for PiB)
        ["construct", "lift", "--matrix", "[[1.0]]", "--size", "257"],
        ["construct", "ones-pencil", "--k", "86", "--t", "2.0"],
        ["construct", "equicorrelation", "--k", "256", "--a", "0.1", "--b", "0.5"],
        ["construct", "ones-spike", "--k", "256", "--delta", "1.0", "--epsilon", "0.1"],
        ["construct", "basis", "--size", "257"],
        ["construct", "vandermonde", "--k", "129", "--t0", "1.0"],
        ["construct", "weight", "--partition", "[[0]]", "--n", "257"],
        ["construct", "replicated", "--matrix", "[[1.0]]", "--k", "1", "--l", "254", "--t0", "1.0"],
        # (step/2)^b underflows to 0 from b = 99 at the default step (ZeroDivisionError)
        ["absmon", "maclaurin", "--fn", "exp", "--order", "120"],
        ["absmon", "maclaurin", "--fn", "exp", "--order", "99"],
        # 0.001^b underflows to 0 at b = 108; the Newton matrix would take 74.5 GiB
        ["absmon", "maclaurin", "--fn", "exp", "--order", "100000"],
        # b! * 1^b overflows at b = 171
        ["absmon", "maclaurin", "--fn", "exp", "--order", "171", "--step", "1.0"],
        # every divisor is normal, but the expansion overflows to inf (JSON ValueError)
        ["absmon", "maclaurin", "--fn", "exp", "--order", "170", "--step", "1.0"],
        # (order + 1)^arity lattice points: 59^3 = 205379 passes the cap of 200000
        ["absmon", "maclaurin", "--fn", HOMOTHETY_3D, "--order", "58"],
        ["absmon", "maclaurin", "--fn", '{"type":"homothety","c":1.0,"slot":1,"arity":1000000}', "--order", "1"],
        # one lattice point, but one array axis per variable: numpy refuses 70 (ValueError)
        ["absmon", "maclaurin", "--fn", '{"type":"homothety","c":1.0,"slot":1,"arity":70}', "--order", "0"],
        # (hi - lo) / step overflows to inf, which has no int (OverflowError: exit 1)
        ["absmon", "check", "--fn", "exp", "--box", "0:1", "--step", "5e-324"],
        ["absmon", "check", "--fn", "exp", "--box=0:1e308", "--step", "1e-10"],
        ["absmon", "check", "--fn", "exp", "--box=-1e308:1e308", "--step", "1"],
        # an unhashable "type" (TypeError: exit 1)
        ["apply", "--fn", '{"type":["series"]}', "--matrix", "[[1]]"],
        ["apply", "--fn", '{"type":{"series":1}}', "--matrix", "[[1]]"],
    ],
)
def test_malformed_partitions_nodes_and_bool_counts_are_config_errors(argv):
    code, out, err = run_cli(argv)
    assert code == 2
    assert out == ""
    assert "inertia-lab: error:" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "lift", "--matrix", "[[1.0]]", "--size", "256"],
        ["construct", "ones-pencil", "--k", "85", "--t", "2.0"],
        ["construct", "equicorrelation", "--k", "255", "--a", "0.1", "--b", "0.5"],
        ["construct", "vandermonde", "--k", "128", "--t0", "1.0"],
        ["construct", "replicated", "--matrix", "[[1.0]]", "--k", "1", "--l", "253", "--t0", "1.0"],
        ["absmon", "maclaurin", "--fn", "exp", "--order", "98"],
    ],
)
def test_sizes_and_orders_at_the_caps_are_accepted(argv):
    code, out, err = run_cli(argv)
    assert code == 0, err
    rep = json.loads(out)
    assert rep.get("order") == 98 or len(rep["matrix"]["rows"]) in (255, 256)


def test_a_recipe_sized_from_l_beyond_the_cap_falls_through_to_random_search():
    spec = {
        "theorem": "bounded",
        "fn": {"type": "series", "arity": 1, "terms": [{"alpha": [1], "coeff": 1.0}, {"alpha": [2], "coeff": -0.5}]},
        "config": {"k": [0], "l": 100000, "trials": 10},
    }
    code, out, err = run_cli(["falsify", json.dumps(spec)])
    assert code == 1
    assert json.loads(out)["label"] == "no witness found: 0 recipe candidates and 10 random trials exhausted"


@pytest.mark.parametrize("key,value", [("out_csv", 7), ("out_json", ["x"]), ("out_json", "")])
def test_report_paths_are_checked_before_the_run(monkeypatch, key, value):
    def no_run(*args, **kwargs):
        raise AssertionError("the run started")

    monkeypatch.setattr("inertia_lab.cli.verify_forward", no_run)
    code, out, err = run_cli(["verify", json.dumps(dict(VERIFY_SPEC, **{key: value}))])
    assert code == 2
    assert out == ""
    assert key in err


def test_null_report_paths_mean_no_file_and_flags_override_the_config(tmp_path):
    code, out, err = run_cli(["verify", json.dumps(dict(VERIFY_SPEC, out_json=None, out_csv=None))])
    assert code == 0
    oj = tmp_path / "report.json"
    code, out, err = run_cli(
        ["verify", json.dumps(dict(VERIFY_SPEC, out_json=7)), "--out-json", str(oj)]
    )
    assert code == 0
    assert json.loads(oj.read_text())["trials"] == 20


@pytest.mark.parametrize("rho", [1e160, 1e-170])
def test_verify_refuses_a_radius_outside_the_counted_range(rho):
    # squares of entries near rho would overflow or underflow, so the sampled
    # slots could no longer be trusted to carry the inertia they were built with
    config = dict(VERIFY_SPEC["config"], domain={"kind": "two_sided", "rho": rho})
    code, out, err = run_cli(["verify", json.dumps(dict(VERIFY_SPEC, config=config))])
    assert code == 2
    assert out == ""
    assert "rho" in err


def test_eigensolve_that_does_not_converge_exits_one(monkeypatch):
    # a 2x2 block is solved in closed form; tridiag(1, 2, 1) needs QL iterations
    monkeypatch.setattr("inertia_lab.linalg.MAX_QL_ITERATIONS", 0)
    code, out, err = run_cli(["inertia", "--matrix", "[[2,1,0],[1,2,1],[0,1,2]]"])
    assert code == 1
    assert "did not converge" in err


def test_construct_pencil_base_round_trips():
    code, out, err = run_cli(["construct", "pencil-base"])
    assert code == 0
    rep = json.loads(out)
    m = SymMatrix.from_json_dict(rep["matrix"])
    assert m == pencil_base()
    assert rep["inertia"] == {"neg": 1, "zero": 0, "pos": 2}


def test_construct_equicorrelation_spectrum_in_report():
    code, out, err = run_cli(
        ["construct", "equicorrelation", "--k", "2", "--a", "1.0", "--b", "3.0"]
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["inertia"] == {"neg": 2, "zero": 0, "pos": 1}
    assert rep["matrix"]["rows"][0] == [1.0, 3.0, 3.0]


def test_construct_two_by_two_pair():
    code, out, err = run_cli(["construct", "two-by-two", "--t0", "1.0"])
    assert code == 0
    rep = json.loads(out)
    a = np.array(rep["a"]["rows"])
    b = np.array(rep["b"]["rows"])
    assert np.array_equal(b - a, np.ones((2, 2)))


def test_construct_basis_rows_are_orthogonal():
    code, out, err = run_cli(["construct", "basis", "--size", "4"])
    assert code == 0
    rows = np.array(json.loads(out)["rows"])
    gram = rows @ rows.T
    assert np.allclose(gram - np.diag(np.diag(gram)), 0.0, atol=1e-12)


def test_construct_rejects_bad_parameters():
    code, out, err = run_cli(
        ["construct", "equicorrelation", "--k", "2", "--a", "3.0", "--b", "1.0"]
    )
    assert code == 2


def test_verify_passing_claim_exits_zero():
    code, out, err = run_cli(["verify", json.dumps(VERIFY_SPEC)])
    assert code == 0
    rep = json.loads(out)
    assert rep["theorem"] == "exact"
    assert rep["failures"] == 0
    assert rep["trials"] == 20
    assert "runtime_ms" not in rep
    assert "pass" in rep["label"]
    assert "verify exact" in err


def test_verify_vacuous_claim_exits_one():
    spec = dict(
        VERIFY_SPEC,
        fn={"type": "series", "arity": 1, "degree": 2, "terms": [{"alpha": [2], "coeff": 2.0}]},
    )
    code, out, err = run_cli(["verify", json.dumps(spec)])
    assert code == 1
    assert "vacuous" in json.loads(out)["label"]


def test_falsify_conforming_function_exits_one():
    spec = dict(VERIFY_SPEC, strategy="auto")
    code, out, err = run_cli(["falsify", json.dumps(spec)])
    assert code == 1
    assert "conforms" in json.loads(out)["label"]


def test_falsify_offset_function_finds_witness():
    spec = dict(VERIFY_SPEC, fn={"type": "affine", "offset": 1.0, "c": 1.0, "slot": 1, "arity": 1})
    code, out, err = run_cli(["falsify", json.dumps(spec)])
    assert code == 0
    rep = json.loads(out)
    assert rep["failures"] >= 1
    assert rep["witnesses"][0]["clause"] == "nonzero-offset"


def test_suite_exits_zero_and_reports_batches():
    spec = {"config": dict(VERIFY_SPEC["config"], trials=5)}
    code, out, err = run_cli(["suite", json.dumps(spec)])
    assert code == 0
    label = json.loads(out)["label"]
    for name in (
        "block-identity",
        "rank-one-perturbation",
        "inflation",
        "pinned-negatives",
        "pencil-counts",
    ):
        assert f"{name}: 5/5 ok" in label


@pytest.mark.parametrize(
    "argv",
    [
        ["inertia", "--matrix", "[[1,2],[2,1]]"],
        ["apply", "--fn", '{"type":"homothety","c":1.0,"slot":1,"arity":1}', "--matrix", "[[1.0]]"],
        ["pontryagin", "factor", "--matrix", "[[1,2],[2,1]]", "--k", "1"],
        ["pontryagin", "profile", "--matrix", "[[1,2],[2,1]]"],
    ],
)
def test_the_zero_rule_is_not_a_flag(argv):
    assert run_cli(argv)[0] == 0
    code, out, err = run_cli(argv + ["--tolerance", '{"rel_zero": 1e-9}'])
    assert code == 2
    assert out == ""


def test_the_zero_rule_is_not_a_config_key():
    config = dict(VERIFY_SPEC["config"], tolerance={"rel_zero": 1e-9})
    code, out, err = run_cli(["verify", json.dumps(dict(VERIFY_SPEC, config=config))])
    assert code == 2
    assert out == ""
    assert "unknown config keys" in err


@pytest.mark.parametrize("command", ["verify", "falsify", "suite"])
def test_report_config_carries_exactly_the_run_settings(command):
    spec = {"config": dict(VERIFY_SPEC["config"], trials=2)}
    if command != "suite":
        spec.update(theorem=VERIFY_SPEC["theorem"], fn=VERIFY_SPEC["fn"])
    code, out, err = run_cli([command, json.dumps(spec)])
    assert code in (0, 1)
    assert set(json.loads(out)["config"]) == {"fn", "domain", "k", "l", "n_range", "trials", "seed"}


def test_run_spec_rejects_unknown_keys():
    spec = dict(VERIFY_SPEC, bogus=1)
    code, out, err = run_cli(["verify", json.dumps(spec)])
    assert code == 2
    assert "bogus" in err


def test_run_spec_from_file(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(VERIFY_SPEC))
    code, out, err = run_cli(["verify", f"@{path}"])
    assert code == 0


def test_out_json_and_csv_files(tmp_path):
    oj = tmp_path / "report.json"
    oc = tmp_path / "report.csv"
    code, out, err = run_cli(
        ["verify", json.dumps(VERIFY_SPEC), "--out-json", str(oj), "--out-csv", str(oc)]
    )
    assert code == 0
    rep = json.loads(oj.read_text())
    assert rep["trials"] == 20
    lines = oc.read_text().splitlines()
    assert lines[0] == "theorem,mode,trials,failures,witnesses,label,runtime_ms"
    assert lines[1].startswith("exact,verify,20,0,0,")


def test_report_files_identical_across_thread_counts(tmp_path):
    blobs = []
    for threads in ("1", "8"):
        path = tmp_path / f"rep{threads}.json"
        code, out, err = run_cli(
            ["verify", json.dumps(VERIFY_SPEC), "--threads", threads, "--out-json", str(path)]
        )
        assert code == 0
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]
    # the flag has no effect but is still checked; the run config has no threads key
    for argv in (
        ["verify", json.dumps(VERIFY_SPEC), "--threads", "0"],
        ["verify", json.dumps(dict(VERIFY_SPEC, threads=1))],
    ):
        code, out, err = run_cli(argv)
        assert code == 2
        assert out == ""
        assert "threads" in err


def test_seed_flag_overrides_config_seed():
    base = run_cli(["verify", json.dumps(VERIFY_SPEC)])[1]
    reseeded = run_cli(["verify", json.dumps(VERIFY_SPEC), "--seed", "99"])[1]
    assert json.loads(reseeded)["config"]["seed"] == 99
    assert json.loads(base)["config"]["seed"] == 3


def test_seed_environment_variable_is_ignored(monkeypatch):
    monkeypatch.setenv("INERTIA_LAB_SEED", "123")
    flagged = run_cli(["verify", json.dumps(VERIFY_SPEC), "--seed", "99"])[1]
    assert json.loads(flagged)["config"]["seed"] == 99
    plain = run_cli(["verify", json.dumps(VERIFY_SPEC)])[1]
    assert json.loads(plain)["config"]["seed"] == 3


def test_parser_is_built_once_and_survives_a_failed_parse():
    assert cli._build_parser() is cli._build_parser()
    code, out, err = run_cli(["verify", json.dumps(VERIFY_SPEC), "--seed", "x"])
    assert code == 2
    first = run_cli(["verify", json.dumps(VERIFY_SPEC)])
    second = run_cli(["verify", json.dumps(VERIFY_SPEC)])
    assert first[0] == 0
    assert first[1] == second[1]


def test_pontryagin_profile_and_stabilization():
    code, out, err = run_cli(
        [
            "pontryagin",
            "profile",
            "--matrix",
            "[[0,1,1,1],[1,0,1,1],[1,1,0,1],[1,1,1,0]]",
            "--k",
            "3",
        ]
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["profile"] == [0, 1, 2, 3]
    assert rep["stabilization"] == 4


@pytest.mark.parametrize(
    "matrix, k, want",
    [
        ("[[-1,0],[0,1e10]]", None, '{\n  "profile": [\n    1,\n    0\n  ]\n}\n'),
        (
            "[[-1,0,0],[0,-1,0],[0,0,1e10]]",
            "2",
            '{\n  "profile": [\n    1,\n    2,\n    0\n  ],\n  "stabilization": 3\n}\n',
        ),
        (
            "[[-1,0,0],[0,1e10,0],[0,0,-2e10]]",
            "2",
            '{\n  "profile": [\n    1,\n    0,\n    1\n  ],\n  "stabilization": null\n}\n',
        ),
    ],
    ids=["falls", "falls-at-the-end", "falls-and-rises"],
)
def test_pontryagin_profile_counts_each_block_against_its_own_threshold(matrix, k, want):
    # block j counts against REL_ZERO * ||A_j||_F, so a profile can fall
    argv = ["pontryagin", "profile", "--matrix", matrix] + (["--k", k] if k else [])
    assert run_cli(argv) == (0, want, "")


def test_pontryagin_factor_identity_split():
    code, out, err = run_cli(["pontryagin", "factor", "--matrix", "[[1,0],[0,-1]]", "--k", "1"])
    assert code == 0
    rep = json.loads(out)
    assert rep["signature"] == {"plus": 1, "minus": 1}
    assert rep["error"] == 0.0
    assert rep["vectors"] == [[1.0, 0.0], [0.0, 1.0]]


@pytest.mark.parametrize("scale", ["1e200", "1e-200"])
def test_pontryagin_factor_at_extreme_scales(scale):
    matrix = f"[[2{scale},1{scale}],[1{scale},-3{scale}]]"
    code, out, err = run_cli(["pontryagin", "factor", "--matrix", matrix, "--k", "1"])
    assert code == 0
    rep = json.loads(out)
    assert rep["signature"] == {"plus": 1, "minus": 1}
    assert rep["error"] < 1e-10


def _factor_input(name: str) -> np.ndarray:
    if name == "low-rank-12":
        # rank 3, one minus direction: elimination stops after three pivots.
        # The entries are small integers, so the product is exact under any BLAS.
        i, j = np.indices((12, 3))
        b = ((5 * i + 3 * j + i * j) % 7 - 3).astype(float)
        return (b * np.array([1.0, -1.0, 1.0])) @ b.T
    i, j = np.indices((int(name),) * 2)
    return ((7 * (i + j) + 3 * i * j) % 17 - 8).astype(float)


# sha256 of the stdout up to the "error" field, recorded before the
# elimination reused its scratch buffers.  Vectors and signature come from
# elementwise numpy and a Sturm count, so their bytes do not depend on the
# CPU or the BLAS; the error is measured through gram_of's @ product (see
# test_blas_free.py), so it is only bounded.
FACTOR_PINS = {
    ("5", 4): "e94f798953c499abb455c9ca141a826fe9d996e3793a3c11acf8d92c2143c390",
    ("24", 9): "91f7b695885a593b2278581c32279e06ebfbeec9ead45fef50a6a5db44e686be",
    ("63", 9): "717405bd56f93e8fdf227e60e604d0e1c1193430d7b1eefdf1140132f7848554",
    ("low-rank-12", 1): "044451efb1d8390043545fb16d552882a98247ab514d7301850636f465ba56f5",
}


@pytest.mark.parametrize("name,k", list(FACTOR_PINS))
def test_pontryagin_factor_bytes_are_pinned(name, k):
    matrix = json.dumps(_factor_input(name).tolist())
    code, out, err = run_cli(["pontryagin", "factor", "--matrix", matrix, "--k", str(k)])
    assert code == 0
    head, tail = out.split('  "error": ')
    assert hashlib.sha256(head.encode()).hexdigest() == FACTOR_PINS[name, k]
    assert float(tail.rstrip("}\n")) < 1e-14
    if name == "low-rank-12":
        assert sum(any(col) for col in zip(*json.loads(out)["vectors"])) == 3


def test_pontryagin_rejects_cap_below_negativity():
    code, out, err = run_cli(["pontryagin", "factor", "--matrix", "[[-1,0],[0,-1]]", "--k", "1"])
    assert code == 2


def test_pontryagin_factor_exits_2_on_a_near_zero_minus_pivot_above_k():
    # eigenvalues 2 and -1.5e-9: zero by the eigenvalue rule, a minus pivot by elimination
    matrix = "[[1.0, 1.0], [1.0, 0.999999997]]"
    code, out, err = run_cli(["pontryagin", "factor", "--matrix", matrix, "--k", "0"])
    assert (code, out) == (2, "")
    assert "eigenvalue -1.500e-09 counts as zero" in err
    code, out, err = run_cli(["pontryagin", "factor", "--matrix", matrix, "--k", "1"])
    assert code == 0
    assert json.loads(out)["signature"] == {"plus": 2, "minus": 1}


def test_pontryagin_factor_caps_k_at_n_max():
    # k sizes the (n, plus + k) vector array, so it is capped before anything is allocated
    code, out, err = run_cli(["pontryagin", "factor", "--matrix", "[[1,0],[0,-1]]", "--k", "100000000000"])
    assert (code, out) == (2, "")
    assert "k 100000000000 out of range 0..256" in err
    code, out, err = run_cli(["pontryagin", "factor", "--matrix", "[[1,0],[0,-1]]", "--k", "256"])
    assert code == 0
    rep = json.loads(out)
    assert rep["signature"] == {"plus": 1, "minus": 256}
    assert rep["vectors"][1][:2] == [0.0, 1.0]


def test_absmon_check_passes_for_exp():
    code, out, err = run_cli(["absmon", "check", "--fn", "exp", "--box", "0.1:0.9", "--order", "4"])
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_absmon_check_locates_sin_violation():
    code, out, err = run_cli(["absmon", "check", "--fn", "sin", "--box", "0.1:3.0", "--order", "2"])
    assert code == 1
    rep = json.loads(out)
    assert rep["pass"] is False
    assert rep["worst_violation"]["value"] < 0.0


def test_absmon_maclaurin_recovers_affine():
    code, out, err = run_cli(
        [
            "absmon",
            "maclaurin",
            "--fn",
            '{"type":"affine","offset":1.0,"c":2.0,"slot":1,"arity":1}',
            "--order",
            "2",
        ]
    )
    assert code == 0
    coeffs = {tuple(row["alpha"]): row["value"] for row in json.loads(out)["coefficients"]}
    assert abs(coeffs[(0,)] - 1.0) < 1e-10
    assert abs(coeffs[(1,)] - 2.0) < 1e-10


@pytest.mark.parametrize(
    "argv",
    [
        # np.exp(x, y) would take y as its output array and evaluate exp(x)
        ["absmon", "maclaurin", "--fn", "exp", "--order", "2", "--step", "0.05", "--arity", "2"],
        ["absmon", "check", "--fn", "sin", "--box", "0:1,0:1", "--order", "2"],
    ],
    ids=["maclaurin-arity-flag", "check-two-variable-box"],
)
def test_absmon_builtins_take_one_variable(argv):
    code, out, err = run_cli(argv)
    assert code == 2
    assert out == ""


def test_maclaurin_accepts_the_largest_lattice_under_the_cap():
    # 58^3 = 195112 lattice points; on the dyadic lattice of step 1/4 every
    # difference of f(x, y, z) = x is exact
    argv = ["absmon", "maclaurin", "--fn", HOMOTHETY_3D, "--order", "57", "--step", "0.25"]
    code, out, err = run_cli(argv)
    assert code == 0, err
    coeffs = {tuple(row["alpha"]): row["value"] for row in json.loads(out)["coefficients"]}
    assert len(coeffs) == 60 * 59 * 58 // 6
    assert coeffs.pop((1, 0, 0)) == 1.0
    assert set(coeffs.values()) == {0.0}


def test_a_huge_maclaurin_order_is_refused_before_anything_is_allocated():
    tracemalloc.start()
    try:
        code, out, err = run_cli(["absmon", "maclaurin", "--fn", "exp", "--order", "100000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (2, "")
    assert peak < 10 * 2**20


@pytest.mark.parametrize(
    "argv, message",
    [
        (["limit", "--fn", "exp", "--step", "1e308", "--levels", "3"], "near 0+"),
        (["maclaurin", "--fn", "exp", "--order", "2", "--step", "400"], "near the base point"),
        (["check", "--fn", "exp", "--box", "0:800", "--order", "2"], "on the lattice"),
        (
            [
                "check",
                "--fn",
                '{"type":"series","arity":1,"terms":[{"alpha":[2],"coeff":1.0}]}',
                "--box",
                "0:1e300",
                "--order",
                "2",
            ],
            "on the lattice",
        ),
    ],
)
def test_absmon_refuses_an_overflowing_function_without_a_warning(argv, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run_cli(["absmon"] + argv)
    assert (code, out) == (2, "")
    assert f"function returned non-finite values {message}" in err


def test_absmon_limit_extrapolates_to_zero():
    code, out, err = run_cli(["absmon", "limit", "--fn", "exp"])
    assert code == 0
    assert abs(json.loads(out)["limit"] - 1.0) < 1e-8


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "inertia_lab", "inertia", "--matrix", "[[2,0],[0,3]]"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"neg": 0, "zero": 0, "pos": 2}
