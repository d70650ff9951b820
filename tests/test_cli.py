import contextlib
import io
import json
import math
import subprocess
import sys

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
        ["inertia", "--matrix", "[[1,2],[2,1]]", "--tolerance", '{"rel_zero": "x"}'],
        ["inertia", "--matrix", "[[1,2],[2,1]]", "--tolerance", '{"rel_zero": null}'],
        ["inertia", "--matrix", "[[1,2],[2,1]]", "--tolerance", '{"eig_convergence": 1e-13}'],
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
    ],
)
def test_malformed_partitions_nodes_and_bool_counts_are_config_errors(argv):
    code, out, err = run_cli(argv)
    assert code == 2
    assert out == ""
    assert "inertia-lab: error:" in err


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
    monkeypatch.setattr("inertia_lab.linalg.MAX_SWEEPS", 0)
    code, out, err = run_cli(["inertia", "--matrix", "[[1,2],[2,1]]"])
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


def test_pontryagin_rejects_cap_below_negativity():
    code, out, err = run_cli(["pontryagin", "factor", "--matrix", "[[-1,0],[0,-1]]", "--k", "1"])
    assert code == 2


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
