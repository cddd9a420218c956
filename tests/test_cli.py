"""Command-line contract: layering, exit codes, schemas, determinism.

Commands are driven through main(argv) in-process.  The layering tests
pin the precedence order (flag over environment over config file over
default) and the parsing of every layer by the flag's own type, the
exit-code tests pin the 0/2/3/4 mapping, and the
determinism tests require byte-identical CSV files when only the worker
count changes.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import squimld
from squimld.cli import ENV_PREFIX, main
from squimld.gecore import RateParams
from squimld.mc import SHARDS as MC_SHARDS
from squimld.parallel import available_cores, resolve_workers
from squimld.ratecurves import SCAN_DTYPE, domain_scan
from squimld.report import write_csv


def run(argv):
    return main(argv)


def read(path):
    return path.read_text()


def test_no_subcommand_is_usage_error(capsys):
    assert run([]) == 2
    capsys.readouterr()


def test_import_loads_no_scipy():
    # scipy costs most of a cold start and only the tests use it; the run
    # covers the import path and the library-only Theorem-2 classifier
    code = (
        "import sys, squimld, squimld.cli\n"
        "squimld.classify_theorem_two(2.0, 0.1)\n"
        "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))"
    )
    src = str(Path(squimld.__file__).resolve().parents[1])
    path = [src, os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120).stdout.split()
    assert not out, f"squimld loaded scipy modules: {out}"


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    out = capsys.readouterr().out
    for name in ("domain-scan", "rate-curves", "wfe", "ensemble", "esm", "validate"):
        assert name in out


@pytest.mark.parametrize("command", ["domain-scan", "rate-curves", "wfe", "ensemble", "esm",
                                     "validate"])
def test_shards_is_refused(tmp_path, capsys, command):
    # each sampler's shard count is a module constant
    out = tmp_path / "out"
    assert run([command, "--shards", "4", "--out-dir", str(out)]) == 2
    assert "unrecognized arguments: --shards" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_subcommand_is_usage_error(capsys):
    assert run(["frobnicate"]) == 2
    capsys.readouterr()


def test_esm_exact_csv(tmp_path, capsys):
    assert run(["esm", "--n", "2", "--beta", "1", "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    text = read(tmp_path / "esm.csv")
    lines = text.splitlines()
    assert lines[0] == "N,beta,logZhat,msq_dispersion"
    n, beta, logz, disp = lines[1].split(",")
    assert (n, beta) == ("2", "1")
    assert float(logz) == pytest.approx(2.0 * math.log(8.0 / 9.0), abs=1e-15)
    assert float(disp) == 1.0 / 32.0
    man = json.loads(read(tmp_path / "esm_manifest.json"))
    assert man["command"] == "esm"
    assert man["param.N"] == "2"
    assert man["output.0"] == "esm.csv"
    assert all(isinstance(v, str) for v in man.values())


ENSEMBLE_HEADER = b"model,N,beta,omega,eps,observable,mean,std_error,n_samples,seed\n"


# Literal bytes of the one- and two-row tables.  esm's cells are the closed
# forms 2 log(8/9) and 1/32 (test_esm_exact_csv); the seed cell holds the
# largest seed exactly.
@pytest.mark.parametrize("argv, name, expected", [
    pytest.param(["esm", "--n", "2", "--beta", "1"], "esm.csv",
                 b"N,beta,logZhat,msq_dispersion\n2,1,-0.23556607131276691,0.03125\n",
                 id="esm"),
    pytest.param(["wfe", "--delta", "0.8"], "wfe_transition.csv",
                 b"omega,eps,r,delta,p_star_inf,y_at_inf,beta_c,hypotheses_ok\n"
                 b"1.2,0.10000000000000001,0.16666666666666663,0.80000000000000004,"
                 b"nan,nan,nan,0\n",
                 id="wfe-hypotheses-violated"),
    pytest.param(["rate-curves", "--x-list", "0.5", "--samples", "10000",
                  "--seed", "18446744073709551615", "--workers", "1"], "rate_curve.csv",
                 b"x,I1,I2,accepted_G,samples,seed\n"
                 b"0.5,0.13128101081181454,0.13660647428994865,3238,10000,"
                 b"18446744073709551615\n",
                 id="rate-curves-largest-seed"),
    pytest.param(["ensemble", "--model", "SCWM", "--n", "8", "--beta", "1",
                  "--observable", "msq,m_abs", "--samples", "10000", "--workers", "1"],
                 "ensemble.csv",
                 ENSEMBLE_HEADER
                 + b"SCWM,8,1,nan,0,msq,0.069604847068365019,0.0011996323715154412,10000,0\n"
                 b"SCWM,8,1,nan,0,m_abs,0.21512316274887672,0.0024564509615113131,10000,0\n",
                 id="ensemble-two-observables"),
])
def test_small_tables_exact_bytes(tmp_path, capsys, argv, name, expected):
    assert run(argv + ["--out-dir", str(tmp_path)]) == 0
    assert "Traceback" not in capsys.readouterr().err
    assert (tmp_path / name).read_bytes() == expected


def test_domain_scan_exact_bytes(tmp_path, capsys):
    # 700 draws over the 63 ratecurves.SHARDS reach all seven ratecurves.COMBOS,
    # so the digest pins their order
    argv = ["domain-scan", "--samples", "700", "--seed", "3", "--workers", "1"]
    assert run(argv + ["--out-dir", str(tmp_path)]) == 0
    assert "(315 D-points, 191 G-points)" in capsys.readouterr().out
    data = (tmp_path / "domain_scan.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == (
        "392c27a8901a2e4cbe30bbc30e16f9a205e8facde6a109dc14101e26d148290c")


def test_domain_scan_exact_bytes_over_full_windows(tmp_path, capsys):
    # 200,000 draws: each shard formats 3,175 rows, and write_csv of the same
    # columns runs 12 full report.KERNEL_ROWS windows and a partial one; both
    # write these bytes
    argv = ["domain-scan", "--samples", "200000", "--seed", "3", "--workers", "1"]
    assert run(argv + ["--out-dir", str(tmp_path / "cli")]) == 0
    capsys.readouterr()
    digest = "3a2243cbc0cfa0953609b8297a5a20f050d2a378a8559cfc58d1c91aefa1eaac"
    data = (tmp_path / "cli" / "domain_scan.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest
    cols = domain_scan(RateParams(x=0.7, eps=0.3), 200_000, seed=3, workers=1)
    write_csv(tmp_path / "lib.csv", np.rec.fromarrays(cols, dtype=SCAN_DTYPE))
    assert hashlib.sha256((tmp_path / "lib.csv").read_bytes()).hexdigest() == digest


def test_rate_curves_exact_bytes_and_sampled_diagnostics(tmp_path, capsys):
    # 20,000 draws per x: the I2 sampler's kernel calls, the empty-G marker
    # at x = 0.1 and the sampled minimum and its noise band where G is hit
    argv = ["rate-curves", "--x-list", "0.1,0.4,0.7", "--samples", "20000", "--workers", "1"]
    assert run(argv + ["--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    assert (tmp_path / "rate_curve.csv").read_bytes() == (
        b"x,I1,I2,accepted_G,samples,seed\n"
        b"0.10000000000000001,1.6888794582362463,nan,0,20000,0\n"
        b"0.40000000000000002,0.31857370256255713,0.32088473258849159,5365,20000,0\n"
        b"0.69999999999999996,0,0.015045285074600567,7524,20000,0\n")
    man = json.loads((tmp_path / "rate_curve_manifest.json").read_text())
    sampled = {key: value for key, value in man.items()
               if key.startswith(("diag.sampled_k_min.", "diag.noise_band."))}
    assert sampled == {
        "diag.sampled_k_min.0.4": "0.3234025580224795",
        "diag.noise_band.0.4": "0.001926712808861503",
        "diag.sampled_k_min.0.7": "0.01520782313859681",
        "diag.noise_band.0.7": "0.0010808309293407763",
    }


def test_wfe_csv_hypotheses_ok(tmp_path, capsys):
    assert run(["wfe", "--omega", "1.2", "--eps", "0.1", "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    lines = read(tmp_path / "wfe_transition.csv").splitlines()
    assert lines[0] == (
        "omega,eps,r,delta,p_star_inf,y_at_inf,beta_c,hypotheses_ok"
    )
    cols = lines[1].split(",")
    assert float(cols[4]) == pytest.approx(0.3400098818596, abs=1e-10)
    assert float(cols[5]) == 0.0
    assert float(cols[6]) == pytest.approx(17.00049409298, abs=1e-8)
    assert cols[7] == "1"
    man = json.loads(read(tmp_path / "wfe_transition_manifest.json"))
    res = squimld.p_star_inf(squimld.WfeParams(1.2, 0.1))
    assert float(man["diag.theta_at_min"]) == res.theta_at_min
    assert (float(man["diag.theta_lo"]), float(man["diag.theta_hi"])) == res.theta_range
    assert man["diag.root_evals"] == str(res.root_evals) == "11"


@pytest.mark.parametrize("flags, delta", [
    pytest.param(["--omega", "1.5"], 0.1, id="omega-1.5"),
    # the lower root of A at 1.13 and 1.79 lies past 1: A < 0 on all of [-1, 1]
    pytest.param(["--omega", "1.2", "--delta", "0.8"], 0.8, id="delta-0.8"),
    pytest.param(["--omega", "1.2", "--delta", "2.0"], 2.0, id="delta-2.0"),
])
def test_wfe_failed_hypotheses_row_not_error(tmp_path, capsys, flags, delta):
    argv = ["wfe", *flags, "--eps", "0.1", "--out-dir", str(tmp_path)]
    assert run(argv) == 0
    capsys.readouterr()
    cols = read(tmp_path / "wfe_transition.csv").splitlines()[1].split(",")
    assert cols[7] == "0"
    assert cols[4] == "nan" and cols[6] == "nan"
    assert float(cols[3]) == delta
    man = json.loads(read(tmp_path / "wfe_transition_manifest.json"))
    assert not [k for k in man if k.startswith("diag.theta_")]
    assert "diag.root_evals" not in man


@pytest.mark.parametrize("omega, r", [(1.2, 1.0 / 6.0), (1.5, 1.0 / 3.0), (0.0, math.nan)])
def test_wfe_r_is_the_model_r_in_both_rows(tmp_path, capsys, omega, r):
    # r = (omega - 1)/omega whether or not the hypotheses hold; NaN at omega = 0
    argv = ["wfe", "--omega", repr(omega), "--eps", "0.1", "--out-dir", str(tmp_path)]
    assert run(argv) == 0
    capsys.readouterr()
    cols = read(tmp_path / "wfe_transition.csv").splitlines()[1].split(",")
    assert cols[7] == ("1" if omega == 1.2 else "0")
    if math.isnan(r):
        assert cols[2] == "nan"
    else:
        assert float(cols[2]) == pytest.approx(r, rel=1e-15)


def test_ensemble_csv_schema_and_float_round_trip(tmp_path, capsys):
    assert (
        run(
            [
                "ensemble", "--model", "SCWM", "--n", "8", "--beta", "0",
                "--samples", "30000", "--observable", "msq,m_abs",
                "--out-dir", str(tmp_path),
            ]
        )
        == 0
    )
    capsys.readouterr()
    lines = read(tmp_path / "ensemble.csv").splitlines()
    assert lines[0] == (
        "model,N,beta,omega,eps,observable,mean,std_error,n_samples,seed"
    )
    assert len(lines) == 3
    row = lines[1].split(",")
    assert row[0] == "SCWM" and row[5] == "msq"
    assert row[3] == "nan"  # omega column for a model without omega
    # 17 significant digits: the printed mean reparses to the same float
    mean = float(row[6])
    assert f"{mean:.17g}" == row[6]


def test_ensemble_rows_follow_the_requested_order(tmp_path, capsys):
    argv = [
        "ensemble", "--model", "SCWM", "--n", "8", "--beta", "10",
        "--samples", "20000", "--observable", "msq,dispersion,msq",
        "--out-dir", str(tmp_path),
    ]
    assert run(argv) == 0
    capsys.readouterr()
    rows = [line.split(",") for line in read(tmp_path / "ensemble.csv").splitlines()[1:]]
    assert [row[5] for row in rows] == ["msq", "dispersion", "msq"]
    assert rows[0] == rows[2]
    man = json.loads(read(tmp_path / "ensemble_manifest.json"))
    assert 100.0 <= float(man["diag.weight_ess"]) <= 20000.0
    for obs in ("msq", "dispersion"):
        assert 0.0 < float(man[f"diag.numerator_ess.{obs}"]) <= 20000.0
    assert float(man["time.sample_s"]) > 0.0
    assert float(man["time.write_csv_s"]) >= 0.0


@pytest.mark.parametrize("command", ["domain-scan", "rate-curves"])
def test_eta_is_refused(tmp_path, capsys, command):
    # the sampler's tilt schedule is the fixed ratecurves.COMBOS
    out = tmp_path / "out"
    assert run([command, "--eta", "0,2", "--out-dir", str(out)]) == 2
    assert "unrecognized arguments: --eta" in capsys.readouterr().err
    assert not out.exists()


def test_ensemble_unknown_observable_usage_error(tmp_path, capsys):
    for tags in ("msq,energy", "m_signed"):
        argv = ["ensemble", "--observable", tags, "--out-dir", str(tmp_path)]
        assert run(argv) == 2
        assert "unknown observable" in capsys.readouterr().err
        assert not (tmp_path / "ensemble.csv").exists()


def test_ensemble_invalid_samples_usage_error(tmp_path, capsys):
    assert run(["ensemble", "--samples", "0", "--out-dir", str(tmp_path)]) == 2
    capsys.readouterr()


def test_ensemble_degenerate_weights_numerical_exit(tmp_path, capsys):
    code = run(
        [
            "ensemble", "--model", "SCWM_WFE", "--n", "32", "--beta", "40",
            "--omega", "1.2", "--samples", "20000", "--out-dir", str(tmp_path),
        ]
    )
    assert code == 3
    capsys.readouterr()


def test_env_layering(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(ENV_PREFIX + "BETA", "2.5")
    monkeypatch.setenv(ENV_PREFIX + "SAMPLES", "20000")
    assert run(["ensemble", "--n", "4", "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    man = json.loads(read(tmp_path / "ensemble_manifest.json"))
    assert man["param.beta"] == "2.5"
    assert man["param.samples"] == "20000"


def test_config_layering_and_flag_precedence(tmp_path, capsys, monkeypatch):
    conf = tmp_path / "run.conf"
    conf.write_text("beta = 1.0\nn = 16\nsamples = 15000\n# comment\n")
    out1 = tmp_path / "a"
    assert run(["ensemble", "--config", str(conf), "--out-dir", str(out1)]) == 0
    man = json.loads(read(out1 / "ensemble_manifest.json"))
    assert man["param.beta"] == "1.0"
    assert man["param.N"] == "16"
    # environment beats the config file
    monkeypatch.setenv(ENV_PREFIX + "BETA", "3.0")
    out2 = tmp_path / "b"
    assert run(["ensemble", "--config", str(conf), "--out-dir", str(out2)]) == 0
    assert json.loads(read(out2 / "ensemble_manifest.json"))["param.beta"] == "3.0"
    # an explicit flag beats both
    out3 = tmp_path / "c"
    assert (
        run(
            ["ensemble", "--config", str(conf), "--beta", "7.25", "--out-dir", str(out3)]
        )
        == 0
    )
    assert json.loads(read(out3 / "ensemble_manifest.json"))["param.beta"] == "7.25"
    capsys.readouterr()


@pytest.mark.parametrize("env, conf, argv, flag", [
    pytest.param({"BETA": "abc"}, None, ["esm"], "--beta", id="env-beta"),
    pytest.param({}, "beta = abc\n", ["esm"], "--beta", id="config-beta"),
    pytest.param({}, None, ["domain-scan", "--samples", "100", "--seed", "-1"], "--seed",
                 id="negative-seed"),
    pytest.param({}, None, ["ensemble", "--workers", "0"], "--workers", id="zero-workers"),
    pytest.param({"SEED": "-1"}, None, ["wfe"], "--seed", id="env-seed-on-wfe"),
    # a seed is one uint64 word, the entropy of every shard's SeedSequence
    pytest.param({}, None, ["rate-curves", "--seed", str(2**64)], "--seed", id="seed-2^64"),
    pytest.param({"SEED": str(2**64)}, None, ["esm"], "--seed", id="env-seed-2^64"),
    # a list option needs at least one entry, from every layer
    pytest.param({}, None, ["rate-curves", "--x-list", ""], "--x-list",
                 id="rate-curves-empty-x-list"),
    pytest.param({"X_LIST": ","}, None, ["rate-curves"], "--x-list",
                 id="env-rate-curves-empty-x-list"),
    pytest.param({}, "x-list = \n", ["rate-curves"], "--x-list",
                 id="config-rate-curves-empty-x-list"),
    pytest.param({}, None, ["rate-curves", "--x-list", "0.1,abc"], "--x-list",
                 id="rate-curves-bad-x-list"),
    pytest.param({}, None, ["ensemble", "--observable", ""], "--observable",
                 id="ensemble-empty-observable"),
    pytest.param({}, None, ["ensemble", "--observable", ","], "--observable",
                 id="ensemble-no-observable"),
])
def test_bad_value_from_any_layer_is_usage_error(tmp_path, capsys, monkeypatch,
                                                 env, conf, argv, flag):
    # environment and config strings go through the flag's own argparse type
    for name, value in env.items():
        monkeypatch.setenv(ENV_PREFIX + name, value)
    if conf is not None:
        (tmp_path / "run.conf").write_text(conf)
        argv = argv + ["--config", str(tmp_path / "run.conf")]
    out = tmp_path / "out"
    assert run(argv + ["--out-dir", str(out)]) == 2
    assert f"error: argument {flag}: " in capsys.readouterr().err
    assert not out.exists()


def test_layered_defaults_do_not_outlive_a_call(tmp_path, capsys, monkeypatch):
    argv = ["ensemble", "--n", "4", "--samples", "2000"]
    conf = tmp_path / "run.conf"
    conf.write_text("beta = 1.5\n")
    monkeypatch.setenv(ENV_PREFIX + "BETA", "2.5")
    assert run(argv + ["--out-dir", str(tmp_path / "env")]) == 0
    monkeypatch.delenv(ENV_PREFIX + "BETA")
    assert run(argv + ["--out-dir", str(tmp_path / "after_env")]) == 0
    assert run(argv + ["--config", str(conf), "--out-dir", str(tmp_path / "conf")]) == 0
    assert run(argv + ["--out-dir", str(tmp_path / "after_conf")]) == 0
    capsys.readouterr()
    betas = [json.loads(read(tmp_path / d / "ensemble_manifest.json"))["param.beta"]
             for d in ("env", "after_env", "conf", "after_conf")]
    assert betas == ["2.5", "0.0", "1.5", "0.0"]


def test_malformed_config_is_usage_error(tmp_path, capsys):
    conf = tmp_path / "bad.conf"
    conf.write_text("beta 1.0\n")
    assert run(["ensemble", "--config", str(conf), "--out-dir", str(tmp_path)]) == 2
    assert run(["ensemble", "--config", str(tmp_path / "missing.conf")]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("beta", ["inf", "nan"])
def test_esm_non_finite_beta_is_refused(tmp_path, capsys, beta):
    out = tmp_path / "out"
    assert run(["esm", "--beta", beta, "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"need finite beta >= 0, got beta = {beta}" in err
    assert "Traceback" not in err
    assert not out.exists()


# an infinite beta or omega must not reach the sampler, whose weights it turns to NaN
@pytest.mark.parametrize("argv, message", [
    (["ensemble", "--beta", "inf"], "need finite beta >= 0, got beta = inf"),
    (["ensemble", "--model", "SCWM_WFE", "--omega", "inf", "--beta", "1"],
     "need finite omega >= 0, got omega = inf"),
    # finite values whose weight exponent overflows float64
    (["ensemble", "--beta", "1e308"], "beta=1e+308, N=8"),
    (["ensemble", "--model", "SQUIM_d1", "--beta", "1e308"], "beta=1e+308, N=8"),
    (["ensemble", "--model", "SCWM_ENTROPY", "--n", "64", "--beta", "1e307"],
     "beta=1e+307, N=64"),
    (["ensemble", "--model", "SCWM_WFE", "--omega", "1e308", "--beta", "1"],
     "beta=1.0, N=8, omega=1e+308"),
    (["ensemble", "--model", "SCWM_WFE", "--n", "64", "--omega", "1.2", "--beta", "1e307"],
     "beta=1e+307, N=64, omega=1.2"),
    # the caps' exponents are finite; only the bound N beta (1 + |omega - 1|) on |f| is not
    (["ensemble", "--model", "SCWM_WFE", "--omega", "0", "--beta", "1.5e307"],
     "beta=1.5e+307, N=8, omega=0.0"),
], ids=["beta", "omega", "SCWM-beta", "SQUIM_d1-beta", "SCWM_ENTROPY-beta", "SCWM_WFE-omega",
        "SCWM_WFE-beta", "SCWM_WFE-f-bound"])
def test_ensemble_non_finite_parameter_is_refused(tmp_path, capsys, recwarn, argv, message):
    out = tmp_path / "out"
    assert run(argv + ["--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
    assert not out.exists()


def test_ensemble_collapsed_weights_at_huge_beta_refuse_without_warning(tmp_path, capfd, recwarn):
    # every rate is at least 1, so no draw divides by a rate that rounded to 0
    out = tmp_path / "out"
    argv = ["ensemble", "--model", "SCWM_WFE", "--n", "8", "--omega", "1.2", "--beta", "1e200",
            "--samples", "10000", "--workers", "1", "--out-dir", str(out)]
    assert run(argv) == 3
    err = capfd.readouterr().err
    assert "weight ESS" in err
    assert "RuntimeWarning" not in err and "Traceback" not in err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


# a count above int64 used to reach numpy's allocation and end in a traceback
@pytest.mark.parametrize("argv, flag", [
    pytest.param(["ensemble", "--n", str(10**20), "--samples", "10"], "--n/--N",
                 id="ensemble-n"),
    pytest.param(["rate-curves", "--samples", str(10**20), "--x-list", "0.5"], "--samples",
                 id="rate-curves-samples"),
])
def test_count_above_int64_is_usage_error(tmp_path, capsys, argv, flag):
    out = tmp_path / "out"
    assert run(argv + ["--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"error: argument {flag}: {10**20} is above the maximum {2**63 - 1}" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_ensemble_n_too_wide_for_a_chunk_is_usage_error(tmp_path, capsys):
    # one draw of N + 1 cells must fit the sampler's chunk; a wider N used
    # to overflow g_values into an empty array and end in a traceback
    out = tmp_path / "out"
    assert run(["ensemble", "--n", str(2**63 - 1), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"got N = {2**63 - 1}" in err and "CHUNK_SCALARS = 4194304" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["domain-scan", "rate-curves"])
def test_samples_too_large_to_allocate_is_numerical_exit(tmp_path, capsys, command):
    # an in-range count whose shard array does not fit in memory
    argv = [command, "--samples", str(2**63 - 1), "--workers", "1"]
    assert run(argv + ["--out-dir", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("out of memory: ") and len(err.splitlines()) == 1
    assert "Traceback" not in err
    assert not list(tmp_path.glob("out/*.csv"))


def test_failed_domain_scan_leaves_no_csv(tmp_path, capsys, monkeypatch):
    # a shard that raises part-way: exit 3, and neither the CSV nor the
    # temporary file it was written to stays in --out-dir
    import squimld.ratecurves

    scan_shard = squimld.ratecurves._scan_shard

    def failing(shard, payload):
        if shard == 5:
            raise squimld.SquimldError("shard 5 failed")
        return scan_shard(shard, payload)

    monkeypatch.setattr(squimld.ratecurves, "_scan_shard", failing)
    out = tmp_path / "out"
    argv = ["domain-scan", "--samples", "100000", "--workers", "1", "--out-dir", str(out)]
    assert run(argv) == 3
    assert "shard 5 failed" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_ensemble_byte_identity_across_workers(tmp_path, capsys):
    args = [
        "ensemble", "--model", "SCWM", "--n", "8", "--beta", "40",
        "--samples", "30000", "--seed", "9",
    ]
    d1, d2 = tmp_path / "w1", tmp_path / "w2"
    assert run(args + ["--workers", "1", "--out-dir", str(d1)]) == 0
    assert run(args + ["--workers", "2", "--out-dir", str(d2)]) == 0
    capsys.readouterr()
    assert (d1 / "ensemble.csv").read_bytes() == (d2 / "ensemble.csv").read_bytes()


@pytest.mark.parametrize("model, classes", [("SQUIM_d1", "33"), ("SCWM", None)])
def test_ensemble_manifest_records_the_chain_class_count(tmp_path, capsys, model, classes):
    args = ["ensemble", "--model", model, "--n", "8", "--samples", "2000",
            "--workers", "1", "--out-dir", str(tmp_path)]
    assert run(args) == 0
    capsys.readouterr()
    man = json.loads(read(tmp_path / "ensemble_manifest.json"))
    assert man.get("diag.classes") == classes


@pytest.mark.parametrize("argv, stem, stages", [
    (["wfe"], "wfe_transition", ("beta_critical_s", "write_csv_s")),
    (["wfe", "--delta", "0.8"], "wfe_transition", ("beta_critical_s", "write_csv_s")),
    (["esm", "--n", "8"], "esm", ("evaluate_s", "write_csv_s")),
    (["rate-curves", "--x-list", "0.05,0.3", "--samples", "1000"], "rate_curve",
     ("sample_s", "dual_s", "write_csv_s")),
    (["ensemble", "--samples", "2000"], "ensemble", ("sample_s", "write_csv_s")),
    (["domain-scan", "--samples", "2000"], "domain_scan", ("scan_s", "format_s", "write_csv_s")),
])
def test_wfe_and_esm_manifests_record_stage_times(tmp_path, capsys, argv, stem, stages):
    # every table command times its stages and its CSV write, and lists
    # its CSV first and its plot script, where it has one, second
    assert run(argv + ["--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    man = json.loads(read(tmp_path / f"{stem}_manifest.json"))
    assert sorted(k for k in man if k.startswith("time.")) == sorted(f"time.{s}" for s in stages)
    assert all(float(man[f"time.{s}"]) >= 0.0 for s in stages)
    assert man["output.0"] == f"{stem}.csv"
    plot = f"{stem}.gp" if stem in ("rate_curve", "domain_scan") else None
    assert man.get("output.1") == plot


def test_domain_scan_outputs(tmp_path, capsys):
    assert (
        run(
            ["domain-scan", "--x", "0.7", "--eps", "0.3", "--samples", "10000",
             "--out-dir", str(tmp_path)]
        )
        == 0
    )
    capsys.readouterr()
    lines = read(tmp_path / "domain_scan.csv").splitlines()
    assert lines[0] == "theta1,theta2,in_D,in_G,k"
    assert len(lines) == 10_001
    assert {row.split(",")[2] for row in lines[1:]} <= {"0", "1"}
    script = read(tmp_path / "domain_scan.gp")
    assert "domain_scan.csv" in script


def test_domain_scan_byte_identity_across_workers(tmp_path, capsys):
    args = ["domain-scan", "--samples", "8000", "--seed", "5"]
    d1, d2 = tmp_path / "w1", tmp_path / "w2"
    assert run(args + ["--workers", "1", "--out-dir", str(d1)]) == 0
    assert run(args + ["--workers", "2", "--out-dir", str(d2)]) == 0
    capsys.readouterr()
    assert (d1 / "domain_scan.csv").read_bytes() == (d2 / "domain_scan.csv").read_bytes()


def test_domain_scan_default_workers_write_the_serial_bytes(tmp_path, capsys):
    # 200,000 rows are more than one CSV block, and the default run formats
    # them in the sampling shards on the process pool wherever more than one
    # core is available
    args = ["domain-scan", "--samples", "200000", "--seed", "5"]
    d0, d1 = tmp_path / "default", tmp_path / "w1"
    assert run(args + ["--out-dir", str(d0)]) == 0
    assert run(args + ["--workers", "1", "--out-dir", str(d1)]) == 0
    capsys.readouterr()
    assert (d0 / "domain_scan.csv").read_bytes() == (d1 / "domain_scan.csv").read_bytes()
    assert json.loads(read(d1 / "domain_scan_manifest.json"))["workers"] == "1"


def test_domain_scan_csv_is_write_csv_of_the_library_columns(tmp_path, capsys):
    # 140,000 rows span nine CSV blocks; three workers take the 63 shards
    # in five chunks of 11 and one of 8
    columns = domain_scan(RateParams(x=0.7, eps=0.3), 140_000, seed=2, workers=1)
    expected_path = tmp_path / "expected.csv"
    write_csv(expected_path, np.rec.fromarrays(columns, dtype=SCAN_DTYPE))
    expected = expected_path.read_bytes()
    for workers in ("1", "2", "3"):
        out = tmp_path / f"w{workers}"
        assert run(["domain-scan", "--samples", "140000", "--seed", "2", "--workers", workers,
                    "--out-dir", str(out)]) == 0
        assert (out / "domain_scan.csv").read_bytes() == expected
    capsys.readouterr()


def test_domain_scan_manifest_counts_the_d_and_g_points(tmp_path, capsys):
    assert run(["domain-scan", "--samples", "5000", "--seed", "9", "--out-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    table = np.loadtxt(tmp_path / "domain_scan.csv", delimiter=",", skiprows=1)
    d_points, g_points = int(table[:, 2].sum()), int(table[:, 3].sum())
    assert 0 < g_points < d_points < 5000
    man = json.loads(read(tmp_path / "domain_scan_manifest.json"))
    assert (man["diag.d_points"], man["diag.g_points"]) == (str(d_points), str(g_points))
    assert f"({d_points} D-points, {g_points} G-points)" in out


def test_rate_curves_rows_and_empty_constraint_marker(tmp_path, capsys):
    assert (
        run(
            ["rate-curves", "--x-list", "0.1,0.7", "--eps", "0.1",
             "--samples", "50000", "--out-dir", str(tmp_path)]
        )
        == 0
    )
    capsys.readouterr()
    lines = read(tmp_path / "rate_curve.csv").splitlines()
    assert lines[0] == "x,I1,I2,accepted_G,samples,seed"
    row_01 = lines[1].split(",")
    row_07 = lines[2].split(",")
    # x = 0.1 at this budget misses G: I2 = nan, zero accepted, I1 intact
    assert row_01[2] == "nan" and row_01[3] == "0"
    assert float(row_01[1]) == pytest.approx(1.6888794582367184, abs=1e-10)
    # x = 0.7 sits in the flat region: I1 = 0 exactly
    assert row_07[1] == "0"
    assert float(row_07[2]) > 0.0
    assert (tmp_path / "rate_curve.gp").exists()


def test_rate_curves_any_budget_has_an_outcome(tmp_path, capsys):
    # 100 draws: a value where they hit G, the empty-G marker where not
    argv = ["rate-curves", "--x-list", "0.05,0.3", "--samples", "100", "--seed", "1"]
    assert run(argv + ["--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    rows = [line.split(",") for line in read(tmp_path / "rate_curve.csv").splitlines()[1:]]
    assert [row[4] for row in rows] == ["100", "100"]
    for _x, _i1, i2, accepted, _n, _seed in rows:
        assert (i2 == "nan") == (accepted == "0")
    assert rows[0][2] == "nan"


def test_rate_curves_byte_identity_across_workers(tmp_path, capsys):
    args = ["rate-curves", "--x-list", "0.6", "--eps", "0.1",
            "--samples", "50000", "--seed", "3"]
    d1, d2 = tmp_path / "w1", tmp_path / "w2"
    assert run(args + ["--workers", "1", "--out-dir", str(d1)]) == 0
    assert run(args + ["--workers", "2", "--out-dir", str(d2)]) == 0
    capsys.readouterr()
    assert (d1 / "rate_curve.csv").read_bytes() == (d2 / "rate_curve.csv").read_bytes()


def test_rate_curves_manifest_records_the_dual(tmp_path, capsys):
    args = ["rate-curves", "--x-list", "0.1,0.3,0.7", "--eps", "0.1",
            "--samples", "50000", "--out-dir", str(tmp_path)]
    assert run(args) == 0
    capsys.readouterr()
    man = json.loads(read(tmp_path / "rate_curve_manifest.json"))
    rows = [line.split(",") for line in read(tmp_path / "rate_curve.csv").splitlines()[1:]]
    assert float(man["time.sample_s"]) > 0.0 and float(man["time.dual_s"]) > 0.0
    for x, _i1, i2, accepted, _n, _seed in rows:
        key = repr(float(x))
        assert float(man[f"diag.dual_gap.{key}"]) <= 2e-9
        assert int(man[f"diag.newton_iters.{key}"]) > 0
        if accepted == "0":
            # the empty-G marker row keeps its dual record, but has no
            # sampled minimum to bracket it
            assert i2 == "nan" and f"diag.sampled_k_min.{key}" not in man
        else:
            assert float(i2) <= float(man[f"diag.sampled_k_min.{key}"])
            assert float(man[f"diag.noise_band.{key}"]) > 0.0
        theta1, theta2 = (float(v) for v in man[f"diag.theta_star.{key}"].split(","))
        assert theta1 <= 0.0 <= theta2


def test_rate_curves_sample_time_counts_empty_constraint_rows(tmp_path, capsys):
    # x = 0.1 misses G at this budget, so the one row is the empty-G marker
    args = ["rate-curves", "--x-list", "0.1", "--eps", "0.1", "--samples", "50000",
            "--workers", "1", "--out-dir", str(tmp_path)]
    assert run(args) == 0
    assert "1 with empty constraint set" in capsys.readouterr().out
    man = json.loads(read(tmp_path / "rate_curve_manifest.json"))
    assert float(man["time.sample_s"]) > 0.0
    # the dual still runs for the marker row, and is timed and recorded
    assert float(man["time.dual_s"]) > 0.0
    assert float(man["diag.dual_gap.0.1"]) <= 2e-9


def test_rate_curves_marker_row_stands_when_the_dual_refuses_too(tmp_path, capsys):
    # x = 0.05 misses G, and the dual's start point is not strictly inside D
    args = ["rate-curves", "--x-list", "0.05", "--eps", "0.1", "--samples", "50000",
            "--workers", "1", "--out-dir", str(tmp_path)]
    assert run(args) == 0
    assert "1 with empty constraint set" in capsys.readouterr().out
    row = read(tmp_path / "rate_curve.csv").splitlines()[1].split(",")
    assert row[2] == "nan" and row[3] == "0"
    man = json.loads(read(tmp_path / "rate_curve_manifest.json"))
    assert not [k for k in man if k.startswith("diag.") and k.endswith(".0.05")]


def test_rate_curves_exit_3_when_the_dual_does_not_certify(tmp_path, capsys, monkeypatch):
    import squimld.ratecurves

    monkeypatch.setattr(squimld.ratecurves, "DUAL_GAP_TOL", -1.0)
    args = ["rate-curves", "--x-list", "0.6", "--eps", "0.1",
            "--samples", "50000", "--out-dir", str(tmp_path)]
    assert run(args) == 3
    err = capsys.readouterr().err
    assert "x=0.6" in err and "gap" in err and "> -1" in err


def test_rate_curves_exit_3_when_q_is_below_the_bracket_floor(tmp_path, capsys):
    args = ["rate-curves", "--x-list", "0.0028", "--samples", "10000",
            "--out-dir", str(tmp_path)]
    assert run(args) == 3
    err = capsys.readouterr().err
    assert "x=0.0028" in err and "bracket floor t=1e-300" in err and "H(1e-300)" in err


def test_validate_full_alone_brackets_i2():
    from squimld.validate import check_i2_dual_bracket, run_validation

    assert "i2-dual-vs-sampled-bracket" not in {r.name for r in run_validation("fast", 1)}
    result = check_i2_dual_bracket("full", workers=1)
    assert result.ok, result.detail


def test_validate_fast_passes(tmp_path, capsys):
    assert run(["validate", "--level", "fast", "--out-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
    man = json.loads(read(tmp_path / "validate_manifest.json"))
    assert {k: v for k, v in man.items() if k.startswith("param.")} == {"param.level": "fast"}
    assert man["seed"] == "0"
    names = ("quadrature-vs-closed-form", "gradient-vs-quadrature", "beta0-moment-oracle",
             "small-N-enumerations", "uif-circle-identity", "concentration-bound-2-sphere")
    assert sorted(k for k in man if k.startswith("diag.check.")) == sorted(
        f"diag.check.{n}.{key}" for n in names for key in ("ok", "detail"))
    for n in names:
        assert man[f"diag.check.{n}.ok"] == "True"
        assert f"PASS {n}: {man[f'diag.check.{n}.detail']}\n" in out
        assert float(man[f"time.{n}_s"]) > 0.0


def test_validate_unknown_level_usage_error(tmp_path, capsys, monkeypatch):
    assert run(["validate", "--level", "extreme", "--out-dir", str(tmp_path)]) == 2
    capsys.readouterr()
    # a layered level is a default, which argparse does not check against
    # choices; run_validation refuses it
    monkeypatch.setenv(ENV_PREFIX + "LEVEL", "extreme")
    out = tmp_path / "env"
    assert run(["validate", "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert "'extreme'" in err and "Traceback" not in err
    assert not (out / "validate_manifest.json").exists()


def test_manifest_timestamps_and_version(tmp_path, capsys):
    assert run(["esm", "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    man = json.loads(read(tmp_path / "esm_manifest.json"))
    assert man["code_version"] == squimld.__version__ == "0.1.0"
    assert man["started"].endswith("Z") and man["finished"].endswith("Z")
    assert man["started"] <= man["finished"]



@pytest.mark.parametrize("argv, stem, params", [
    # --samples is lowered from its default only to keep the runs cheap
    (["domain-scan", "--samples", "1000"], "domain_scan",
     {"x": "0.7", "eps": "0.3", "samples": "1000"}),
    (["rate-curves", "--samples", "10000"], "rate_curve",
     {"x_list": "0.1,0.2,0.3,0.4,0.5,0.6,0.7", "eps": "0.1", "samples": "10000"}),
    (["wfe"], "wfe_transition", {"omega": "1.2", "eps": "0.1", "delta": ""}),
    (["ensemble", "--samples", "2000"], "ensemble",
     {"model": "SCWM", "N": "8", "beta": "0.0", "omega": "", "eps": "0.0",
      "observable": "msq", "samples": "2000"}),
    (["esm"], "esm", {"N": "2", "beta": "1.0"}),
])
def test_manifest_params_at_the_defaults(tmp_path, capsys, argv, stem, params):
    # every option but --config, --out-dir, --seed and --workers is a param.*
    assert run(argv + ["--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    man = json.loads(read(tmp_path / f"{stem}_manifest.json"))
    assert {k: v for k, v in man.items() if k.startswith("param.")} == {
        f"param.{k}": v for k, v in params.items()
    }
    assert man["seed"] == "0"


@pytest.mark.parametrize("argv, stem, workers", [
    (["esm"], "esm", 1),
    (["wfe"], "wfe_transition", 1),
    (["ensemble", "--samples", "2000"], "ensemble", resolve_workers(None, MC_SHARDS)),
    (["ensemble", "--samples", "2000", "--workers", "1"], "ensemble", 1),
])
def test_manifest_records_resolved_workers_and_cores(tmp_path, capsys, argv, stem, workers):
    assert run(argv + ["--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    man = json.loads(read(tmp_path / f"{stem}_manifest.json"))
    assert man["workers"] == str(workers)
    assert man["diag.available_cores"] == str(available_cores())
