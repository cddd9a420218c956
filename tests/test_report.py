"""The CSV writer: exact bytes, block boundaries, and the round trip.

Expected output is written out literally or rebuilt line by line with
"%.17g" in the test, never taken from the writer itself.  The block tests
sit one row either side of the writer's block size, where an off-by-one in
the chunking would drop, repeat or mis-terminate a row.
"""

import json

import numpy as np
import pytest

from squimld.cli import main
from squimld.gecore import RateParams
from squimld.parallel import available_cores, resolve_workers
from squimld.ratecurves import SHARDS_DEFAULT, domain_scan
from squimld.report import CHUNK_ROWS, RunManifest, write_csv


def written(path):
    return path.read_bytes()


def test_float_cells_print_17_significant_digits(tmp_path):
    path = tmp_path / "floats.csv"
    values = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 0.1, 1.0, 2.5e300]
    write_csv(path, ["v"], [(v,) for v in values])
    assert written(path) == (
        b"v\nnan\ninf\n-inf\n-0\n4.9406564584124654e-324\n"
        b"0.10000000000000001\n1\n2.5000000000000001e+300\n"
    )


def test_numpy_scalars_bools_and_strings(tmp_path):
    path = tmp_path / "mixed.csv"
    rows = [
        ("SCWM", np.int64(8), np.float64(0.1), True, 3),
        ("SQUIM_d1", np.int64(-2), np.float64(-1.5), False, 4),
    ]
    write_csv(path, ["model", "N", "beta", "flag", "seed"], rows)
    assert written(path) == (
        b"model,N,beta,flag,seed\n"
        b"SCWM,8,0.10000000000000001,1,3\n"
        b"SQUIM_d1,-2,-1.5,0,4\n"
    )


def test_record_array_takes_formats_from_its_dtype(tmp_path):
    path = tmp_path / "rec.csv"
    rows = np.rec.fromarrays(
        [np.array([0.1, np.nan]), np.array([True, False]), np.array([7, -7], dtype=np.int32)],
        names="x,flag,n",
    )
    write_csv(path, ["x", "flag", "n"], rows)
    assert written(path) == b"x,flag,n\n0.10000000000000001,1,7\nnan,0,-7\n"


def test_huge_int_stays_exact_beside_a_small_one(tmp_path):
    path = tmp_path / "ints.csv"
    write_csv(path, ["seed", "w"], [(2**64 - 1, 0.5), (5, 1.0)])
    assert written(path) == b"seed,w\n18446744073709551615,0.5\n5,1\n"


def test_column_mixing_ints_and_floats_is_refused(tmp_path):
    path = tmp_path / "bad.csv"
    with pytest.raises(ValueError, match="column v") as err:
        write_csv(path, ["v"], [(1,), (2.5,)])
    assert str(path) in str(err.value)


def reference_text(a, flag, k):
    """The expected CSV, one "%.17g" line at a time."""
    lines = ["a,flag,k\n"]
    for x, f, y in zip(a.tolist(), flag.tolist(), k.tolist()):
        lines.append("%.17g,%d,%.17g\n" % (x, f, y))
    return "".join(lines).encode()


@pytest.mark.parametrize("n_rows", [CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1])
def test_block_edges_match_line_by_line_reference(tmp_path, n_rows):
    rng = np.random.default_rng(n_rows)
    a = rng.standard_normal(n_rows) * 10.0 ** rng.integers(-300, 300, n_rows)
    flag = rng.random(n_rows) < 0.5
    k = rng.standard_normal(n_rows)
    k[::97] = np.nan
    k[1::89] = -np.inf
    expected = reference_text(a, flag, k)

    rec_path = tmp_path / "rec.csv"
    write_csv(rec_path, ["a", "flag", "k"], np.rec.fromarrays([a, flag, k]))
    assert written(rec_path) == expected

    list_path = tmp_path / "list.csv"
    rows = list(zip(a.tolist(), flag.tolist(), k.tolist()))
    write_csv(list_path, ["a", "flag", "k"], rows)
    assert written(list_path) == expected


def test_pooled_blocks_write_the_serial_bytes(tmp_path):
    # 3.5 blocks: three full ones and a partial last block
    n_rows = 3 * CHUNK_ROWS + CHUNK_ROWS // 2
    rng = np.random.default_rng(35)
    a = rng.standard_normal(n_rows) * 10.0 ** rng.integers(-300, 300, n_rows)
    a[::101] = np.inf
    a[7::211] = -np.inf
    flag = rng.random(n_rows) < 0.5
    k = rng.standard_normal(n_rows)
    k[::97] = np.nan
    rows = np.rec.fromarrays([a, flag, k])
    expected = reference_text(a, flag, k)
    for workers in (1, 2, 3):
        path = tmp_path / f"w{workers}.csv"
        write_csv(path, ["a", "flag", "k"], rows, workers)
        assert written(path) == expected


def test_row_width_mismatch_names_the_path(tmp_path):
    path = tmp_path / "short.csv"
    with pytest.raises(ValueError, match="row width 1 != header width 2") as err:
        write_csv(path, ["a", "b"], [(1, 2), (3,)])
    assert str(path) in str(err.value)
    rec = np.rec.fromarrays([np.zeros(3)], names="a")
    with pytest.raises(ValueError, match="row width 1 != header width 2") as err:
        write_csv(path, ["a", "b"], rec)
    assert str(path) in str(err.value)


def test_zero_rows_write_only_the_header(tmp_path):
    path = tmp_path / "empty.csv"
    write_csv(path, ["a", "b"], [])
    assert written(path) == b"a,b\n"
    write_csv(path, ["a", "b"], np.rec.fromarrays([np.zeros(0), np.zeros(0, dtype=bool)]))
    assert written(path) == b"a,b\n"


def test_domain_scan_csv_reads_back_bit_identical(tmp_path, capsys):
    argv = ["domain-scan", "--x", "0.7", "--eps", "0.3", "--samples", "3000",
            "--seed", "11", "--out-dir", str(tmp_path)]
    assert main(argv) == 0
    capsys.readouterr()
    theta1, theta2, in_d, in_g, k = domain_scan(RateParams(x=0.7, eps=0.3), 3000, seed=11)
    table = np.loadtxt(tmp_path / "domain_scan.csv", delimiter=",", skiprows=1)
    assert table.shape == (3000, 5)
    assert np.array_equal(table[:, 0].view(np.uint64), theta1.view(np.uint64))
    assert np.array_equal(table[:, 1].view(np.uint64), theta2.view(np.uint64))
    assert np.array_equal(table[:, 2], in_d) and np.array_equal(table[:, 3], in_g)
    nan = np.isnan(k)
    assert nan.any() and not nan.all()
    assert np.array_equal(np.isnan(table[:, 4]), nan)
    assert np.array_equal(table[~nan, 4].view(np.uint64), k[~nan].view(np.uint64))


def test_domain_scan_manifest_records_stage_times(tmp_path, capsys):
    argv = ["domain-scan", "--samples", "2000", "--out-dir", str(tmp_path)]
    assert main(argv) == 0
    capsys.readouterr()
    man = json.loads((tmp_path / "domain_scan_manifest.json").read_text())
    for key in ("command", "seed", "workers", "param.samples", "output.0", "output.1"):
        assert key in man
    # the resolved worker count, never the unset default
    assert man["workers"] == str(resolve_workers(None, SHARDS_DEFAULT))
    assert man["diag.available_cores"] == str(available_cores())
    assert float(man["time.scan_s"]) >= 0.0
    assert float(man["time.write_csv_s"]) >= 0.0


def test_manifest_writes_diagnostics_as_diag_keys():
    man = RunManifest(
        command="ensemble", parameters={}, seed=0, workers=1, started="s", finished="f",
        timings={"sample_s": 0.5}, diagnostics={"weight_ess": 1234.5, "numerator_ess.msq": 99.0},
    )
    flat = man.to_flat()
    assert flat["diag.weight_ess"] == "1234.5"
    assert flat["diag.numerator_ess.msq"] == "99.0"
    assert flat["time.sample_s"] == "0.500000"
    # the diagnostics field is optional: existing constructions are unchanged
    assert not any(key.startswith("diag.") for key in
                   RunManifest("esm", {}, 0, 1, "s", "f").to_flat())
