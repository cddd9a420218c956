"""The CSV writer: exact bytes, block boundaries, and the round trip.

Expected output is written out literally or rebuilt line by line with
"%.17g" in the test, never taken from the writer itself.  The block tests
sit one row either side of multiples of the writer's block size, where an
off-by-one in the chunking would drop, repeat or mis-terminate a row.  The
float kernel is compared with "%.17g" on drawn bit patterns, on exact
decimal ties and around every power of ten where its notation or exponent
changes.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from squimld.cli import main
from squimld.gecore import RateParams
from squimld.parallel import available_cores, resolve_workers
from squimld.ratecurves import SHARDS, domain_scan
from squimld.report import (FIXED_MAX, FIXED_MIN, FLOAT_FMT, KERNEL_ROWS, RunManifest,
                            format_records, write_csv)


def written(path):
    return path.read_bytes()


def test_float_cells_print_17_significant_digits(tmp_path):
    path = tmp_path / "floats.csv"
    values = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 0.1, 1.0, 2.5e300]
    write_csv(path, np.array([(v,) for v in values], dtype=[("v", float)]))
    assert written(path) == (
        b"v\nnan\ninf\n-inf\n-0\n4.9406564584124654e-324\n"
        b"0.10000000000000001\n1\n2.5000000000000001e+300\n"
    )


def test_numpy_scalars_bools_and_strings(tmp_path):
    path = tmp_path / "mixed.csv"
    rows = np.array([
        ("SCWM", np.int64(8), np.float64(0.1), True, 3),
        ("SQUIM_d1", np.int64(-2), np.float64(-1.5), False, 4),
    ], dtype=[("model", object), ("N", int), ("beta", float), ("flag", bool), ("seed", np.uint64)])
    write_csv(path, rows)
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
    write_csv(path, rows)
    assert written(path) == b"x,flag,n\n0.10000000000000001,1,7\nnan,0,-7\n"


def test_huge_int_stays_exact_beside_a_small_one(tmp_path):
    path = tmp_path / "ints.csv"
    rows = np.array([(2**64 - 1, 0.5), (5, 1.0)], dtype=[("seed", np.uint64), ("w", float)])
    write_csv(path, rows)
    assert written(path) == b"seed,w\n18446744073709551615,0.5\n5,1\n"


def reference_text(a, flag, k):
    """The expected CSV, one "%.17g" line at a time."""
    lines = ["a,flag,k\n"]
    for x, f, y in zip(a.tolist(), flag.tolist(), k.tolist()):
        lines.append("%.17g,%d,%.17g\n" % (x, f, y))
    return "".join(lines).encode()


@pytest.mark.parametrize("n_rows", [n + d for n in (KERNEL_ROWS, 4 * KERNEL_ROWS)
                                    for d in (-1, 0, 1)])
def test_block_edges_match_line_by_line_reference(tmp_path, n_rows):
    rng = np.random.default_rng(n_rows)
    a = rng.standard_normal(n_rows) * 10.0 ** rng.integers(-300, 300, n_rows)
    flag = rng.random(n_rows) < 0.5
    k = rng.standard_normal(n_rows)
    k[::97] = np.nan
    k[1::89] = -np.inf
    expected = reference_text(a, flag, k)

    path = tmp_path / "rec.csv"
    write_csv(path, np.rec.fromarrays([a, flag, k], names="a,flag,k"))
    assert written(path) == expected


def test_three_and_a_half_blocks_match_line_by_line_reference(tmp_path):
    # three full blocks and a partial last block, with infinities and nans
    # in both float columns
    n_rows = 3 * KERNEL_ROWS + KERNEL_ROWS // 2
    rng = np.random.default_rng(35)
    a = rng.standard_normal(n_rows) * 10.0 ** rng.integers(-300, 300, n_rows)
    a[::101] = np.inf
    a[7::211] = -np.inf
    flag = rng.random(n_rows) < 0.5
    k = rng.standard_normal(n_rows)
    k[::97] = np.nan
    path = tmp_path / "rec.csv"
    write_csv(path, np.rec.fromarrays([a, flag, k], names="a,flag,k"))
    assert written(path) == reference_text(a, flag, k)


def test_zero_rows_write_only_the_header(tmp_path):
    path = tmp_path / "empty.csv"
    write_csv(path, np.array([], dtype=[("a", float), ("b", bool), ("c", object)]))
    assert written(path) == b"a,b,c\n"


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
    assert man["workers"] == str(resolve_workers(None, SHARDS))
    assert man["diag.available_cores"] == str(available_cores())
    for stage in ("scan_s", "format_s", "write_csv_s"):
        assert float(man[f"time.{stage}"]) >= 0.0


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


def kernel_text(values) -> bytes:
    """The record-array writer's bytes for one float column."""
    rec = np.rec.fromarrays([np.asarray(values, dtype=np.float64)], names="v")
    return format_records(rec)[0]


def percent_text(values) -> bytes:
    return "".join(FLOAT_FMT % float(v) + "\n" for v in values).encode()


def floats_from_bits(bits) -> np.ndarray:
    return np.array(bits, dtype=np.uint64).view(np.float64)


# any float64, and floats whose binary exponent puts them in or next to the
# kernel's range [1e-4, 1e16)
ANY_BITS = st.integers(0, 2**64 - 1)
NEAR_FIXED_BITS = st.builds(
    lambda sign, exponent, mantissa: sign << 63 | exponent << 52 | mantissa,
    st.integers(0, 1), st.integers(1023 - 15, 1023 + 54), st.integers(0, 2**52 - 1),
)


@given(st.lists(st.one_of(ANY_BITS, NEAR_FIXED_BITS), min_size=1, max_size=50))
@settings(max_examples=300, deadline=None)
def test_kernel_matches_percent_on_bit_patterns(bits):
    values = floats_from_bits(bits)
    assert kernel_text(values) == percent_text(values)


@given(st.integers(1, 20), st.integers(0, 2**64 - 1), st.booleans())
@settings(max_examples=200, deadline=None)
def test_kernel_rounds_decimal_ties_to_even(k, draw, negative):
    # v = odd * 2^-(k+1) with 16 - k = floor(log10 v): v * 10^k ends in .5,
    # an exact tie at the 17th significant digit
    lo, hi = 10.0 ** (16 - k), min(10.0 ** (17 - k), 2.0 ** (52 - k))
    scale = 2.0 ** -(k + 1)
    first, last = math.ceil(lo / scale), math.floor(hi / scale) - 1
    if first > last:
        return
    odd = (first + draw % (last - first + 1)) | 1
    value = odd * scale * (-1.0 if negative else 1.0)
    assert lo <= abs(value) < 10.0 ** (17 - k)
    assert kernel_text([value]) == percent_text([value])


def test_kernel_around_powers_of_ten():
    values = []
    for j in range(-5, 18):
        for power in (10.0**j, -(10.0**j)):
            up = down = power
            values.append(power)
            for _ in range(2):
                up, down = np.nextafter(up, math.inf), np.nextafter(down, -math.inf)
                values += [up, down]
    values += [FIXED_MIN, FIXED_MAX, np.nextafter(FIXED_MIN, 0.0), np.nextafter(FIXED_MAX, 0.0)]
    assert kernel_text(values) == percent_text(values)


def test_kernel_special_values():
    negative_nan = floats_from_bits([0xFFF8000000000000])[0]
    assert math.isnan(negative_nan) and math.copysign(1.0, negative_nan) < 0.0
    values = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, -2.2250738585072014e-308,
              math.inf, -math.inf, math.nan, negative_nan, 1.7976931348623157e308]
    assert kernel_text(values) == percent_text(values)
    assert kernel_text([negative_nan, -math.inf, -0.0]) == b"nan\n-inf\n-0\n"


def test_narrow_float_columns_print_as_python_floats():
    single = np.array([0.1, -1 / 3, 1e-5, 3e38, np.nan], dtype=np.float32)
    half = np.array([0.1, -1 / 3, 1e-3, 6e4, -np.inf], dtype=np.float16)
    rec = np.rec.fromarrays([single, half], names="single,half")
    expected = "".join(f"{FLOAT_FMT % float(a)},{FLOAT_FMT % float(b)}\n"
                       for a, b in zip(single, half))
    assert format_records(rec)[0] == expected.encode()


@pytest.mark.parametrize("n_rows", [2, 6000, KERNEL_ROWS + 1])
def test_float_columns_keep_their_places_between_other_columns(n_rows):
    # each float column is its own kernel call, and KERNEL_ROWS + 1 rows
    # take two calls per column
    rng = np.random.default_rng(n_rows)
    columns = [rng.standard_normal(n_rows) * 10.0 ** j for j in range(5)]
    columns[2][::7] = np.nan
    flag = rng.random(n_rows) < 0.5
    text = np.array([f"t{i}" for i in range(n_rows)], dtype=object)
    cols = [columns[0], text, columns[1], columns[2], flag, columns[3], columns[4]]
    rec = np.rec.fromarrays(cols, names="a,s,b,c,flag,d,e")
    expected = "".join("%.17g,%s,%.17g,%.17g,%d,%.17g,%.17g\n" % row
                       for row in zip(*[col.tolist() for col in cols]))
    assert format_records(rec)[0] == expected.encode()


def test_int_extremes_in_a_record_array(tmp_path):
    path = tmp_path / "ints.csv"
    rec = np.rec.fromarrays(
        [np.array([np.iinfo(np.int64).min, np.iinfo(np.int64).max, 0]),
         np.array([0, np.iinfo(np.uint64).max, 1], dtype=np.uint64)],
        names="a,b",
    )
    assert write_csv(path, rec) == 6  # every int cell one at a time
    assert written(path) == (b"a,b\n-9223372036854775808,0\n"
                             b"9223372036854775807,18446744073709551615\n0,1\n")


def test_write_csv_counts_cells_formatted_one_at_a_time(tmp_path):
    path = tmp_path / "count.csv"
    values = np.array([0.0, -0.0, 1e-5, 1e-4, 0.5, 1e16, 9e15, np.nan, -np.inf, 5e-324])
    rec = np.rec.fromarrays([values, values < 0.5], names="v,flag")
    # zeros, |v| < 1e-4 and |v| >= 1e16; not nan, inf or the bool column
    assert write_csv(path, rec) == 5
    assert written(path) == b"v,flag\n" + b"".join(
        b"%s,%d\n" % ((FLOAT_FMT % v).encode(), v < 0.5) for v in values.tolist())
    # int and text cells: every one
    table = np.array([(0.5, 1, "a"), (2.5, 2, "b")],
                     dtype=[("v", float), ("n", int), ("s", object)])
    assert write_csv(path, table) == 4
    assert written(path) == b"v,n,s\n0.5,1,a\n2.5,2,b\n"


def test_domain_scan_manifest_counts_fallback_cells(tmp_path, capsys):
    argv = ["domain-scan", "--x", "0.7", "--eps", "0.3", "--samples", "3000", "--seed", "4",
            "--out-dir", str(tmp_path)]
    assert main(argv) == 0
    capsys.readouterr()
    man = json.loads((tmp_path / "domain_scan_manifest.json").read_text())
    theta1, theta2, _in_d, _in_g, k = domain_scan(RateParams(x=0.7, eps=0.3), 3000, seed=4)
    floats = np.concatenate([theta1, theta2, k])
    finite = floats[np.isfinite(floats)]
    outside = (np.abs(finite) < FIXED_MIN) | (np.abs(finite) >= FIXED_MAX)
    assert man["diag.csv_fallback_cells"] == str(int(outside.sum()))
