import contextlib
import hashlib
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import jsonschema
import mpmath as mp
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from horospheres import analysis, euclidean, sampling
from horospheres.cli import main
from horospheres.quadrature import QuadratureError

_SCHEMA_DIR = Path(__file__).resolve().parents[1] / "src" / "horospheres" / "schemas"


def _schema(name: str) -> dict:
    return json.loads((_SCHEMA_DIR / name).read_text())


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_no_command_is_usage_error(capsys):
    assert main([]) == 64


def test_unknown_command_is_usage_error(capsys):
    assert main(["frobnicate"]) == 64


def test_unknown_flag_is_usage_error(capsys):
    assert main(["moments", "--d", "3", "--R", "1", "--wat"]) == 64


def test_missing_required_flag_is_usage_error(capsys):
    assert main(["moments", "--d", "3"]) == 64


def test_moments_matches_library(capsys):
    code, out = _run(capsys, ["moments", "--d", "3", "--R", "3"])
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, _schema("moments.schema.json"))
    m = analysis.moments(3.0, 3)
    assert doc["moments"]["mean"]["linear"] == pytest.approx(m.mean, rel=1e-12)
    assert doc["moments"]["variance"]["log"] == pytest.approx(m.log_variance, rel=1e-12)
    assert doc["config"]["command"] == "moments"
    assert "timestamp" not in doc["config"]


def test_moments_euclidean_line_model(capsys):
    code, out = _run(capsys, ["moments", "--model", "euclidean", "--d", "1", "--R", "5"])
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, _schema("moments.schema.json"))
    assert doc["moments"]["variance"]["linear"] == pytest.approx(10.0, rel=1e-12)


def test_moments_rejects_zero_radius(capsys):
    assert main(["moments", "--d", "3", "--R", "0"]) == 64


def test_moments_stamp_adds_timestamp(capsys):
    code, out = _run(capsys, ["moments", "--d", "2", "--R", "1", "--stamp"])
    assert code == 0
    assert "timestamp" in json.loads(out)["config"]


def test_simulate_output_shape(capsys):
    code, out = _run(capsys, ["simulate", "--d", "3", "--R", "2", "--n", "6", "--seed", "7"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# config ")
    echo = json.loads(lines[0][len("# config "):])
    assert echo["seed"] == 7 and echo["n"] == 6
    assert "threads" not in echo
    assert lines[1] == "index,count,total_area"
    body = lines[2:-1]
    assert len(body) == 6
    assert [int(row.split(",")[0]) for row in body] == list(range(6))
    trailer = lines[-1]
    assert trailer.startswith("# summary ")
    summary = json.loads(trailer[len("# summary "):])
    assert summary["n"] == 6


def test_simulate_row_values_match_library(capsys):
    from horospheres.sampling import SimConfig, simulate_batch

    code, out = _run(capsys, ["simulate", "--d", "2", "--R", "1.5", "--n", "4", "--seed", "3"])
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[2:-1]]
    want = simulate_batch(SimConfig(d=2, R=1.5, replications=4, seed=3))
    assert [int(row[1]) for row in rows] == want.counts.tolist()
    assert [float(row[2]) for row in rows] == want.totals.tolist()


def test_simulate_rows_are_a_prefix_of_a_larger_run(capsys):
    argv = ["simulate", "--d", "3", "--R", "2", "--seed", "5", "--n"]
    _, small = _run(capsys, argv + ["8"])
    _, again = _run(capsys, argv + ["8"])
    _, large = _run(capsys, argv + ["16"])
    assert small == again
    assert small.splitlines()[1:-1] == large.splitlines()[1:10]


@pytest.mark.parametrize("command", ["simulate", "verify-clt"])
def test_threads_flag_is_usage_error(capsys, command):
    radius = ["--R", "2"] if command == "simulate" else ["--R-list", "2"]
    argv = [command, "--d", "2", *radius, "--n", "4", "--seed", "1", "--threads", "2"]
    assert main(argv) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["horospheres: error: unrecognized arguments: --threads 2"]


def test_subcommand_usage_error_names_its_command(capsys):
    assert main(["simulate", "--model", "foo", "--d", "2", "--R", "2", "--n", "4", "--seed", "1"]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("horospheres: error: simulate: argument --model: invalid choice: 'foo'")
    assert lines[0].count("horospheres") == 1


def test_threads_config_key_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("d = 2\nR = 2\nn = 4\nseed = 1\nthreads = 2\n")
    assert main(["simulate", "--config", str(cfg)]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["horospheres: error: unknown config key 'threads'"]


def test_simulate_infeasible_exits_2(capsys):
    code = main(["simulate", "--d", "20", "--R", "10", "--n", "5", "--seed", "0"])
    assert code == 2
    err = capsys.readouterr().err
    assert "count" in err and "cap" in err


def test_simulate_euclidean_high_dimension(capsys):
    code, out = _run(
        capsys,
        ["simulate", "--model", "euclidean", "--d", "50", "--R", "10", "--n", "20", "--seed", "2"],
    )
    assert code == 0
    counts = [int(line.split(",")[1]) for line in out.splitlines()[2:-1]]
    # intensity mass is exactly 2R = 20
    assert 5 < sum(counts) / len(counts) < 40


def test_config_file_key_value(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# experiment defaults\nd = 3\nR = 3\nmodel = hyperbolic\n")
    code, out = _run(capsys, ["moments", "--config", str(cfg)])
    assert code == 0
    assert json.loads(out)["config"]["d"] == 3


def test_flags_override_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("d = 3\nR = 3\n")
    code, out = _run(capsys, ["moments", "--config", str(cfg), "--R", "2"])
    assert code == 0
    assert json.loads(out)["config"]["R"] == 2.0


def test_config_round_trip_reproduces_output(tmp_path, capsys):
    code, first = _run(capsys, ["moments", "--d", "4", "--R", "2.5"])
    assert code == 0
    echo = json.loads(first)["config"]
    cfg = tmp_path / "echo.json"
    cfg.write_text(json.dumps(echo))
    code, second = _run(capsys, ["moments", "--config", str(cfg)])
    assert code == 0
    assert second == first


def _captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@st.composite
def _grid_flags(draw):
    """--d-grid and --R-rule flags: 1 to 8 dimensions, each rule kind."""
    dims = draw(st.lists(st.integers(2, 10_000), min_size=1, max_size=8))
    kind = draw(st.sampled_from(["fixed", "list", "alpha-log-d", "log-d-offset"]))
    if kind == "list":
        value = ",".join(repr(r) for r in draw(st.lists(st.floats(0.1, 12.0), min_size=len(dims), max_size=len(dims))))
    else:
        value = repr(draw({"fixed": st.floats(0.1, 12.0), "alpha-log-d": st.floats(0.5, 2.0),
                           "log-d-offset": st.floats(-0.5, 3.0)}[kind]))
    return ["--d-grid", ",".join(map(str, dims)), "--R-rule", f"{kind}:{value}"]


@settings(max_examples=20, deadline=None)
@given(
    st.one_of(
        st.tuples(st.just("bounds"), st.sampled_from(["hyperbolic", "euclidean"]), st.sampled_from(["json", "csv"])),
        st.tuples(st.just("width-table"), st.sampled_from(["a", "b1", "b2"])),
    ),
    _grid_flags(),
)
def test_config_echo_round_trips_random_grids(command, grid):
    if command[0] == "bounds":
        argv = ["bounds", "--model", command[1], "--format", command[2], *grid]
    else:
        argv = ["width-table", "--regime", command[1], *grid]
    first = _captured(argv)
    # regime b2 needs R > log d at every point; other grids have no echo to test
    assume(first[0] == 0 or argv[2] != "b2")
    _assert_echo_round_trips(argv[0], first)


def _assert_echo_round_trips(command, first):
    """The config echo of a successful run, fed back through --config, gives the same bytes."""
    assert first[0] == 0 and first[2] == ""
    if first[1].startswith("{"):
        echo = json.loads(first[1])["config"]
    else:
        echo = json.loads(first[1].splitlines()[0].removeprefix("# config "))
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "echo.json"
        cfg.write_text(json.dumps(echo))
        assert _captured([command, "--config", str(cfg)]) == first


@settings(max_examples=20, deadline=None)
@given(
    st.sampled_from(["simulate", "moments"]),
    st.sampled_from(["hyperbolic", "euclidean"]),
    st.integers(2, 5),
    st.floats(0.01, 2.0),
    st.integers(1, 20),
    st.integers(0, 2**64 - 1),
)
def test_config_echo_round_trips_simulate_and_moments(command, model, d, R, n, seed):
    # small (d, R, n): at most a few hundred hits per simulate run
    argv = [command, "--model", model, "--d", str(d), "--R", repr(R)]
    if command == "simulate":
        argv += ["--n", str(n), "--seed", str(seed)]
    _assert_echo_round_trips(command, _captured(argv))


def test_unknown_config_key_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("d = 3\nR = 3\nbogus = 1\n")
    assert main(["moments", "--config", str(cfg)]) == 64


def test_malformed_config_line_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("d 3\n")
    assert main(["moments", "--config", str(cfg)]) == 64


def test_missing_config_file_is_io_error(capsys):
    assert main(["moments", "--d", "3", "--R", "1", "--config", "/nonexistent/x.cfg"]) == 74


def test_out_to_unwritable_path_is_io_error(tmp_path, capsys):
    target = tmp_path / "no" / "such" / "dir" / "out.json"
    assert main(["moments", "--d", "3", "--R", "1", "--out", str(target)]) == 74


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "m.json"
    code = main(["moments", "--d", "3", "--R", "1", "--out", str(target)])
    assert code == 0
    assert capsys.readouterr().out == ""
    doc = json.loads(target.read_text())
    assert doc["config"]["d"] == 3


# sha256 of the stdout of `simulate ... --seed 20260821`, recorded at a54a275 (rows written
# through per-row dicts, streams re-keyed from numpy arrays); the cases take several plane hit
# blocks, the general kernel, and the flat model at about 4 hits per replication.  The last two,
# recorded at 37f653b, are rows larger than a block: about 60k hits each, and about 1.98M hits
# each, drawn and summed in two _CHUNK pieces
_SIMULATE_SHA256 = {
    "--d 2 --R 8 --n 64": "a3e9e916d144f7c47c70bc61ff7be7d4c17b90883a014e1195d6e1e64e57428b",
    "--d 3 --R 3 --n 64": "ee587d6ddae13d99d360982b457cce618f9ae6a675a8083a16ac31e4ee317a48",
    "--model euclidean --d 3 --R 2 --n 500": "05fb231e1627165cb84e983f549783879596b94e7d7e29d896084193d295d8a8",
    "--d 2 --R 11 --n 4": "5ef251553c4b5a2d7e6832c14f8e1f27d5dc2e54766c67f140fcfb95a52e3fbd",
    "--d 2 --R 14.5 --n 2": "9bbf5b2ec4dfa38dc98a99365b0c33dbe7d82646dfe3724c13e52207ed59abae",
}


@pytest.mark.parametrize("flags", sorted(_SIMULATE_SHA256))
def test_simulate_bytes_are_pinned(flags, tmp_path):
    argv = ["simulate", *flags.split(), "--seed", "20260821"]
    code, out, err = _captured(argv)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == _SIMULATE_SHA256[flags]
    target = tmp_path / "sim.csv"
    assert _captured([*argv, "--out", str(target)]) == (0, "", "")
    assert target.read_bytes() == out.encode()


_REFERENCE_GRID = ["--d-grid", ",".join(str(100 * k) for k in range(1, 101)), "--R-rule", "log-d-offset:1"]

# sha256 of the stdout of every other command, recorded at c45c987; bounds runs on the
# 100-point grid of the bounds benchmark, width-table on one grid per regime.  The two
# hyperbolic bounds hashes were re-recorded when the i1 and i4 trees were cut to their
# boundary layer, which moved 85 wasserstein_bound_integrals cells by up to 2.8e-11
# relative, each changed log integral within 3.5e-16 per unit of a 40-digit mpmath value.
# They and the verify-clt hash were re-recorded again when log i2 came to be derived from
# the width, which moved 44 of those cells by up to 1.44e-11 relative and two verify-clt
# scales by up to 4.5e-16, each changed log i2 within 1.8e-16 per unit of an exact finite sum.
# The euclidean bounds hash was re-recorded when the gamma ratios came from their asymptotic
# series past 16, which moved all 200 cells by up to 4.2e-11 relative, each closer to a 60-digit
# mpmath value and now within 3.2 ulps of it; the large-d grid was recorded then, within 2.6 ulps
_COMMAND_SHA256 = {
    "bounds": (["bounds", *_REFERENCE_GRID],
               "42162241831452d5b3c004240c3c7d41b40bf63814580ca84f012bd5d000b364"),
    "bounds-csv": (["bounds", *_REFERENCE_GRID, "--format", "csv"],
                   "e5fbd3ebd713a33e5521668707263782bb62392f845b7c56613055ec72bac6a1"),
    "bounds-euclidean": (["bounds", "--model", "euclidean", *_REFERENCE_GRID],
                         "cbb42f487032429f0e131b62c1a6d87f54147d78d94d1866f55c75fbbc74db01"),
    "bounds-euclidean-large-d": ("bounds --model euclidean --d-grid 1000,1000000,1000000000000000 "
                                 "--R-rule fixed:1".split(),
                                 "caa46651361e4924a929c08b420395d2353d17e7122029c246fdbe61e1851df2"),
    "width-table-a": ("width-table --regime a --d-grid 3,5,10 --R-rule fixed:10".split(),
                      "420c99144ec926bc0bc25079ce5c7e9acbb7d502561bb049466d1e298965bb54"),
    "width-table-b1": ("width-table --regime b1 --d-grid 100,1000 --R-rule log-d-offset:-1".split(),
                       "f572f170c21443ac0e4381de5179f7d6925c8aae257d3c05b5cc1d636678b35e"),
    "width-table-b2": ("width-table --regime b2 --d-grid 100,1000 --R-rule log-d-offset:2".split(),
                       "3901f479857e9e63e116d5776bdab64cc5565d99efb1523edcf6e4ac089427e6"),
    "moments": ("moments --d 3 --R 3".split(),
                "48cd93a0e3ea69925a0a89d824dd22e067df8000d11ef16010438f75233e00fd"),
    "moments-euclidean": ("moments --model euclidean --d 3 --R 3".split(),
                          "368bbba8e30311e4751f9b588768f0dad19612d9da9cf7f290b333c4c33b3aa8"),
    "verify-clt": ("verify-clt --d 2 --R-list 2,4,8 --n 2000 --seed 20260821".split(),
                   "6a9cd9ebdda6a643f0447b4dc483a1545c0671b1c76a43a0b77c918792082407"),
}


@pytest.mark.parametrize("name", sorted(_COMMAND_SHA256))
def test_command_bytes_are_pinned(name):
    argv, sha256 = _COMMAND_SHA256[name]
    code, out, err = _captured(argv)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


def test_quadrature_failure_exits_3(capsys, monkeypatch):
    def boom(R, d):
        raise QuadratureError("did not converge", last=0.0, previous=0.0)

    monkeypatch.setattr(analysis, "moments", boom)
    assert main(["moments", "--d", "3", "--R", "3"]) == 3


def test_bounds_json_schema_and_values(capsys):
    code, out = _run(
        capsys, ["bounds", "--d-grid", "100,1000,10000", "--R-rule", "alpha-log-d:0.5"]
    )
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, _schema("bounds.schema.json"))
    rows = doc["rows"]
    assert [row["d"] for row in rows] == [100, 1000, 10000]
    for row in rows:
        assert row["R"] == pytest.approx(0.5 * math.log(row["d"]), rel=1e-12)
        # alpha <= 1 keeps R within a bounded window of log d
        assert row["regime"] == "high_dim_bounded"
        assert row["rate_envelope"] == pytest.approx(row["d"] ** -0.25, rel=1e-12)


def test_bounds_fixed_dimension_envelope(capsys):
    code, out = _run(
        capsys, ["bounds", "--d-grid", "3,3,3", "--R-rule", "list:4,9,16"]
    )
    assert code == 0
    rows = json.loads(out)["rows"]
    envelopes = [row["rate_envelope"] for row in rows]
    assert envelopes == pytest.approx([0.5, 1.0 / 3.0, 0.25], rel=1e-12)


def test_bounds_csv_format(capsys):
    code, out = _run(
        capsys,
        ["bounds", "--d-grid", "3", "--R-rule", "fixed:5", "--format", "csv"],
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == (
        "d,R,width,wasserstein_bound_width,wasserstein_bound_integrals,"
        "kolmogorov_bound,regime,rate_envelope"
    )
    cells = lines[2].split(",")
    assert cells[0] == "3"
    assert float(cells[2]) == pytest.approx(analysis.effective_width(5.0, 3), rel=1e-12)


def test_bounds_width_is_the_report_width(capsys):
    code, out = _run(capsys, ["bounds", "--d-grid", "3,50", "--R-rule", "fixed:4"])
    assert code == 0
    for row in json.loads(out)["rows"]:
        report = analysis.rate_envelope(4.0, row["d"])
        assert row["width"] == report.width == analysis.effective_width(4.0, row["d"])


def test_bounds_euclidean_columns(capsys):
    code, out = _run(
        capsys,
        ["bounds", "--model", "euclidean", "--d-grid", "10,100", "--R-rule", "fixed:2"],
    )
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, _schema("bounds.schema.json"))
    for row in doc["rows"]:
        want = euclidean.wasserstein_bound(2.0, row["d"])
        assert row["wasserstein_bound"] == pytest.approx(want.value, rel=1e-12)
        assert row["normalized_bound"] == pytest.approx(want.normalized, rel=1e-12)


def test_bounds_list_length_mismatch_is_usage_error(capsys):
    assert main(["bounds", "--d-grid", "2,3", "--R-rule", "list:1"]) == 64


def test_bounds_unknown_rule_is_usage_error(capsys):
    assert main(["bounds", "--d-grid", "2", "--R-rule", "surprise:1"]) == 64


def test_verify_clt_schema_and_fields(capsys):
    code, out = _run(
        capsys,
        ["verify-clt", "--d", "2", "--R-list", "1,2", "--n", "500", "--seed", "9"],
    )
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, _schema("verify_clt.schema.json"))
    assert doc["target_variance"] == 0.5
    assert doc["allowance"] == pytest.approx(1.5 / math.sqrt(500), rel=1e-12)
    assert len(doc["rows"]) == 2
    m = analysis.moments(1.0, 2)
    assert doc["rows"][0]["center"] == pytest.approx(m.mean, rel=1e-12)
    assert doc["rows"][0]["scale"] == pytest.approx(m.sd, rel=1e-12)


def test_verify_clt_euclidean_target(capsys):
    code, out = _run(
        capsys,
        [
            "verify-clt",
            "--model",
            "euclidean",
            "--d",
            "2",
            "--R-list",
            "20",
            "--n",
            "400",
            "--seed",
            "4",
        ],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["target_variance"] == 1.0
    jsonschema.validate(doc, _schema("verify_clt.schema.json"))


def test_verify_clt_zero_replications_is_usage_error(capsys):
    assert main(["verify-clt", "--d", "2", "--R-list", "2,3", "--n", "0", "--seed", "1"]) == 64
    assert "replications must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("n", ["1", "3"])
def test_verify_clt_fewer_than_four_replications_is_usage_error(n, monkeypatch):
    # rejected before any feasibility check, quadrature or sampling
    monkeypatch.setattr(analysis, "_clt_grid", None)
    monkeypatch.setattr(sampling, "simulate_batch", None)
    argv = ["verify-clt", "--d", "2", "--R-list", "2,30", "--n", n, "--seed", "1"]
    assert _captured(argv) == (64, "", f"horospheres: error: --n must be at least 4 for the sample "
                                       f"k-statistics, got {n}\n")


def test_verify_clt_infeasible_exits_2(capsys):
    code = main(["verify-clt", "--d", "2", "--R-list", "30", "--n", "10", "--seed", "0"])
    assert code == 2


def test_verify_clt_infeasible_radius_checked_before_moments(capsys):
    # at R = 800 the linear moments overflow; the count cap must stop it first
    code = main(["verify-clt", "--d", "2", "--R-list", "800", "--n", "10", "--seed", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("horospheres: infeasible: ")


def _summary(out: str) -> dict:
    trailer = out.splitlines()[-1]
    assert trailer.startswith("# summary ")
    return json.loads(trailer[len("# summary "):])


def test_simulate_totals_past_double_range_give_null_fields(capsys):
    # (R, d) = (30, 388): some totals are past double range (inf), so every
    # moment field is too; a RuntimeWarning would fail this test
    argv = ["simulate", "--model", "euclidean", "--d", "388", "--R", "30", "--n", "40", "--seed", "3"]
    code, out = _run(capsys, argv)
    assert code == 0
    assert "inf" in [line.split(",")[2] for line in out.splitlines()[2:-1]]
    summary = _summary(out)
    assert summary["count_mean"] > 0
    assert all(summary[key] is None for key in ("mean", "variance", "k4", "mean_stderr", "variance_stderr"))


def test_simulate_finite_totals_with_overflowing_powers(capsys):
    # at d = 300 every total is finite (about 1e255), and so are their mean and
    # its standard error, but not their squares and fourth powers
    argv = ["simulate", "--model", "euclidean", "--d", "300", "--R", "30", "--n", "40", "--seed", "3"]
    code, out = _run(capsys, argv)
    assert code == 0
    totals = [float(line.split(",")[2]) for line in out.splitlines()[2:-1]]
    assert all(math.isfinite(total) for total in totals)
    with mp.workdps(40):
        x = [mp.mpf(total) for total in totals]
        mean = mp.fsum(x) / len(x)
        stderr = mp.sqrt(mp.fsum((xi - mean) ** 2 for xi in x) / (len(x) - 1) / len(x))
    summary = _summary(out)
    assert summary["mean"] == pytest.approx(float(mean), rel=1e-14)
    assert summary["mean_stderr"] == pytest.approx(float(stderr), rel=1e-12)
    assert summary["variance"] is None and summary["k4"] is None and summary["variance_stderr"] is None


@pytest.mark.parametrize(
    "argv",
    [
        # the flat mean at R = 30 is past double range
        ["verify-clt", "--model", "euclidean", "--d", "388", "--R-list", "2,30", "--n", "40", "--seed", "3"],
        # the hyperbolic mean and standard deviation underflow to zero
        ["verify-clt", "--d", "1000", "--R-list", "0.01", "--n", "40", "--seed", "3"],
    ],
    ids=["euclidean-overflow", "hyperbolic-underflow"],
)
def test_verify_clt_linear_moments_out_of_range_exit_2_before_sampling(capsys, monkeypatch, argv):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before every radius was checked")

    monkeypatch.setattr("horospheres.sampling.simulate_batch", no_sampling)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("horospheres: infeasible: at R = ")
    assert lines[0].endswith("of the total area leaves double range")


@pytest.mark.parametrize("radius", ["0.001", "1e-05"])
def test_verify_clt_sample_without_spread_exits_2(radius):
    # no horosphere meets the ball in any replication, so every total is 0; at R = 1e-5 the
    # excess kurtosis was 0/0, and at R = 0.001 the rounding of the normalization gave noise
    argv = ["verify-clt", "--d", "2", "--R-list", radius, "--n", "100", "--seed", "1"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _captured(argv) == (2, "", f"horospheres: infeasible: at R = {float(radius)!r} all 100 sampled "
                                          "total areas equal 0.0: the sample has no spread\n")


def test_verify_clt_sampled_total_past_double_range_exits_2(capsys):
    # the mean (e^709.7) and standard deviation are finite, but some sampled
    # totals are not
    argv = ["verify-clt", "--model", "euclidean", "--d", "388", "--R-list", "29.9594", "--n", "200", "--seed", "3"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "horospheres: infeasible: at R = 29.9594 a sampled total area leaves double range\n"


def _assert_bad_radius(err: str, radius: str) -> None:
    lines = err.splitlines()
    if radius in ("inf", "nan"):
        assert lines == [f"horospheres: error: R must be finite and positive, got {radius}"]
    else:
        # finite but subnormal, or so large that R + s or the log-integrands overflow
        assert len(lines) == 1
        assert lines[0].startswith("horospheres: error: R must be a normal double no larger than ")
        assert lines[0].endswith(f", got {float(radius)!r}")


@pytest.mark.parametrize("model", ["hyperbolic", "euclidean"])
@pytest.mark.parametrize("radius", ["inf", "nan", "1e308", "1e-320"])
def test_simulate_non_finite_radius_is_usage_error(capsys, model, radius):
    argv = ["simulate", "--model", model, "--d", "2", "--R", radius, "--n", "3", "--seed", "1"]
    assert main(argv) == 64
    _assert_bad_radius(capsys.readouterr().err, radius)


@pytest.mark.parametrize("model", ["hyperbolic", "euclidean"])
@pytest.mark.parametrize("radius", ["inf", "nan", "1e308", "1e-320"])
@pytest.mark.parametrize("command", ["moments", "bounds"])
def test_analytic_non_finite_radius_is_usage_error(capsys, command, model, radius):
    if command == "moments":
        argv = ["moments", "--model", model, "--d", "3", "--R", radius]
    else:
        argv = ["bounds", "--model", model, "--d-grid", "3,4", "--R-rule", f"fixed:{radius}"]
    assert main(argv) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    _assert_bad_radius(captured.err, radius)


@pytest.mark.parametrize(
    "argv, code",
    [
        # (d - 1) R past the range the log-domain integrands can hold
        pytest.param(["moments", "--d", "3", "--R", "4e307"], 64, id="moments-4e307"),
        pytest.param(["bounds", "--d-grid", "3", "--R-rule", "fixed:4e307"], 64, id="bounds-4e307"),
        pytest.param(["width-table", "--regime", "a", "--d-grid", "3", "--R-rule", "fixed:1e308"], 64,
                     id="width-table-1e308"),
        pytest.param(["width-table", "--regime", "a", "--d-grid", "3", "--R-rule", "fixed:1e-320"], 64,
                     id="width-table-1e-320"),
        # representable, but the width integrand has lost its precision
        pytest.param(["moments", "--d", "3", "--R", "1e100"], 3, id="moments-1e100"),
        pytest.param(["bounds", "--d-grid", "3", "--R-rule", "fixed:1e100"], 3, id="bounds-1e100"),
    ],
)
def test_extreme_finite_radius_ends_in_one_line(capsys, argv, code):
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    if code == 3:
        assert captured.err.startswith("horospheres: quadrature failure: effective width estimate exceeds 2R")
    else:
        assert captured.err.startswith("horospheres: error: R must be a normal double no larger than ")


@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", "--d-grid", "3,3", "--R-rule", "list:1e100,nan"],
        ["width-table", "--regime", "a", "--d-grid", "3,3", "--R-rule", "list:1e100,nan"],
    ],
    ids=["bounds", "width-table"],
)
def test_grid_is_validated_before_any_quadrature(capsys, argv):
    # point 0 alone fails in quadrature (exit 3), but the invalid radius of
    # point 1 is found first
    assert main(argv) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "horospheres: error: R must be finite and positive, got nan\n"
    assert main(argv[:-1] + ["fixed:1e100"]) == 3


def test_grid_commands_report_the_same_first_error():
    # point 0's radius is invalid and point 1's dimension is: both commands check point by point
    grid = ["--d-grid", "3,1", "--R-rule", "list:nan,2"]
    expected = (64, "", "horospheres: error: R must be finite and positive, got nan\n")
    assert _captured(["bounds", *grid]) == expected
    assert _captured(["width-table", "--regime", "a", *grid]) == expected


def test_render_writes_deterministic_svg(tmp_path, capsys):
    a = tmp_path / "a.svg"
    b = tmp_path / "b.svg"
    assert main(["render", "--R", "3", "--seed", "11", "--out", str(a)]) == 0
    assert main(["render", "--R", "3", "--seed", "11", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    text = a.read_text()
    assert text.splitlines()[1].startswith("<!-- config ")
    assert 'viewBox="-1.05 -1.05 2.1 2.1"' in text


def test_render_rejects_other_dimensions(tmp_path, capsys):
    cfg = tmp_path / "r.json"
    cfg.write_text(json.dumps({"R": 2.0, "seed": 1, "d": 3}))
    assert main(["render", "--config", str(cfg)]) == 64


def test_render_config_round_trip(tmp_path, capsys):
    code, first = _run(capsys, ["render", "--R", "2", "--seed", "6"])
    assert code == 0
    comment = first.splitlines()[1]
    echo = json.loads(comment[len("<!-- config "):-len(" -->")])
    cfg = tmp_path / "echo.json"
    cfg.write_text(json.dumps(echo))
    code, second = _run(capsys, ["render", "--config", str(cfg)])
    assert code == 0
    assert second == first


def test_width_table_output(capsys):
    code, out = _run(
        capsys, ["width-table", "--regime", "a", "--d-grid", "3", "--R-rule", "fixed:10"]
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "d,R,width,ratio"
    cells = lines[2].split(",")
    assert float(cells[3]) == pytest.approx(float(cells[2]) / 10.0, rel=1e-12)


def test_width_table_growing_gap_precondition(capsys):
    # R = log d exactly violates the b2 precondition
    code = main(
        ["width-table", "--regime", "b2", "--d-grid", "100", "--R-rule", "log-d-offset:0"]
    )
    assert code == 64


def test_width_table_bad_regime(capsys):
    assert main(["width-table", "--regime", "z", "--d-grid", "3", "--R-rule", "fixed:1"]) == 64


# every failure path's exit code and stderr line, recorded at 9838cb5 before the parameter table
# replaced the per-command parsing; "{cfg}" stands for the path of the config file given as text
_FAILURES = {
    "no-command": ([], None, 64, "error: a command is required (try --help)"),
    "unknown-command": (["frobnicate"], None, 64,
                        "error: argument command: invalid choice: 'frobnicate' (choose from 'simulate', 'moments', "
                        "'bounds', 'verify-clt', 'render', 'width-table')"),
    "unknown-flag": ("moments --d 3 --R 1 --wat".split(), None, 64, "error: unrecognized arguments: --wat"),
    "render-d-flag": ("render --R 2 --seed 1 --d 2".split(), None, 64, "error: unrecognized arguments: --d 2"),
    "missing-flag": ("moments --d 3".split(), None, 64, "error: missing required parameter --R"),
    "missing-regime": ("width-table --d-grid 3 --R-rule fixed:1".split(), None, 64,
                       "error: missing required parameter --regime"),
    "bad-model": ("simulate --model foo --d 2 --R 2 --n 4 --seed 1".split(), None, 64,
                  "error: simulate: argument --model: invalid choice: 'foo' (choose from 'hyperbolic', 'euclidean')"),
    "bad-format": ("bounds --d-grid 3 --R-rule fixed:1 --format xml".split(), None, 64,
                   "error: bounds: argument --format: invalid choice: 'xml' (choose from 'json', 'csv')"),
    "empty-d-grid": (["bounds", "--d-grid", "", "--R-rule", "fixed:1"], None, 64, "error: d-grid must not be empty"),
    "empty-R-list": (["verify-clt", "--d", "2", "--R-list", ",", "--n", "10", "--seed", "1"], None, 64,
                     "error: R-list must not be empty"),
    "d-grid-text": ("bounds --d-grid 3,x --R-rule fixed:1".split(), None, 64, "error: d-grid must be an integer, got 'x'"),
    "d-float": ("moments --d 2.5 --R 1".split(), None, 64, "error: d must be an integer, got '2.5'"),
    "R-text": ("moments --d 3 --R abc".split(), None, 64, "error: R must be a number, got 'abc'"),
    "list-length": ("bounds --d-grid 2,3 --R-rule list:1".split(), None, 64,
                    "error: R-rule list must match the d grid in length"),
    "unknown-rule": ("bounds --d-grid 2 --R-rule surprise:1".split(), None, 64,
                     "error: unknown R-rule kind 'surprise'; use fixed, list, alpha-log-d, or log-d-offset"),
    "rule-without-kind": ("bounds --d-grid 2 --R-rule 5".split(), None, 64,
                          "error: R-rule must look like kind:value, got '5'"),
    "nan-grid": ("bounds --d-grid 3,1 --R-rule list:nan,2".split(), None, 64,
                 "error: R must be finite and positive, got nan"),
    "log-rule-d0": ("bounds --d-grid 0 --R-rule alpha-log-d:1".split(), None, 64,
                    "error: dimension must be at least 2, got 0"),
    "log-rule-negative-d": ("bounds --d-grid -3 --R-rule log-d-offset:1".split(), None, 64,
                            "error: dimension must be at least 2, got -3"),
    "log-rule-d0-euclidean": ("bounds --model euclidean --d-grid 0 --R-rule alpha-log-d:1".split(), None, 64,
                              "error: dimension must be at least 1, got 0"),
    "log-rule-d0-width-table": ("width-table --regime a --d-grid 0 --R-rule alpha-log-d:1".split(), None, 64,
                                "error: dimension must be at least 2, got 0"),
    "b2-precondition": ("width-table --regime b2 --d-grid 100 --R-rule log-d-offset:0".split(), None, 64,
                        "error: growing-gap regime requires R > log d, got R = 4.605170185988092 at d = 100"),
    "render-d3-json": (["render", "--config", "{cfg}"], '{"R": 2.0, "seed": 1, "d": 3}', 64,
                       "error: render draws the planar model; d must be 2"),
    "render-d3-lines": (["render", "--config", "{cfg}"], "R = 2\nseed = 1\nd = 3\n", 64,
                        "error: render draws the planar model; d must be 2"),
    "render-missing-R": ("render --seed 1".split(), None, 64, "error: missing required parameter --R"),
    "unknown-key": (["moments", "--config", "{cfg}"], "d = 3\nR = 3\nbogus = 1\n", 64,
                    "error: unknown config key 'bogus'"),
    "malformed-line": (["moments", "--config", "{cfg}"], "d 3\n", 64,
                       "error: config file {cfg}, line 1: expected key = value"),
    "invalid-json": (["moments", "--config", "{cfg}"], '{"d": 3,', 64,
                     "error: config file {cfg}: invalid JSON (Expecting property name enclosed in double quotes: "
                     "line 1 column 9 (char 8))"),
    "null-d": (["moments", "--config", "{cfg}"], '{"d": null, "R": 2}', 64, "error: d must be an integer, got None"),
    "bool-d": (["moments", "--config", "{cfg}"], '{"d": true, "R": 2}', 64, "error: d must be an integer, got True"),
    "config-model": (["moments", "--config", "{cfg}"], '{"d": 3, "R": 2, "model": "flat"}', 64,
                     "error: model must be one of hyperbolic, euclidean; got 'flat'"),
    "config-format": (["bounds", "--config", "{cfg}"], '{"d_grid": [3], "R_rule": "fixed:1", "format": "xml"}', 64,
                      "error: format must be one of json, csv; got 'xml'"),
    "config-regime": (["width-table", "--config", "{cfg}"], '{"d_grid": [3], "R_rule": "fixed:1", "regime": "z"}', 64,
                      "error: regime must be one of a, b1, b2; got 'z'"),
    "verify-clt-n3": ("verify-clt --d 2 --R-list 2,30 --n 3 --seed 1".split(), None, 64,
                      "error: --n must be at least 4 for the sample k-statistics, got 3"),
    "simulate-n0": ("simulate --d 2 --R 2 --n 0 --seed 1".split(), None, 64,
                    "error: replications must be at least 1, got 0"),
    "negative-seed": ("simulate --d 2 --R 2 --n 4 --seed -1".split(), None, 64,
                      "error: seed must be a 64-bit unsigned integer"),
    "simulate-infeasible": ("simulate --d 20 --R 10 --n 5 --seed 0".split(), None, 2,
                            "infeasible: expected hitting count 1.72662e+81 exceeds the count cap 1e+08; "
                            "use the analytic routines for this regime"),
    "moments-tiny-R": ("moments --d 1000000 --R 1e-300".split(), None, 3,
                       "quadrature failure: panel budget (50000) exhausted before convergence"),
    "bounds-huge-R": ("bounds --d-grid 3 --R-rule fixed:1e100".split(), None, 3,
                      "quadrature failure: effective width estimate exceeds 2R at R = 1e+100"),
    "missing-config": ("moments --d 3 --R 1 --config /nonexistent/x.cfg".split(), None, 74,
                       "i/o error: [Errno 2] No such file or directory: '/nonexistent/x.cfg'"),
    "unwritable-out": ("moments --d 3 --R 1 --out /nonexistent/dir/out.json".split(), None, 74,
                       "i/o error: [Errno 2] No such file or directory: '/nonexistent/dir/out.json'"),
}


@pytest.mark.parametrize("case", sorted(_FAILURES))
def test_failure_paths_are_pinned(case, tmp_path):
    argv, config, code, line = _FAILURES[case]
    cfg = str(tmp_path / "run.cfg")
    if config is not None:
        Path(cfg).write_text(config)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = _captured([arg.replace("{cfg}", cfg) for arg in argv])
    assert result == (code, "", f"horospheres: {line.replace('{cfg}', cfg)}\n")


_DIGITS_400 = "1" + "0" * 399
_DIGITS_5000 = "1" * 5000


# (command, JSON config, message); each ended in an OverflowError traceback, or in a message naming
# no parameter, before the config numbers were checked
_CONFIG_NUMBERS = {
    "d-inf": ("moments", '{"d": Infinity, "R": 2}', "d must be an integer, got inf"),
    "d-minus-inf": ("moments", '{"d": -Infinity, "R": 2}', "d must be an integer, got -inf"),
    "d-nan": ("moments", '{"d": NaN, "R": 2}', "d must be an integer, got nan"),
    "d-grid-inf": ("bounds", '{"d_grid": [3, Infinity], "R_rule": "fixed:1"}', "d-grid must be an integer, got inf"),
    "n-inf": ("simulate", '{"d": 2, "R": 2, "n": Infinity, "seed": 1}', "n must be an integer, got inf"),
    "render-d-inf": ("render", '{"R": 2, "seed": 1, "d": Infinity}', "d must be an integer, got inf"),
    # an integer past double range reads as inf, as its decimal string "1e400" does
    "R-400-digits": ("moments", '{"d": 3, "R": %s}' % _DIGITS_400, "R must be finite and positive, got inf"),
    "R-rule-400-digits": ("bounds", '{"d_grid": [3], "R_rule": %s}' % _DIGITS_400,
                          "R must be finite and positive, got inf"),
    "R-list-400-digits": ("verify-clt", '{"d": 2, "R_list": [2, %s], "n": 10, "seed": 1}' % _DIGITS_400,
                          "R must be finite and positive, got inf"),
    "render-R-400-digits": ("render", '{"R": %s, "seed": 1}' % _DIGITS_400, "R must be finite and positive, got inf"),
    "n-400-digits": ("verify-clt", '{"d": 2, "R_list": [2], "n": %s, "seed": 1}' % _DIGITS_400,
                     "replications must be at most 2^64"),
    "d-400-digits": ("moments", '{"d": %s, "R": 2}' % _DIGITS_400,
                     "dimension must be at most 1.79769e+308, got an integer of 1326 bits"),
    # past the int-digit limit of the JSON reader
    "R-5000-digits": ("moments", '{"d": 3, "R": %s}' % _DIGITS_5000, "R must be finite and positive, got inf"),
    "d-5000-digits": ("moments", '{"d": %s, "R": 2}' % _DIGITS_5000, "d must be an integer, got inf"),
}


@pytest.mark.parametrize("case", sorted(_CONFIG_NUMBERS))
def test_non_finite_or_oversized_config_number_is_usage_error(tmp_path, case):
    command, config, line = _CONFIG_NUMBERS[case]
    cfg = tmp_path / "run.json"
    cfg.write_text(config)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _captured([command, "--config", str(cfg)]) == (64, "", f"horospheres: error: {line}\n")


def test_deeply_nested_config_is_usage_error(tmp_path):
    # the JSON reader's RecursionError ended in a traceback
    cfg = tmp_path / "run.json"
    cfg.write_text('{"d": %s%s, "R": 2}' % ("[" * 100_000, "]" * 100_000))
    assert _captured(["moments", "--config", str(cfg)]) == (
        64, "", f"horospheres: error: config file {cfg}: invalid JSON (maximum recursion depth exceeded while "
                "decoding a JSON array from a unicode string)\n")


@pytest.mark.parametrize("model", ["hyperbolic", "euclidean"])
def test_config_echo_round_trips_verify_clt(model):
    argv = ["verify-clt", "--model", model, "--d", "2", "--R-list", "0.7,2", "--n", "40", "--seed", "3"]
    _assert_echo_round_trips("verify-clt", _captured(argv))


_INF, _NAN = math.inf, math.nan

# per key: valid values, then out-of-range, non-finite and malformed ones; n stays small and R at
# most 2, so a run that passes every check samples at most a few thousand hits per replication
_PARAM_VALUES = {
    "model": (["hyperbolic", "euclidean"], ["flat", ""]),
    "format": (["json", "csv"], ["xml"]),
    "regime": (["a", "b1", "b2"], ["z"]),
    "d": ([2, 3, 5], [1, 0, -4, 10**400, 2.5, _INF, -_INF, _NAN, "x", True, None]),
    "n": ([4, 10], [3, 0, -1, 10**400, 2.5, _INF, _NAN, "x"]),
    "seed": ([0, 7, 2**64 - 1], [2**64, -1, 10**400, _INF, _NAN, "x"]),
    "R": ([0.5, 2.0], [0.0, -1.0, 1e-320, 1e100, 1e308, 10**400, _INF, -_INF, _NAN, "x", ""]),
    "R_list": (["1,2", [0.5, 2.0]], ["", "30", "1,x", [_INF], "nan", 10**400, [10**400]]),
    "d_grid": (["3,5", [2, 3]], ["", "3,x", [3, _INF], "3,0", [_NAN], 10**400]),
    "R_rule": (["fixed:2", "list:1,2", [1.0, 2.0], 2.0, "alpha-log-d:1", "log-d-offset:0.5"],
               ["fixed:1e100", "fixed:inf", "list:nan,2", "surprise:1", "5", 10**400, _INF]),
}
_COMMAND_KEYS = {
    "simulate": ["model", "d", "R", "n", "seed"],
    "moments": ["model", "d", "R"],
    "bounds": ["model", "format", "d_grid", "R_rule"],
    "verify-clt": ["model", "d", "R_list", "n", "seed"],
    "render": ["d", "R", "seed"],
    "width-table": ["regime", "d_grid", "R_rule"],
}


def _flag_text(value) -> str:
    if isinstance(value, list):
        return ",".join(map(_flag_text, value))
    return repr(value) if isinstance(value, float) else str(value)


@st.composite
def _cli_runs(draw):
    """A command with each parameter absent, a flag or a config entry; the config file is JSON, key = value
    lines, or missing."""
    command = draw(st.sampled_from(sorted(_COMMAND_KEYS)))
    flags, config = [], {}
    for key in _COMMAND_KEYS[command]:
        # most values valid and present, so that a run often gets past every check
        where = draw(st.sampled_from(["absent", "flag", "flag", "flag", "config", "config", "config"]))
        valid, invalid = _PARAM_VALUES[key]
        value = draw(st.sampled_from(invalid if draw(st.integers(0, 3)) == 0 else valid))
        if where == "flag":
            flags += [f"--{key.replace('_', '-')}", _flag_text(value)]
        elif where == "config":
            config[key] = value
    # an unknown key, and a key of the echo that a config file may carry
    config.update(draw(st.sampled_from([{}, {}, {}, {"bogus": 1}, {"command": command}])))
    form = draw(st.sampled_from(["json"] * 4 + ["lines"] * 4 + ["missing"]))
    return command, flags, config, form


@settings(max_examples=60, deadline=None)
@example(("moments", [], {"d": _INF, "R": 2}, "json"))
@example(("bounds", ["--d-grid", "3"], {"R_rule": 10**400}, "json"))
@given(_cli_runs())
def test_every_run_ends_in_a_documented_exit_code(run):
    command, flags, config, form = run
    with tempfile.TemporaryDirectory() as tmp:
        argv = [command, *flags]
        cfg = Path(tmp) / "run.cfg"
        if form == "missing":
            argv += ["--config", str(cfg)]
        elif config:
            if form == "json":
                cfg.write_text(json.dumps(config))
            else:
                cfg.write_text("".join(f"{key} = {_flag_text(value)}\n" for key, value in config.items()))
            argv += ["--config", str(cfg)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = _captured(argv)
    assert code in (0, 2, 3, 64, 74)
    if code == 0:
        assert out != "" and err == ""
    else:
        assert out == "" and len(err.splitlines()) == 1 and err.startswith("horospheres: ")



# a value each parser refuses; None leaves the required key out, since R_rule is read only
# against the d grid after every parameter is parsed
_REFUSED = {"model": "flat", "format": "xml", "regime": "z", "d": "x", "R": "x", "n": "x", "seed": "x",
            "d_grid": "x", "R_list": "x", "R_rule": None}


@pytest.mark.parametrize("command, key", [(c, k) for c, keys in sorted(_COMMAND_KEYS.items()) for k in keys])
def test_parameters_are_checked_in_a_fixed_order(tmp_path, command, key):
    # with this key and every later one refused, the first error is this key's own
    keys = _COMMAND_KEYS[command]

    def run(refused):
        config = {k: _REFUSED[k] if k in refused else _PARAM_VALUES[k][0][0] for k in keys}
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({k: v for k, v in config.items() if v is not None}))
        return _captured([command, "--config", str(cfg)])

    first = run(keys[keys.index(key):])
    assert first[0] == 64 and first == run([key])
