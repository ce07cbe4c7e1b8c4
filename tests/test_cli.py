import json
import math
from pathlib import Path

import jsonschema
import mpmath as mp
import pytest

from horospheres import analysis, euclidean
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


def test_width_table_alias(capsys):
    code, out = _run(
        capsys, ["j-table", "--regime", "a", "--d-grid", "3", "--R-rule", "fixed:10"]
    )
    assert code == 0
    assert json.loads(out.splitlines()[0][len("# config "):])["command"] == "width-table"


def test_width_table_growing_gap_precondition(capsys):
    # R = log d exactly violates the b2 precondition
    code = main(
        ["width-table", "--regime", "b2", "--d-grid", "100", "--R-rule", "log-d-offset:0"]
    )
    assert code == 64


def test_width_table_bad_regime(capsys):
    assert main(["width-table", "--regime", "z", "--d-grid", "3", "--R-rule", "fixed:1"]) == 64
