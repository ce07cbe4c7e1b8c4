import argparse
import contextlib
import enum
import hashlib
import io
import json
import math
import os
import shutil
import tempfile
import warnings
from pathlib import Path

import jsonschema
import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from horospheres import __version__, analysis, cli, euclidean, sampling
from horospheres.cli import _PARAMS, UsageError, _parser, build_parser, main
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


def test_version_flag_prints_the_version(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["--version"])
    assert exit_.value.code == 0
    assert capsys.readouterr() == (f"horospheres {__version__}\n", "")


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
# blocks, the general kernel, and the flat model at about 4 hits per replication.  The next two,
# recorded at 37f653b, are rows larger than a block: about 60k hits each, and about 1.98M hits
# each, drawn and summed in two _CHUNK pieces.  The next two, recorded at e22c30a, are sparse
# batches (mean counts 4 and 7.25) of 20,000 replications, which span several sparse chunks.
# The first was re-recorded when the k-statistics took z^3 and z^4 as products, not by pow: its
# summary's k4 moved by 4.9e-16 and variance_stderr by 1.5e-16 relative, every row unchanged.
# The last two, recorded at e547a52, are small sparse batches (10 plane and 300 flat
# replications), each a single sparse chunk, so a change of the route small batches take must
# keep their bytes.  The last, recorded at 7bde424, is a general-kernel batch (d = 3, mean
# about 4,051) that is split over two threads on a machine with two CPUs; the first, fourth and
# fifth plane cases are split there too
_SIMULATE_SHA256 = {
    "--d 2 --R 8 --n 64": "ff626838b6b4b78794e4aa8209c5e909cf6183fe806b95e467edc66c9a0dd476",
    "--d 3 --R 3 --n 64": "ee587d6ddae13d99d360982b457cce618f9ae6a675a8083a16ac31e4ee317a48",
    "--model euclidean --d 3 --R 2 --n 500": "05fb231e1627165cb84e983f549783879596b94e7d7e29d896084193d295d8a8",
    "--d 2 --R 11 --n 4": "5ef251553c4b5a2d7e6832c14f8e1f27d5dc2e54766c67f140fcfb95a52e3fbd",
    "--d 2 --R 14.5 --n 2": "9bbf5b2ec4dfa38dc98a99365b0c33dbe7d82646dfe3724c13e52207ed59abae",
    "--model euclidean --d 3 --R 2 --n 20000": "a99c0bdf74a2f2d5853874b43229121c8fc5ed06e9f7df276be84b9b51f37eb0",
    "--d 2 --R 2 --n 20000": "74575ef5860c115b7232bc2800ae794d1929788decfff185c012b13bcd7b5aeb",
    "--d 2 --R 2 --n 10": "75b8a5e89646485907039bfdaea4ef15f4d29540342b5bbfe2fd6e82722ae551",
    "--model euclidean --d 3 --R 2 --n 300": "48a721b6828e504b3c9398627a4a431b81fc2a6760f9de935cd437bfc65f8daa",
    "--d 3 --R 4.5 --n 16": "95fb46a43da15ef5a6b7a63f580fd108badcf165a04b5c1269950e407d580407",
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
# mpmath value and now within 3.2 ulps of it; the large-d grid was recorded then, within 2.6 ulps.
# The verify-clt hash was re-recorded when the k-statistics took z^3 and z^4 as products, which
# moved two excess_kurtosis values by up to 3.9e-15 relative.  Every hyperbolic hash here was
# re-recorded when the quadrature engine came to add panels as linear sums relative to each
# tree's largest log-integrand value: the bounds cells moved by up to 1.44e-11 relative (in
# wasserstein_bound_integrals), moments by 1.76e-15, the width tables by 8.46e-16 and one
# verify-clt wasserstein_bound by 3.5e-16.  They were re-recorded again when every grid tree
# came to integrate an O(1) log-integrand with its scale added afterwards: all 400 bounds cells
# moved, by up to 2.05e-11 (wasserstein_bound_integrals at d = 9000, whose error against mpmath
# fell from 2.0e-11 to 9.9e-13), the width tables by up to 3.38e-13, each moved width closer
# to its exact finite sum, moments by 1.79e-15 and verify-clt by 2.38e-15 (d_kol).  The
# verify-clt hash was re-recorded when the Wasserstein-1 distance took the point where the target
# crosses a step from the normal quantile, not by bisection: two d_wass1 values moved, by up to
# 7.0e-16 relative, and only those.  The render hash was recorded from an unchanged renderer.
# The large-d flat moments pin was recorded when the flat mean took the large-d form of the
# variance and fourth cumulant: its log moved from -16.0 to -17.73073083791753, the 60-digit
# value being -17.686785..., an error of 0.2 eps (d + |log V|), inside the d eps that rounding
# log(2 pi e R^2/d) costs at this R
_COMMAND_SHA256 = {
    "bounds": (["bounds", *_REFERENCE_GRID],
               "9f030f605d9ede3584d1d71fed33ffe55fb8562d33a2633694ae43da92e788bf"),
    "bounds-csv": (["bounds", *_REFERENCE_GRID, "--format", "csv"],
                   "6c86da2f27729281d66c6a342cc86188edc247744e4aa25520865a34ec811c67"),
    "bounds-euclidean": (["bounds", "--model", "euclidean", *_REFERENCE_GRID],
                         "cbb42f487032429f0e131b62c1a6d87f54147d78d94d1866f55c75fbbc74db01"),
    "bounds-euclidean-large-d": ("bounds --model euclidean --d-grid 1000,1000000,1000000000000000 "
                                 "--R-rule fixed:1".split(),
                                 "caa46651361e4924a929c08b420395d2353d17e7122029c246fdbe61e1851df2"),
    "width-table-a": ("width-table --regime a --d-grid 3,5,10 --R-rule fixed:10".split(),
                      "0feed9c30c632a60cc7d453a574905b5813866b4d11cb1a29ceebcac2a66ea5b"),
    "width-table-b1": ("width-table --regime b1 --d-grid 100,1000 --R-rule log-d-offset:-1".split(),
                       "b5d51ee1c2a558bd868d8d6a1f80216e179b01585ef9cd222674e651a60b5932"),
    "width-table-b2": ("width-table --regime b2 --d-grid 100,1000 --R-rule log-d-offset:2".split(),
                       "042712f7fd5db6220148840220d75b5f2c5020d714cac3caabeefefdf9b2050e"),
    "moments": ("moments --d 3 --R 3".split(),
                "6cc2c88486a27bf185c856d993da98bfc939ffb91c26a3f8b27e53bd1fb203fc"),
    "moments-euclidean": ("moments --model euclidean --d 3 --R 3".split(),
                          "368bbba8e30311e4751f9b588768f0dad19612d9da9cf7f290b333c4c33b3aa8"),
    "moments-euclidean-large-d": ("moments --model euclidean --d 1000000000000000 --R 7651786.165616442".split(),
                                  "270f026b02213a02717743c586ca883e6e9dc338364445bc8ee8abcafa58e619"),
    "verify-clt": ("verify-clt --d 2 --R-list 2,4,8 --n 2000 --seed 20260821".split(),
                   "948f8966717089038e04fe61e5189d0a5d29c9382749d8bcb127cad27e88daf8"),
    "render": ("render --R 3 --seed 11".split(),
               "0b4744da9dec83fb639e92de70f29f2ecb46de6091a980ef044ddd7f8e6a96f4"),
}


@pytest.mark.parametrize("name", sorted(_COMMAND_SHA256))
def test_command_bytes_are_pinned(name):
    argv, sha256 = _COMMAND_SHA256[name]
    code, out, err = _captured(argv)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


# (argv with "{cfg}" for the config file's path, its text, stdout sha256); recorded before the JSON
# documents were written through the C encoder.  The echoed R_rule holds a tab and a newline,
# which the C encoder escapes, so the only line breaks in a document are its separators'
_CONFIG_COMMAND_SHA256 = {
    "bounds-json-config": (["bounds", "--config", "{cfg}"], '{"d_grid": [3, 10, 100], "R_rule": "fixed:\\t4\\n"}',
                           "a0633fbb28bf0c7a1df0fdd2fe404e4e3840214fd67454814423e575824d2a08"),
}


@pytest.mark.parametrize("name", sorted(_CONFIG_COMMAND_SHA256))
def test_config_command_bytes_are_pinned(name, tmp_path):
    argv, config, sha256 = _CONFIG_COMMAND_SHA256[name]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    code, out, err = _captured([arg.replace("{cfg}", str(cfg)) for arg in argv])
    assert code == 0 and err == ""
    assert json.loads(out)["config"]["R_rule"] == "fixed:\t4\n"
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


_JSON_COMMANDS = ["bounds", "bounds-euclidean", "bounds-euclidean-large-d", "moments", "moments-euclidean",
                  "moments-euclidean-large-d", "verify-clt"]


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


@pytest.mark.parametrize("name", _JSON_COMMANDS)
def test_json_commands_print_the_json_dumps_document(name):
    # a float round-trips through its repr, so the document re-encodes to the same bytes
    code, out, err = _captured(_COMMAND_SHA256[name][0])
    assert code == 0 and err == ""
    assert out == _dumps(json.loads(out))


_AWKWARD_TEXT = ["\n", "\t", '"', "\\", "\x00\x1f", "é漢字🙂", "},\n      {", "},\n{", "}", "{", ",\n  ", ": "]
_JSON_TEXT = st.one_of(st.text(max_size=6), st.lists(st.sampled_from(_AWKWARD_TEXT), max_size=3).map("".join))
_JSON_SCALARS = st.one_of(
    _JSON_TEXT,
    st.integers(),
    st.sampled_from([2**64, 2**64 + 1, -(2**70) - 3, 0]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308]),
    st.booleans(),
    st.none(),
)
_FLAT_DICTS = st.dictionaries(_JSON_TEXT, _JSON_SCALARS, min_size=1, max_size=4)
_JSON_DOCS = st.recursive(
    _JSON_SCALARS | st.lists(_FLAT_DICTS, max_size=4),
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(_JSON_TEXT, inner, max_size=4)),
    max_leaves=24,
)


class _Label(str, enum.Enum):
    A = "fixed_d"
    B = "},\n      {"


@settings(max_examples=400, deadline=None)
@given(_JSON_DOCS)
@example({"config": {"R_rule": "fixed:\t4\n", "d_grid": (3, 10)}, "rows": [{"a": "},\n      {"}, {"b": []}], "x": {}})
@example([[], {}, (), [{}], [{"a": 1}, {}], ((1, 2),)])
# subclasses of the scalar types, which the writer matches by exact type: a str Enum member, numpy's float64
@example({"regime": _Label.A, "width": np.float64(0.1), "boundary": True, "n": 3})
@example([{"regime": _Label.B, "w": np.float64(-2.5e-300), "ok": False}, {"regime": "fixed_d", "flag": True}])
@example({"rows": [{"x": np.float64(1e300)}, {"y": _Label.A}], "flags": [True, False, None, _Label.B]})
def test_json_doc_is_the_json_dumps_document(doc):
    assert cli._json_doc(doc) == _dumps(doc)


@pytest.mark.parametrize("doc", [{"n": np.int64(3)}, [{"n": np.int64(3), "x": 1.0}], {"rows": [np.int64(-1)]}])
def test_json_doc_refuses_numpy_ints_as_json_dumps_does(doc):
    # numpy's int64 is no int subclass, so json.dumps refuses it
    with pytest.raises(TypeError) as expected:
        _dumps(doc)
    with pytest.raises(TypeError) as got:
        cli._json_doc(doc)
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("doc", [
    math.nan, -math.inf, {"a": [1, math.inf]}, [{"x": 1.0, "y": math.nan}, {"x": 2.0}],
    {"rows": [{"x": math.nan}]}, {"a": {"b": math.inf}, "c": [[]]}, (1.0, -math.inf),
])
def test_json_doc_non_finite_raises_the_json_dumps_message(doc):
    with pytest.raises(ValueError) as expected:
        json.dumps(doc, sort_keys=True, indent=2, allow_nan=False)
    with pytest.raises(ValueError) as got:
        cli._json_doc(doc)
    # the message names the value, "... not JSON compliant: nan"
    assert str(got.value) == str(expected.value)
    assert str(got.value).rpartition(": ")[2] in ("nan", "inf", "-inf")


def test_build_parser_reads_the_terminal_size_once(monkeypatch):
    # argparse would ask in every formatter it makes, 49 times for this parser
    calls = []
    monkeypatch.setattr(shutil, "get_terminal_size", lambda *a: calls.append(a) or os.terminal_size((80, 24)))
    parser = build_parser()
    assert len(calls) == 1
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert list(commands.choices) == ["simulate", "moments", "bounds", "verify-clt", "render", "width-table"]
    # the parser main() builds for a named command offers that command alone
    calls.clear()
    parser = _parser(["bounds"])
    assert len(calls) == 1
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert list(commands.choices) == ["bounds"]


_EVERY_COMMAND = list(_PARAMS)


@pytest.mark.parametrize("argv, built", [
    (["moments", "--d", "3", "--R", "1"], ["moments"]),
    (["bounds", "--wat"], ["bounds"]),
    (["render", "--help"], ["render"]),
    ([], _EVERY_COMMAND),
    (["--help"], _EVERY_COMMAND),
    (["-h"], _EVERY_COMMAND),
    (["--version"], _EVERY_COMMAND),
    (["--", "moments", "--d", "3", "--R", "3"], _EVERY_COMMAND),
    (["frobnicate"], _EVERY_COMMAND),
    (["--d", "3", "moments"], _EVERY_COMMAND),
])
def test_main_builds_only_the_named_command(argv, built, monkeypatch):
    names = []
    add_parser = argparse._SubParsersAction.add_parser
    monkeypatch.setattr(argparse._SubParsersAction, "add_parser",
                        lambda self, name, **kw: names.append(name) or add_parser(self, name, **kw))
    with contextlib.suppress(SystemExit):
        _captured(argv)
    assert names == built


def _parse_outcome(parser, argv):
    """What a parser makes of argv: its Namespace, its UsageError text, or its exit code and
    stdout (help)."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            return "namespace", vars(parser.parse_args(argv))
    except UsageError as exc:
        return "usage error", str(exc)
    except SystemExit as exc:
        return "exit", exc.code, out.getvalue()


def _flag_values(command):
    """Every flag of a command with a value it accepts."""
    argv = []
    for key, (parse, _, help) in _PARAMS[command].items():
        if help is not None:
            argv += [f"--{key.replace('_', '-')}", getattr(parse, "choices", ["1"])[0]]
    return [*argv, "--out", "x.out", "--config", "x.cfg", "--stamp"]


@pytest.mark.parametrize("command", _EVERY_COMMAND)
@pytest.mark.parametrize("flags", [
    "valid", ["--mod", "euclidean"], ["--s", "1"], ["--out"], ["--d", "3", "--out"], ["--wat"], ["--wat", "1"],
    ["-h"], ["--help"], ["--version"], ["--model", "flat"], [],
])
def test_one_command_parser_parses_as_the_full_parser(command, flags, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    argv = [command, *(_flag_values(command) if flags == "valid" else flags)]
    outcome = _parse_outcome(build_parser(), argv)
    if flags == "valid":
        assert outcome[0] == "namespace"
    assert _parse_outcome(_parser([command]), argv) == outcome


# sha256 of the --help text of the top level and of each command at two widths, recorded at
# 1ddad00, when argparse still read the terminal width once per formatter
_HELP_SHA256 = {
    ("", "80"): "8fdd6228cb0eb4f0077b46b5d964cfc7f9c83e2cd94dc170240915b294fedec9",
    ("simulate", "80"): "dafc4276b32cca1b205ae69d6b96d944fd075442d727a280dbf1f8aadc6f0398",
    ("moments", "80"): "87b2b0ec8ab1c04defa9c2cacb358293840b6bbbd145491d9a84b02bf1b92149",
    ("bounds", "80"): "73e3807c5fb82772a10b5e42e5166a75d4b20280ffac49518447301f83b18dd7",
    ("verify-clt", "80"): "17400ff604718f2af99ef3f55318160e8b56413de36d6f92761eaf256fa90791",
    ("render", "80"): "2fba668981a1fa9f85f95b704e3e68957d59360ad00114405ac7ea4a1b08f01b",
    ("width-table", "80"): "6382505f075bc3a892cf8ef87999558c6fb194e6fd57e9a62503a208feb6f6d9",
    ("", "200"): "8fdd6228cb0eb4f0077b46b5d964cfc7f9c83e2cd94dc170240915b294fedec9",
    ("simulate", "200"): "e483ee5a03c5898a63f741745b6a3bbc1cfbf4bc404b64df7eef950744fcf1bd",
    ("moments", "200"): "0b2bd6759cbfbcc62589b83be4a8176fd6b81dc70fc83cd4e7bf028131c46bed",
    ("bounds", "200"): "2494d75f678ee620e01570751542737b8ae6c41a6379520c1a76625ecdbfb2ab",
    ("verify-clt", "200"): "c9b82ea0bbcc710fb3a099b90c1f1cf2622db93f1ad9de1d403e027059a1e419",
    ("render", "200"): "9f2bc2b325023ed39cca2c8857aa40cb30986467d16740d5a6f39c270759de53",
    ("width-table", "200"): "bde53c694e2a08ce00c36d5f88d321fb8236caa569b149c13d82187760bf6a20",
}


@pytest.mark.parametrize("command, columns", sorted(_HELP_SHA256))
def test_help_bytes_are_pinned(command, columns, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", columns)
    with pytest.raises(SystemExit) as exit_:
        main([command, "--help"] if command else ["--help"])
    assert exit_.value.code == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == _HELP_SHA256[command, columns]


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
    "argv",
    [
        # (d - 1) R past the range the log moments can hold, or R not a normal double
        pytest.param(["moments", "--d", "3", "--R", "4e307"], id="moments-4e307"),
        pytest.param(["bounds", "--d-grid", "3", "--R-rule", "fixed:4e307"], id="bounds-4e307"),
        pytest.param(["width-table", "--regime", "a", "--d-grid", "3", "--R-rule", "fixed:1e308"],
                     id="width-table-1e308"),
        pytest.param(["width-table", "--regime", "a", "--d-grid", "3", "--R-rule", "fixed:1e-320"],
                     id="width-table-1e-320"),
    ],
)
def test_extreme_finite_radius_ends_in_one_line(capsys, argv):
    assert main(argv) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("horospheres: error: R must be a normal double no larger than ")


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["moments", "--d", "3", "--R", "1e100"], id="moments-1e100"),
        pytest.param(["bounds", "--d-grid", "3", "--R-rule", "fixed:1e100"], id="bounds-1e100"),
    ],
)
def test_extreme_finite_radius_meets_its_limits(argv):
    # R = 1e100 at d = 3: w = R - 3/2, the mean omega_3 e^{2(R - log 2)}/2 = pi e^{2R}/2, the variance
    # 2 (2 pi)^2 i2 with i2 = w e^{2(R - log 2)}, and both bounds sqrt(2) (1/(sqrt(2) w) + 1/sqrt(w))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _captured(argv)
    assert (code, err) == (0, "")
    R, w = 1e100, 1e100 - 1.5
    if argv[0] == "moments":
        got = json.loads(out)["moments"]
        assert got["mean"]["log"] == pytest.approx(2.0 * R + math.log(0.5 * math.pi), rel=4.4e-16)
        log_variance = math.log(2.0 * (2.0 * math.pi) ** 2 * w) + 2.0 * (R - math.log(2.0))
        assert got["variance"]["log"] == pytest.approx(log_variance, rel=4.4e-16)
    else:
        [row] = json.loads(out)["rows"]
        bound = math.sqrt(2.0) * (1.0 / (math.sqrt(2.0) * w) + 1.0 / math.sqrt(w))
        assert row["width"] == pytest.approx(w, rel=1e-13)
        assert row["wasserstein_bound_width"] == pytest.approx(bound, rel=1e-13)
        assert row["wasserstein_bound_integrals"] == pytest.approx(bound, rel=1e-13)


def _engine_failing_every_tree(log_f, a, b, rel_tol):
    """Every tree fails, as one that cannot converge does."""
    error = QuadratureError("no tree converges", last=0.0, previous=0.0)
    return np.full(len(a), math.nan), {t: error for t in range(len(a))}


@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", "--d-grid", "3,3", "--R-rule", "list:1e100,nan"],
        ["width-table", "--regime", "a", "--d-grid", "3,3", "--R-rule", "list:1e100,nan"],
    ],
    ids=["bounds", "width-table"],
)
def test_grid_is_validated_before_any_quadrature(capsys, monkeypatch, argv):
    # every tree fails in quadrature (exit 3), but the invalid radius of
    # point 1 is found first
    monkeypatch.setattr(analysis, "quad_log_integrals", _engine_failing_every_tree)
    assert main(argv) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "horospheres: error: R must be finite and positive, got nan\n"
    assert main(argv[:-1] + ["fixed:1e100"]) == 3
    assert capsys.readouterr().err == "horospheres: quadrature failure: no tree converges\n"


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
# replaced the per-command parsing; "{cfg}" stands for the path of the config file given as text.
# The two quadrature failures were re-pinned at d = 10^18, R = 1e-300 once moments at d = 10^6,
# R = 1e-300 and bounds at R = 1e100 came to converge: there the width's mass lies within R/10^9
# of s = 0, which the nodes in t = R - s resolve to 7 digits
_FAILURES = {
    "no-command": ([], None, 64, "error: a command is required (try --help)"),
    "unknown-command": (["frobnicate"], None, 64,
                        "error: argument command: invalid choice: 'frobnicate' (choose from 'simulate', 'moments', "
                        "'bounds', 'verify-clt', 'render', 'width-table')"),
    "unknown-flag": ("moments --d 3 --R 1 --wat".split(), None, 64, "error: unrecognized arguments: --wat"),
    # the top level's --version after a command is left to the top level, which names no command
    "version-after-command": ("moments --d 3 --R 1 --version".split(), None, 64,
                              "error: unrecognized arguments: --version"),
    "double-dash-command": ("-- moments --d 3 --R 3".split(), None, 64,
                            "error: argument command: invalid choice: '--' (choose from 'simulate', 'moments', "
                            "'bounds', 'verify-clt', 'render', 'width-table')"),
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
    "moments-tiny-R": ("moments --d 1000000000000000000 --R 1e-300".split(), None, 3,
                       "quadrature failure: panel depth cap (40) reached without convergence"),
    "bounds-tiny-R": ("bounds --d-grid 1000000000000000000 --R-rule fixed:1e-300".split(), None, 3,
                      "quadrature failure: panel depth cap (40) reached without convergence"),
    # every moment is positive, so a log of -inf lies below double range: about -3.5e309 for the mean here
    "moments-log-underflow": (["moments", "--model", "euclidean", "--d", "1" + "0" * 307, "--R", "1"], None, 64,
                              "error: the log of the mean lies below double range"),
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
