"""Command-line interface: outputs, exit codes, determinism, schemas."""

import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import mcp_iso
from mcp_iso import cli
from mcp_iso.cli import main

import reference
from test_cli_reference import printed_rows, row_errors


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_bounds_golden(capsys):
    code, out, _ = run(
        capsys, "bounds", "--N", "2", "--avr", "1", "--mass", "3.141592653589793"
    )
    assert code == 0
    header, row = out.strip().splitlines()
    fields = dict(zip(header.split(","), row.split(",")))
    assert float(fields["mcp_bound"]) == pytest.approx(math.sqrt(2) * math.pi, rel=1e-11)
    assert float(fields["cd_bound"]) == pytest.approx(2 * math.pi, rel=1e-11)


def test_profile_golden_and_sweep(capsys):
    code, out, _ = run(capsys, "profile", "--N", "2", "--D", "1", "--v", "0.5")
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    assert float(row[3]) == pytest.approx(0.5, abs=1e-9)
    assert float(row[5]) == pytest.approx(2.0 / 3.0, rel=1e-9)

    code, out, _ = run(capsys, "profile", "--N", "2", "--D", "1", "--v", "0.1:0.9:5")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 6
    assert [float(l.split(",")[2]) for l in lines[1:]] == pytest.approx(
        [0.1, 0.3, 0.5, 0.7, 0.9]
    )

    # A one-point sweep is its first endpoint.
    code, out, _ = run(capsys, "profile", "--N", "2", "--D", "1", "--v", "0.1:0.5:1")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert lines[1].split(",")[2] == "0.1"


def test_profile_at_large_n_is_a_value(capsys):
    # x^(1-N) overflowed here once; the symmetric point is a = 1/2 exactly
    # and the profile is N / (2^N - 1).
    code, out, _ = run(capsys, "profile", "--N", "30", "--D", "1", "--v", "0.5")
    assert code == 0
    assert out.splitlines()[1] == "30,1,0.5,0.5,2.79396772645e-08,2.79396772645e-08"


def test_log_sweep_spacing(capsys):
    code, out, _ = run(
        capsys, "profile", "--N", "2", "--D", "1", "--v", "1e-4:1e-2:3", "--log"
    )
    assert code == 0
    vs = [float(l.split(",")[2]) for l in out.strip().splitlines()[1:]]
    assert vs == pytest.approx([1e-4, 1e-3, 1e-2])


def test_sharp_gap_passes(capsys):
    code, out, _ = run(
        capsys, "sharp", "--avr", "0.159154943", "--mass", "1", "--N", "2"
    )
    assert code == 0
    header, row = out.strip().splitlines()
    idx = header.split(",").index("gap")
    # csv module quotes the embedded-json density column, so split carefully
    import csv as _csv
    gap = float(next(_csv.reader([row]))[idx])
    assert abs(gap) <= 1e-10


@pytest.mark.parametrize("scale", [0.99, 1.01])
def test_sharp_fails_on_a_misplaced_set(capsys, monkeypatch, scale):
    # [0, s x_star] for s != 1 misses the bound at its own measure by about
    # 5e-3 relative at N = 2: the row is printed and the check exits 2.
    def misplaced(avr, mass, N):
        space, _ = mcp_iso.sharp_space(avr, mass, N)
        return space, mcp_iso.IntervalUnion([(0.0, scale * space.h.x_star)])

    monkeypatch.setattr(cli, "sharp_space", misplaced)
    code, out, _ = run(capsys, "sharp", "--avr", "0.2", "--mass", "1", "--N", "2")
    assert code == 2
    header, row = out.splitlines()
    assert header.startswith("avr,mass,N,x_star,set_measure,")
    assert row.startswith("0.2,1,2,")


@pytest.mark.parametrize("avr, N", [("1", "500"), ("1", "439"), ("1e308", "2")])
def test_sharp_out_of_float_range_is_one_error_line(capsys, avr, N):
    # The tail coefficient N omega_N avr leaves the normal floats: the
    # refusal is one error line, with no numpy warning on the way.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "sharp", "--avr", avr, "--mass", "1", "--N", N)
    assert (code, out, caught) == (1, "", [])
    (line,) = err.splitlines()
    assert line.startswith("error: sharp density at N = ")
    assert f"N = {float(N):g}, avr = {float(avr):g}" in line


def test_sharp_at_N_400_prints_its_row(capsys):
    # The tail piece's x^400 overflows from x_star on, but the set [0, x_star]
    # holds only an empty part of it, which counts 0: the row is printed, and
    # each cell matches its 50-digit reference.
    argv = ["sharp", "--avr", "1", "--mass", "1e40", "--N", "400"]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    (ref,) = reference.rows(argv, {})
    assert float(ref["bound"]) == pytest.approx(1.65134518599763e39, rel=1e-14)
    assert float(ref["x_star"]) == pytest.approx(6.05566909014162, rel=1e-14)
    assert row_errors(printed_rows(out, "csv"), [ref]) == []


def test_validate_density_exit_codes(capsys, tmp_path):
    space = {"D": "inf", "density": {"type": "monomial", "c": 1.0, "p": 1.0}}
    path = write_json(tmp_path, "space.json", space)
    code, out, _ = run(capsys, "validate-density", "--space", path, "--N", "2")
    assert code == 0
    assert out.splitlines()[1].startswith("pass_exact")
    code, out, _ = run(capsys, "validate-density", "--space", path, "--N", "1.9")
    assert code == 2
    assert out.splitlines()[1].startswith("fail")


def test_expansion_table(capsys):
    code, out, _ = run(capsys, "expansion", "--N", "2", "--v", "1e-2:1e-6:5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "v,profile,ratio,leading,rel_deviation"
    last = lines[-1].split(",")
    assert float(last[0]) == pytest.approx(1e-6)
    assert float(last[4]) < 1e-2  # close to the leading coefficient already

    # One point is the sweep's first endpoint alone.
    code, out, _ = run(capsys, "expansion", "--N", "2", "--v", "1e-2:1e-6:1")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert lines[1].split(",")[0] == "0.01"


def test_min_dimension_and_none_case(capsys, tmp_path):
    cone = write_json(
        tmp_path, "cone.json", {"D": "inf", "density": {"type": "monomial", "c": 1.0, "p": 1.0}}
    )
    code, out, _ = run(capsys, "min-dimension", "--space", cone)
    assert code == 0
    assert float(out.splitlines()[1]) == pytest.approx(2.0, abs=1e-6)

    square = write_json(
        tmp_path, "square.json", {"D": 1.0, "density": {"type": "monomial", "c": 1.0, "p": 2.0}}
    )
    code, out, _ = run(capsys, "min-dimension", "--space", square, "--n-hi", "2.5")
    assert code == 2
    assert out.splitlines()[1] == "none"


def test_printed_min_dimension_passes_the_check(capsys, tmp_path):
    # The least passing N is 3.98835698185249...; rounded to 12 digits it
    # fell below the threshold, so the printed value failed the check.
    space = write_json(tmp_path, "tab.json", {
        "D": 3.0, "density": {"type": "tabulated", "grid": [0, 1, 2, 3], "values": [0, 1, 4, 0]},
    })
    code, out, _ = run(capsys, "validate-density", "--space", space, "--N", "3.98835698185")
    assert code == 2
    for precision, shown in (("12", "3.98835698186"), ("5", "3.9884"), ("1", "4")):
        code, out, _ = run(capsys, "min-dimension", "--space", space, "--precision", precision)
        assert (code, out.splitlines()[1]) == (0, shown)
        code, out, _ = run(capsys, "validate-density", "--space", space, "--N", shown)
        assert code == 0, out


def test_min_dimension_rejects_an_infinite_upper_end(tmp_path):
    # The bisection midpoint of [n_lo, inf] is inf, so the search never
    # narrowed; a separate process lets the timeout catch that.
    cone = write_json(
        tmp_path, "cone.json", {"D": "inf", "density": {"type": "monomial", "c": 1.0, "p": 1.0}}
    )
    env = dict(os.environ, PYTHONPATH=str(Path(mcp_iso.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "mcp_iso.cli", "min-dimension", "--space", cone, "--n-hi", "inf"],
        capture_output=True, text=True, timeout=20, env=env,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ")


def test_avr_command(capsys, tmp_path):
    space = write_json(
        tmp_path,
        "sharp.json",
        {"D": "inf", "density": {"type": "paper_sharp", "avr": 0.25, "mass": 1.0, "N": 2.0}},
    )
    code, out, _ = run(capsys, "avr", "--space", space, "--N", "2")
    assert code == 0
    row = out.splitlines()[1].split(",")
    assert float(row[0]) == pytest.approx(0.25, rel=1e-11)
    assert row[1] == "True"


def test_search_command(capsys, tmp_path):
    space = write_json(
        tmp_path,
        "sharp.json",
        {"D": "inf", "density": {"type": "paper_sharp", "avr": 0.2, "mass": 1.0, "N": 2.0}},
    )
    config = write_json(
        tmp_path,
        "config.json",
        {"N": 2.0, "volumes": [0.5, 1.0], "grid_points": 128, "max_components": 2,
         "volume_tolerance": 1e-9},
    )
    code, out, _ = run(capsys, "search", "--space", space, "--config", config)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "v,content,bound,margin,best_set,slack"
    assert len(lines) == 3


def test_localize_command_and_json_format(capsys, tmp_path):
    model = write_json(
        tmp_path,
        "plane.json",
        {"theta": 2.0 * math.pi, "weight": {"type": "monomial", "c": 1.0, "p": 1.0},
         "N": 2.0, "ray_length": "inf"},
    )
    code, out, _ = run(
        capsys, "localize", "--model", model, "--r", "1", "--R", "8:400:3",
        "--log", "--format", "json",
    )
    assert code == 0
    records = json.loads(out)
    assert len(records) == 3
    assert records[0]["m_plus"] == pytest.approx(2 * math.pi, rel=1e-9)
    assert all(rec["ordered"] is True for rec in records)
    assert records[-1]["scaled_profile_bound"] == pytest.approx(4.4188171, rel=1e-5)


def test_malformed_json_diagnostics(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"D": \n')
    code, out, err = run(capsys, "avr", "--space", str(bad), "--N", "2")
    assert code == 1
    assert out == ""
    assert "line" in err and "column" in err


@pytest.mark.parametrize("text, field", [
    ('{"D": 1, "D": 2, "density": {"type": "constant", "c": 1}}', "D"),
    ('{"D": 1, "density": {"type": "constant", "c": 1, "c": 2}}', "c"),
], ids=["space", "nested-density"])
def test_a_field_given_twice_is_refused(capsys, tmp_path, text, field):
    # json.load alone keeps the last value, so the first would be dropped unread.
    path = tmp_path / "space.json"
    path.write_text(text)
    code, out, err = run(capsys, "avr", "--space", str(path), "--N", "2")
    assert (code, out) == (1, "")
    assert err == f"error: {path}: field '{field}' is given twice in one object\n"


def test_missing_field_diagnostics(capsys, tmp_path):
    path = write_json(tmp_path, "incomplete.json", {"D": 1.0})
    code, _, err = run(capsys, "avr", "--space", str(path), "--N", "2")
    assert code == 1
    assert "density" in err


SHARP_SPACE = {"D": "inf", "density": {"type": "paper_sharp", "avr": 0.2, "mass": 1.0, "N": 2.0}}
PLANE_MODEL = {"theta": 2.0 * math.pi, "weight": {"type": "monomial", "c": 1.0, "p": 1.0},
               "N": 2.0, "ray_length": "inf"}
INFINITE_ANGLE_MODEL = {**PLANE_MODEL, "theta": "1e400"}
HUGE_ANGLE_MODEL = {**PLANE_MODEL, "theta": 1e300}
TINY_ANGLE_MODEL = {**PLANE_MODEL, "theta": 1e-320}
CONE_SPACE = {"D": "inf", "density": {"type": "monomial", "c": 1, "p": 1}}
HUGE_TABLE_SPACE = {"D": 3, "density": {"type": "tabulated", "grid": [0, 1, 2, 3],
                                        "values": [1e308, 1e308, 1e308, 1e308]}}
TABLE_DENSITY = {"type": "tabulated", "grid": [0, 1, 2, 3], "values": [1, 2, 3, 4]}
# x^1.5, then c * x^0.6 from x = 1.5 on [0, 3]: its least passing N is 2.5.
PIECEWISE_SPACE = {"D": 3.0, "density": {
    "type": "piecewise_monomial", "breakpoints": [1.5],
    "pieces": [{"c": 1.0, "p": 1.5}, {"c": 1.5 ** 0.9, "p": 0.6}]}}
# The same shape on [0, 0.9]: at N = 1000, x^(N-1) underflows at the first
# positive sample and (D - x)^(N-1) at the last below D.
SHORT_PIECEWISE_SPACE = {"D": 0.9, "density": {
    "type": "piecewise_monomial", "breakpoints": [0.45],
    "pieces": [{"c": 1, "p": 1.5}, {"c": 0.48740643917899545, "p": 0.6}]}}
# x^400 on [0, 1e10], and its piecewise twin (x, then x^400 from x = 1): h
# overflows at the ratio check's samples.
POWER_400 = {"type": "monomial", "c": 1, "p": 400}
POWER_400_SPACE = {"D": 1e10, "density": POWER_400}
PIECEWISE_400_SPACE = {"D": 1e10, "density": {
    "type": "piecewise_monomial", "breakpoints": [1],
    "pieces": [{"c": 1, "p": 1}, {"c": 1, "p": 400}]}}
# Both pieces x^2 leave the float range at the breakpoint 1e200.
BREAKPOINT_OVERFLOW_SPACE = {"D": 3, "density": {
    "type": "piecewise_monomial", "breakpoints": [1e200],
    "pieces": [{"c": 1, "p": 2}, {"c": 1, "p": 2}]}}
# A table whose trapezoid 0.5 * (1e308 + 1e308) overflows inside it.
PEAK_TABLE_SPACE = {"D": 2, "density": {"type": "tabulated", "grid": [0, 1, 2],
                                        "values": [1, 1e308, 1]}}


def search_files(**config):
    """The --space and --config payloads of a search on the sharp space."""
    return {"--space": SHARP_SPACE, "--config": {"N": 2.0, "volumes": [0.5], **config}}


def sweep_files(**sweep):
    """A search on the sharp space over the volumes sweep 0.5:2:3 with these keys."""
    return {"--space": SHARP_SPACE,
            "--config": {"N": 2, "volumes": {"sweep": "0.5:2:3", **sweep}, "grid_points": 64}}


# Malformed descriptors, each with the descriptor and field its one error line names.
MALFORMED_DESCRIPTORS = {
    "localize-theta-null": (("localize", "--r", "1", "--R", "4"),
                            {"--model": {**PLANE_MODEL, "theta": None}},
                            "model descriptor field 'theta' must be a number"),
    "search-config-list": (("search",), {"--space": SHARP_SPACE, "--config": [1, 2]},
                           "search config must be a JSON object"),
    "piece-list": (("validate-density", "--N", "3"),
                   {"--space": {"D": 3.0, "density": {**PIECEWISE_SPACE["density"],
                                                      "pieces": [[1, 2], {"c": 1, "p": 1}]}}},
                   "a piece of the density descriptor of type 'piecewise_monomial' "
                   "must be a JSON object"),
    "space-density-list": (("avr", "--N", "2"), {"--space": {"D": 1.0, "density": [1]}},
                           "density descriptor must be a JSON object"),
    "sweep-log-string": (("search",), sweep_files(log="false"),
                         "the volumes sweep field 'log' must be true or false, got 'false'"),
    "sweep-unknown-key": (("search",), sweep_files(lgo=True),
                          "the volumes sweep has unknown field 'lgo'"),
    "sweep-log-single-value": (("search",), search_files(volumes={"sweep": "0.5", "log": True}),
                               "a log sweep needs a:b:n, got '0.5'"),
    "profile-log-single-value": (("profile", "--N", "2", "--D", "1", "--v", "0.3", "--log"), {},
                                 "a log sweep needs a:b:n, got '0.3'"),
    "localize-log-single-value": (("localize", "--r", "1", "--R", "8", "--log"),
                                  {"--model": PLANE_MODEL}, "a log sweep needs a:b:n, got '8'"),
    "table-slope-overflow": (("validate-density", "--N", "3"),
                             {"--space": {"D": 1, "density": {"type": "tabulated",
                                                              "grid": [0, 1e-300, 1],
                                                              "values": [1.7e308, 0, 1]}}},
                             "tabulated density's slope on segment 0, [0.0, 1e-300], "
                             "leaves the float range"),
    "search-avr-null": (("search",), search_files(avr=None),
                        "search config field 'avr' must be a number, got None"),
    "search-window-list": (("search",), search_files(window=[1]),
                           "search config field 'window' must be a number, got [1]"),
    "search-tolerance-null": (("search",), search_files(volume_tolerance=None),
                              "search config field 'volume_tolerance' must be a number, got None"),
    "search-volume-null": (("search",), search_files(volumes=[0.5, None]),
                           "search config field 'volumes' element 1 must be a number, got None"),
    "sweep-not-a-string": (("search",), search_files(volumes={"sweep": 5}),
                           "the volumes sweep field 'sweep' must be a string a:b:n, got 5"),
    "table-grid-null": (("validate-density", "--N", "3"),
                        {"--space": {"D": 3, "density": {**TABLE_DENSITY, "grid": [0, None, 2, 3]}}},
                        "density descriptor of type 'tabulated' field 'grid' element 1 "
                        "must be a number, got None"),
    "table-values-text": (("validate-density", "--N", "3"),
                          {"--space": {"D": 3, "density": {**TABLE_DENSITY,
                                                           "values": [1, 2, "x", 4]}}},
                          "density descriptor of type 'tabulated' field 'values' element 2 "
                          "must be a number, got 'x'"),
    "table-grid-number": (("validate-density", "--N", "3"),
                          {"--space": {"D": 3, "density": {**TABLE_DENSITY, "grid": 3}}},
                          "density descriptor of type 'tabulated' field 'grid' "
                          "must be an array, got 3"),
    "pieces-number": (("validate-density", "--N", "3"),
                      {"--space": {"D": 3.0, "density": {**PIECEWISE_SPACE["density"], "pieces": 5}}},
                      "density descriptor of type 'piecewise_monomial' field 'pieces' "
                      "must be an array, got 5"),
    "table-value-negative": (("validate-density", "--N", "3"),
                             {"--space": {"D": 3, "density": {**TABLE_DENSITY,
                                                              "values": [1, -2, 3, 4]}}},
                             "tabulated value 1 must be non-negative and finite, got -2.0"),
    "table-grid-repeated": (("validate-density", "--N", "3"),
                            {"--space": {"D": 3, "density": {**TABLE_DENSITY,
                                                             "grid": [0, 1, 1, 3]}}},
                            "tabulated grid must be finite and strictly increasing, got 1.0 at "
                            "element 2"),
    "sweep-endpoint-text": (("profile", "--N", "2", "--D", "1", "--v", "0.5:x:3"), {},
                            "sweep '0.5:x:3' element 1 must be a number, got 'x'"),
    "sweep-count-fraction": (("profile", "--N", "2", "--D", "1", "--v", "0.1:1:2.5"), {},
                             "the point count of sweep '0.1:1:2.5' must be an integer >= 1, "
                             "got '2.5'"),
    "sweep-single-text": (("localize", "--r", "1", "--R", "x"), {"--model": PLANE_MODEL},
                          "sweep 'x' must be a number, got 'x'"),
    "search-sweep-endpoint-text": (("search",), search_files(volumes={"sweep": "0.5:x:3"}),
                                   "sweep '0.5:x:3' element 1 must be a number, got 'x'"),
    "log-sweep-nonpositive": (("profile", "--N", "2", "--D", "1", "--v", "0:1:3", "--log"), {},
                              "log sweeps need positive endpoints, got '0:1:3'"),
    "search-log-sweep-nonpositive": (("search",),
                                     search_files(volumes={"sweep": "0:1:3", "log": True}),
                                     "log sweeps need positive endpoints, got '0:1:3'"),
    "search-avr-huge-integer": (("search",), search_files(avr=10 ** 400),
                                "search config field 'avr' must be a number, got 1000"),
    "breakpoints-null": (("validate-density", "--N", "3"),
                         {"--space": {"D": 3.0, "density": {**PIECEWISE_SPACE["density"],
                                                            "breakpoints": [None]}}},
                         "density descriptor of type 'piecewise_monomial' field 'breakpoints' "
                         "element 0 must be a number, got None"),
}


def run_with_files(capsys, tmp_path, argv, files):
    for flag, payload in files.items():
        # A payload of None names a file that does not exist.
        path = tmp_path / f"{flag.strip('-')}.json"
        if payload is not None:
            path.write_text(json.dumps(payload))
        argv += (flag, str(path))
    return run(capsys, *argv)


@pytest.mark.parametrize(
    "argv, files",
    [
        (("profile", "--N", "2", "--D", "1", "--v", "0:1:x"), {}),
        (("validate-density", "--N", "2"),
         {"--space": {"D": "foo", "density": {"type": "constant", "c": 1.0}}}),
        (("validate-density", "--N", "2"),
         {"--space": {"D": 1.0, "density": {"type": "constant", "c": "a"}}}),
        (("validate-density", "--N", "2"),
         {"--space": {"D": 1.0, "density": {"type": "constant", "c": None}}}),
        (("profile", "--N", "2", "--D", "1", "--v", "0.1:0.2"), {}),
        (("profile", "--N", "2", "--D", "1", "--v", "0.1:0.2:-3"), {}),
        (("profile", "--N", "2", "--D", "1", "--v", "0.1:0.2:0"), {}),
        (("profile", "--N", "2", "--D", "1", "--v", "0:0.2:3", "--log"), {}),
        (("expansion", "--N", "2", "--v", "0:0.01:3"), {}),
        (("expansion", "--N", "2", "--v", "1e-2:1e-8:0"), {}),
        (("bounds", "--N", "2", "--avr", "nan", "--mass", "1"), {}),
        (("bounds", "--N", "2", "--avr", "1", "--mass", "nan"), {}),
        (("avr", "--N", "2"), {"--space": None}),
        (("min-dimension", "--n-lo", "1"), {"--space": SHARP_SPACE}),
        (("min-dimension", "--n-lo", "3", "--n-hi", "2"), {"--space": SHARP_SPACE}),
        (("search",), search_files(volumes=0.5)),
        (("search",), search_files(volumes=[])),
        (("search",), search_files(volumes={"sweep": "0.1:0.5:0"})),
        (("search",), search_files(volumes={"log": True})),
        (("search",), search_files(grid_points=2.7)),
        (("search",), search_files(max_components=1.9)),
        (("search",), search_files(max_components=True)),
        (("search",), search_files(volume_tolerance="inf")),
        (("search",), search_files(volume_tolerance="nan")),
        (("search",), search_files(avr="nan")),
        (("search",), search_files(volumes=["nan"])),
        (("search",), search_files(volumes=["inf"])),
        (("profile", "--N", "2", "--D", "1", "--v", "0.1:1e400:3"), {}),
        (("profile", "--N", "2", "--D", "1", "--v", "0.1:1e400:3", "--log"), {}),
        (("expansion", "--N", "2", "--v", "inf:0.01:3"), {}),
        (("localize", "--r", "1", "--R", "8:inf:3"), {"--model": PLANE_MODEL}),
        (("search",), search_files(volumes={"sweep": "0.1:1e400:3"})),
        (("bounds", "--N", "2", "--avr", "inf", "--mass", "1"), {}),
        (("bounds", "--N", "2", "--avr", "1", "--mass", "inf"), {}),
        (("profile", "--N", "x", "--D", "1", "--v", "0.5"), {}),
        (("profile", "--N", "2", "--v", "0.5"), {}),
        (("frobnicate",), {}),
        (("avr", "--N", "2", "--r-max", "5"), {"--space": SHARP_SPACE}),
        (("search",), search_files(grid_pionts=64)),
        (("localize", "--r", "1", "--R", "8:400:3"), {"--model": INFINITE_ANGLE_MODEL}),
        (("localize", "--r", "1e-201", "--R", "1e-200"), {"--model": PLANE_MODEL}),
        (("localize", "--r", "1e-160", "--R", "1e-155"), {"--model": PLANE_MODEL}),
        (("localize", "--r", "1", "--R", "1e200"), {"--model": PLANE_MODEL}),
        (("localize", "--r", "1", "--R", "1e10"), {"--model": HUGE_ANGLE_MODEL}),
        (("localize", "--r", "1e-5", "--R", "1e-4"), {"--model": TINY_ANGLE_MODEL}),
        (("bounds", "--N", "2", "--avr", "1e308", "--mass", "1e308"), {}),
        (("bounds", "--N", "1e308", "--avr", "1", "--mass", "1"), {}),
        (("sharp", "--N", "1e308", "--avr", "1", "--mass", "1"), {}),
        (("search",), search_files(avr=1e-300)),
        (("search",), {"--space": CONE_SPACE,
                       "--config": {"N": 2, "volumes": [1e300], "avr": 1}}),
        (("search",), search_files(N=1.01, volumes=[1e300], avr=1e-300)),
        (("search",), search_files(N=1.01, volumes=[1.0], avr=1e-320)),
        (("search",), search_files(volumes=[1e300])),
        (("search",), {"--space": HUGE_TABLE_SPACE, "--config": {"N": 2, "volumes": [1.0]}}),
        (("search",), {"--space": HUGE_TABLE_SPACE,
                       "--config": {"N": 2, "volumes": [1.0], "max_components": 1}}),
        (("profile", "--N", "2", "--D", "1e-320", "--v", "0.3"), {}),
        (("validate-density", "--N", "1000"), {"--space": PIECEWISE_SPACE}),
        (("validate-density", "--N", "1000"), {"--space": SHORT_PIECEWISE_SPACE}),
        (("profile", "--N", "2", "--D", "1", "--v=0:1:1", "--log"), {}),
        (("localize", "--r", "1", "--R", "8:0:1", "--log"), {"--model": PLANE_MODEL}),
        (("expansion", "--N", "2", "--v", "1e-2:-1:1"), {}),
        *((argv, files) for argv, files, _ in MALFORMED_DESCRIPTORS.values()),
    ],
    ids=[
        "sweep-count", "space-D", "density-string", "density-null",
        "sweep-two-parts", "sweep-negative-count", "sweep-zero-count", "log-sweep-zero",
        "expansion-v-range", "expansion-points-zero", "bounds-avr-nan", "bounds-mass-nan",
        "unreadable-file", "n-lo-one", "n-hi-below-n-lo", "volumes-scalar", "volumes-empty",
        "volumes-empty-sweep", "volumes-without-sweep",
        "grid-points-float", "max-components-float", "max-components-bool",
        "volume-tolerance-inf", "volume-tolerance-nan", "avr-nan", "volume-nan",
        "volume-inf", "sweep-inf-endpoint", "log-sweep-inf-endpoint", "expansion-v-max-inf",
        "localize-sweep-inf-endpoint", "volumes-sweep-inf-endpoint", "bounds-avr-inf",
        "bounds-mass-inf", "flag-not-a-number", "flag-missing", "unknown-subcommand",
        "avr-r-max", "search-unknown-field", "localize-theta-inf",
        "localize-ray-mass-zero", "localize-ray-mass-subnormal", "localize-ray-mass-inf",
        "localize-quotient-mass-inf", "localize-quotient-mass-zero", "bounds-overflow", "bounds-lgamma-overflow", "sharp-lgamma-overflow",
        "search-slack-overflow", "search-cone-slack-overflow",
        "search-window-overflow", "search-window-radius-overflow",
        "search-slack-overflow-positive-margin",
        "search-prefix-overflow", "search-1c-prefix-overflow", "profile-overflow",
        "ratio-power-overflow", "ratio-power-underflow", "log-sweep-one-point-zero",
        "localize-log-sweep-one-point-zero-end", "expansion-one-point-negative-endpoint",
        *MALFORMED_DESCRIPTORS,
    ],
)
def test_malformed_input_is_a_usage_error(capsys, tmp_path, argv, files):
    code, out, err = run_with_files(capsys, tmp_path, argv, files)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "argv, files, named",
    [
        (("profile", "--N", "2", "--D", "1", "--v", "0.1:1e400:3"), {}, "'0.1:1e400:3'"),
        (("profile", "--N", "2", "--D", "1", "--v", "1e-3:1e400:3", "--log"), {},
         "'1e-3:1e400:3'"),
        (("localize", "--r", "1", "--R", "8:inf:3"), {"--model": PLANE_MODEL}, "'8:inf:3'"),
        (("search",), search_files(volumes={"sweep": "nan:1:3"}), "'nan:1:3'"),
        (("expansion", "--N", "2", "--v", "inf:0.01:3"), {}, "'inf:0.01:3'"),
        (("expansion", "--N", "2", "--v", "1e-2:1e-8:0"), {}, "'1e-2:1e-8:0'"),
        (("search",), search_files(volumes=["inf"]), "volume must be non-negative and finite"),
        (("localize", "--r", "1", "--R", "8:400:3"), {"--model": INFINITE_ANGLE_MODEL},
         "theta must be positive and finite, got inf"),
        (("localize", "--r", "1e-201", "--R", "1e-200"), {"--model": PLANE_MODEL},
         "at R=1e-200 the ray mass 0.0 "),
        (("localize", "--r", "1e-160", "--R", "1e-155"), {"--model": PLANE_MODEL},
         "at R=1e-155 the ray mass 5e-311 "),
        (("localize", "--r", "1", "--R", "1e200"), {"--model": PLANE_MODEL},
         "at R=1e+200 the ray mass inf "),
        (("localize", "--r", "1", "--R", "1e10"), {"--model": HUGE_ANGLE_MODEL},
         "at R=10000000000.0 the quotient mass theta * ray mass = 1e+300 * 5e+19 is inf"),
        (("localize", "--r", "1e-5", "--R", "1e-4"), {"--model": TINY_ANGLE_MODEL},
         "the quotient mass theta * ray mass = 1e-320 * 5e-09 is 0.0"),
        (("bounds", "--N", "2", "--avr", "1e308", "--mass", "1e308"), {},
         "leaves the float range at N=2.0, avr=1e+308, mass=1e+308"),
        (("bounds", "--N", "1e308", "--avr", "1", "--mass", "1"), {},
         "lgamma(N/2 + 1) overflows at N = 1e+308"),
        (("sharp", "--N", "1e308", "--avr", "1", "--mass", "1"), {},
         "lgamma(N/2 + 1) overflows at N = 1e+308"),
        (("search",), search_files(avr=1e-300), "at v=0.5, N=2.0, avr=1e-300"),
        (("search",), {"--space": CONE_SPACE, "--config": {"N": 2, "volumes": [1e300], "avr": 1}},
         "the slack gap * max h = "),
        (("search",), search_files(N=1.01, volumes=[1e300], avr=1e-300),
         "the search window leaves the float range at v=1e+300, N=1.01, avr=1e-300"),
        (("search",), search_files(N=1.01, volumes=[1.0], avr=1e-320),
         "the search window leaves the float range at v=1.0, N=1.01, avr=1e-320"),
        (("search",), search_files(volumes=[1e300]), "at v=1e+300, N=2.0, avr=0.2"),
        (("search",), {"--space": HUGE_TABLE_SPACE, "--config": {"N": 2, "volumes": [1.0]}},
         "the prefix measures on the window [0, 3.0] leave the float range"),
        (("search",), {"--space": HUGE_TABLE_SPACE,
                       "--config": {"N": 2, "volumes": [1.0], "max_components": 1}},
         "the prefix measures on the window [0, 3.0] leave the float range"),
        (("profile", "--N", "2", "--D", "1e-320", "--v", "0.3"), {},
         "leaves the float range at N=2.0, D=1e-320"),
        (("validate-density", "--N", "1000"), {"--space": PIECEWISE_SPACE},
         "x^(N-1) leaves the float range at N=1000.0, sample x=3.0, D=3.0"),
        (("validate-density", "--N", "1000"), {"--space": SHORT_PIECEWISE_SPACE},
         "x^(N-1) leaves the float range at N=1000.0, sample x=0.0017612524461839531, D=0.9"),
        (("validate-density", "--N", "2"), {"--space": POWER_400_SPACE},
         "the ratio check's h is inf at sample x=2500000000.0, D=10000000000.0"),
        (("validate-density", "--N", "2"), {"--space": PIECEWISE_400_SPACE},
         "the ratio check's h is inf at sample x=19569471.624266144, D=10000000000.0"),
        (("min-dimension", "--n-hi", "500"), {"--space": POWER_400_SPACE},
         "the ratio check's h is inf at sample x=2500000000.0, D=10000000000.0"),
        (("min-dimension", "--n-hi", "500"), {"--space": PIECEWISE_400_SPACE},
         "the ratio check's h is inf at sample x=19569471.624266144, D=10000000000.0"),
        (("localize", "--r", "1", "--R", "8"),
         {"--model": {"theta": 1, "weight": POWER_400, "N": 2, "ray_length": 1e10}},
         "the ratio check's h is inf at sample x=2500000000.0, D=10000000000.0"),
        (("search",), {"--space": PEAK_TABLE_SPACE,
                       "--config": {"N": 2, "volumes": [0.5], "grid_points": 64,
                                    "max_components": 1}},
         "the prefix measures on the window [0, 2.0] leave the float range"),
        (("validate-density", "--N", "3"), {"--space": BREAKPOINT_OVERFLOW_SPACE},
         "pieces leave the float range at breakpoint 1e+200"),
        *MALFORMED_DESCRIPTORS.values(),
    ],
    ids=["sweep", "log-sweep", "localize-sweep", "search-sweep", "expansion",
         "expansion-points", "search-volume", "localize-theta", "localize-ray-mass-zero",
         "localize-ray-mass-subnormal", "localize-ray-mass-inf", "localize-quotient-mass-inf",
         "localize-quotient-mass-zero", "bounds-overflow",
         "bounds-lgamma-overflow", "sharp-lgamma-overflow",
         "search-slack-overflow", "search-cone-slack-overflow", "search-window-overflow",
         "search-window-radius-overflow", "search-slack-overflow-positive-margin",
         "search-prefix-overflow", "search-1c-prefix-overflow", "profile-overflow",
         "ratio-power-overflow", "ratio-power-underflow", "ratio-h-overflow",
         "ratio-piecewise-h-overflow", "min-dimension-h-overflow",
         "min-dimension-piecewise-h-overflow", "localize-weight-overflow",
         "search-trapezoid-overflow", "piecewise-breakpoint-overflow",
         *MALFORMED_DESCRIPTORS],
)
def test_non_finite_input_is_named_in_the_error(capsys, tmp_path, argv, files, named):
    # A non-finite endpoint or volume, or a point count below 1, is reported
    # as given, not as the NaN, window or sweep that computing with it would
    # produce; a result that leaves the float range names the inputs that
    # put it there, on one line.  So does a malformed descriptor: the
    # descriptor and the field at fault.
    code, _, err = run_with_files(capsys, tmp_path, argv, files)
    assert code == 1
    assert named in err
    assert err.count("\n") == 1


# Malformed JSON values put into every field of every descriptor the CLI reads.
MALFORMED_VALUES = [None, "x", [1], {"a": 1}, 5, True, -1, 0, "inf", "nan", [], [None], "1e400",
                    1e308, [[1, 2]], [1, "x"]]
FIELD_DENSITIES = {
    "constant": {"type": "constant", "c": 1.0},
    "monomial": {"type": "monomial", "c": 1.0, "p": 1.0},
    "piecewise_monomial": {"type": "piecewise_monomial", "breakpoints": [1.0],
                           "pieces": [{"c": 1.0, "p": 1.0}, {"c": 1.0, "p": 0.0}]},
    "paper_sharp": {"type": "paper_sharp", "avr": 0.2, "mass": 1.0, "N": 2.0},
    "tabulated": {"type": "tabulated", "grid": [0.0, 1.0, 2.0], "values": [0.0, 1.0, 1.5]},
}
FIELD_SPACE = {"D": 2.0, "density": FIELD_DENSITIES["constant"]}
FIELD_MODEL = {"theta": 1.0, "weight": FIELD_DENSITIES["monomial"], "N": 3.0, "ray_length": 2.0}
FIELD_CONFIG = {"N": 2.0, "volumes": [0.5], "avr": 0.2, "volume_tolerance": 1e-9,
                "grid_points": 64, "max_components": 2, "window": 4.0}
# Other words an error uses for a field: the library's name for it (the
# ratio check names a model's ray_length as its domain end D).
FIELD_ALIASES = {
    "D": ("diameter",), "ray_length": ("D",),
    "N": ("dimension",), "p": ("exponent",), "pieces": ("piece",), "breakpoints": ("breakpoint",),
    "values": ("tabulated value",), "volumes": ("volume",),
}
PYTHON_TEXTS = ("is not iterable", "could not convert", "invalid literal", "object is not",
                "argument must be", "not supported between", "too large to convert", "to unpack",
                "Numerical result out of range")


def _field_cases(kind):
    """(label, argv, files, names, refused) for each malformed value in each
    field of one descriptor; names are the words one of which the error must
    use, and refused says the value must be refused: a bool, in any field."""
    validate, localize = ("validate-density", "--N", "3"), ("localize", "--r", "0.25", "--R", "1")
    if kind in FIELD_DENSITIES:
        density = FIELD_DENSITIES[kind]
        fields = {name: lambda v, name=name: {**density, name: v} for name in density}
        if kind == "piecewise_monomial":
            for key in ("c", "p"):
                fields[f"pieces[0].{key}"] = lambda v, key=key: {
                    **density, "pieces": [{"c": 1.0, "p": 1.0, key: v}, {"c": 1.0, "p": 0.0}]}
        contexts = [(validate, lambda d: {"--space": {**FIELD_SPACE, "density": d}},
                     ("density descriptor",)),
                    (localize, lambda d: {"--model": {**FIELD_MODEL, "weight": d}},
                     ("density descriptor", "radial weight"))]
    else:
        base, argv, flag, what = {
            "space": (FIELD_SPACE, validate, "--space", ("space descriptor", "density descriptor")),
            "model": (FIELD_MODEL, localize, "--model", ("model descriptor", "density descriptor")),
            "config": (FIELD_CONFIG, ("search",), "--config", ("search config",)),
        }[kind]
        fields = {name: lambda v, name=name: {**base, name: v} for name in base}
        extra = {"--space": SHARP_SPACE} if kind == "config" else {}
        contexts = [(argv, lambda d: {**extra, flag: d}, what)]
    for name, make in fields.items():
        # A piece's field is named by its own name or as part of the pieces.
        words = {name.split("[")[0], name.rsplit(".", 1)[-1]}
        for argv, files, what in contexts:
            names = (*words, *(a for w in words for a in FIELD_ALIASES.get(w, ())), *what)
            for value in MALFORMED_VALUES:
                yield (f"{kind}.{name}={value!r} via {argv[0]}", argv, files(make(value)), names,
                       value is True)


def _stray_field_cases(kind):
    """(label, argv, files, what) for a field "stray" put into each descriptor
    of one kind; what names the descriptor as its error must."""
    validate, localize = ("validate-density", "--N", "3"), ("localize", "--r", "0.25", "--R", "1")
    if kind in FIELD_DENSITIES:
        what = f"density descriptor of type '{kind}'"
        density = {**FIELD_DENSITIES[kind], "stray": 1}
        yield kind, validate, {"--space": {**FIELD_SPACE, "density": density}}, what
        yield kind, localize, {"--model": {**FIELD_MODEL, "weight": density}}, what
        if kind == "piecewise_monomial":
            pieces = [{"c": 1.0, "p": 1.0, "stray": 1}, {"c": 1.0, "p": 0.0}]
            yield ("piece", validate, {"--space": {**FIELD_SPACE, "density": {
                **FIELD_DENSITIES[kind], "pieces": pieces}}}, f"a piece of the {what}")
    elif kind == "sweeps":
        yield kind, ("search",), sweep_files(stray=1), "the volumes sweep"
    else:
        yield {
            "space": (kind, validate, {"--space": {**FIELD_SPACE, "stray": 1}}, "space descriptor"),
            "model": (kind, localize, {"--model": {**FIELD_MODEL, "stray": 1}}, "model descriptor"),
            "config": (kind, ("search",), {"--space": SHARP_SPACE,
                                           "--config": {**FIELD_CONFIG, "stray": 1}},
                       "search config"),
        }[kind]


@pytest.mark.parametrize("kind", [*FIELD_DENSITIES, "space", "model", "config", "sweeps"])
def test_every_malformed_field_is_named(capsys, tmp_path, kind):
    # Each refused input prints one error line that names its field, sweep or
    # descriptor, never the bare text of a Python exception; an accepted one
    # ("inf" as D, 5 as c) may pass or fail its check.  A bool is no number,
    # so true in any field is always refused, by name, and so is a field that
    # no descriptor of its kind has.
    for label, argv, files, what in _stray_field_cases(kind):
        code, out, err = run_with_files(capsys, tmp_path, argv, files)
        assert (code, out, err) == (1, "", f"error: {what} has unknown field 'stray'\n"), label
    if kind == "sweeps":
        cases = [(f"sweep {text}", argv + (text,), files, ("sweep",), False)
                 for text in ("0.5:x:3", "0.1:1:2.5", "x", "1:2:3:4")
                 for argv, files in ((("profile", "--N", "2", "--D", "1", "--v"), {}),
                                     (("localize", "--r", "1", "--R"), {"--model": PLANE_MODEL}))]
        cases += [(f"volumes sweep {text}", ("search",), search_files(volumes={"sweep": text}),
                   ("sweep",), False) for text in ("0.5:x:3", "0.1:1:2.5", "x")]
    else:
        cases = list(_field_cases(kind))
    unnamed = []
    for label, argv, files, names, refused in cases:
        code, out, err = run_with_files(capsys, tmp_path, argv, files)
        assert code in (0, 1, 2), label
        if code != 1:
            if refused:
                unnamed.append(f"{label}: exit {code}")
            continue
        line = err.removesuffix("\n")
        named = any(re.search(rf"(?<!\w){re.escape(n)}(?!\w)", line) for n in names)
        if (out or "\n" in line or not line.startswith("error: ") or not named
                or any(text in line for text in PYTHON_TEXTS)):
            unnamed.append(f"{label}: {err!r}")
    assert unnamed == []


def test_min_dimension_scans_no_end_the_bracket_decides(capsys, tmp_path):
    # At N = 1e308 the ratio check's powers leave the float range, but the
    # bracket around the guess passes below it, so n_hi is never scanned.
    code, out, err = run_with_files(
        capsys, tmp_path, ("min-dimension", "--n-hi", "1e308"), {"--space": PIECEWISE_SPACE}
    )
    assert (code, out.splitlines()[1], err) == (0, "2.5", "")


def test_search_at_volume_zero_on_the_half_line(capsys, tmp_path):
    # The default window is sized at the volume tolerance, not at v = 0.
    for space in (SHARP_SPACE, {"D": 2.0, "density": {"type": "constant", "c": 1.5}}):
        code, out, err = run_with_files(
            capsys, tmp_path, ("search",), {"--space": space, "--config": {"N": 2, "volumes": [0.0]}}
        )
        assert (code, err) == (0, "")
        assert out.splitlines()[1].startswith("0,0,0,0,[],")


@pytest.mark.parametrize("log, volumes", [(False, ["0.5", "1.25", "2"]), (True, ["0.5", "1", "2"])])
def test_a_volumes_sweep_is_log_spaced_only_when_log_is_true(capsys, tmp_path, log, volumes):
    code, out, err = run_with_files(capsys, tmp_path, ("search",), sweep_files(log=log))
    assert (code, err) == (0, "")
    assert [line.split(",")[0] for line in out.splitlines()[1:]] == volumes


def test_unknown_search_field_is_named(capsys, tmp_path):
    code, _, err = run_with_files(capsys, tmp_path, ("search",), search_files(grid_pionts=64))
    assert code == 1
    assert "'grid_pionts'" in err


@pytest.mark.parametrize(
    "argv, files, column, ends",
    [
        # exp(log 400) is 399.9999999999999, which r <= R/4 refuses for r = 100.
        (("localize", "--r", "100", "--R", "400:4000:3", "--log"), {"--model": PLANE_MODEL},
         0, ("400", "4000")),
        # 0.2 + (0.9 - 0.2) is 0.8999999999999999.
        (("profile", "--N", "2", "--D", "1", "--v", "0.2:0.9:3", "--precision", "17"), {},
         2, ("0.20000000000000001", "0.90000000000000002")),
    ],
    ids=["log", "linear"],
)
def test_sweeps_end_exactly_at_their_endpoints(capsys, tmp_path, argv, files, column, ends):
    code, out, _ = run_with_files(capsys, tmp_path, argv, files)
    assert code == 0
    values = [line.split(",")[column] for line in out.splitlines()[1:]]
    assert (values[0], values[-1]) == ends


def test_help_exits_zero(capsys):
    for argv in (["--help"], ["profile", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: mcp-iso")


def test_byte_stability(capsys, tmp_path):
    args = ("bounds", "--N", "2.5", "--avr", "0.3", "--mass", "1.7")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_runs_in_one_process_share_no_state(capsys):
    # The parser is built once per process and reused by every run.
    profile = ("profile", "--N", "2.5", "--D", "3", "--v", "0.1:0.9:4", "--format", "json")
    bounds = ("bounds", "--N", "2.5", "--avr", "0.3", "--mass", "1.7")
    first = run(capsys, *profile)
    between = run(capsys, *bounds)
    assert run(capsys, *profile) == first
    assert run(capsys, *bounds) == between
    assert first[0] == between[0] == 0
    assert between[1].startswith("N,avr,mass,")  # no --format carried over


def test_precision_flag(capsys):
    code, out, _ = run(
        capsys, "bounds", "--N", "2", "--avr", "1", "--mass", "1", "--precision", "4"
    )
    assert code == 0
    row = out.strip().splitlines()[1]
    assert "2.507" in row  # (2 pi)^(1/2) at 4 significant digits
    code, _, err = run(
        capsys, "bounds", "--N", "2", "--avr", "1", "--mass", "1", "--precision", "99"
    )
    assert code == 1


def test_non_finite_values_spelled_alike_in_csv_and_json(capsys):
    # Zero avr makes both bounds 0, so their ratio is NaN.
    args = ("bounds", "--N", "2", "--avr", "0", "--mass", "1")
    code, out, _ = run(capsys, *args)
    assert code == 0
    assert out.strip().splitlines()[1].split(",")[5] == "nan"
    code, out, _ = run(capsys, *args, "--format", "json")
    assert code == 0
    assert json.loads(out)[0]["cd_over_mcp"] == "nan"


def test_json_output_round_trips_schema(capsys, tmp_path):
    space_payload = {
        "D": "inf",
        "density": {"type": "paper_sharp", "avr": 0.2, "mass": 1.0, "N": 2.0},
    }
    path = write_json(tmp_path, "space.json", space_payload)
    code, out, _ = run(capsys, "avr", "--space", path, "--N", "2", "--format", "json")
    assert code == 0
    records = json.loads(out)
    assert records[0]["certified"] is True
    # the descriptor on disk parses back to the same space the CLI used
    from mcp_iso import space_from_dict

    assert space_from_dict(space_payload).h.to_dict() == space_payload["density"]
