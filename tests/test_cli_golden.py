"""Golden CLI transcripts: stdout and exit code of fixed in-process runs.

Every command below runs once in CSV and once with ``--format json``, at
the default precision.  ``tests/cli_golden.json`` holds the expected stdout
bytes and exit code of each run.  An argument ``@name`` is replaced by the
path of the fixture ``FIXTURES[name]`` written as JSON.
"""

import json
import math
from pathlib import Path

import pytest

from mcp_iso.cli import main

GOLDEN = Path(__file__).with_name("cli_golden.json")

FIXTURES = {
    "const_bounded": {"D": 2.0, "density": {"type": "constant", "c": 1.5}},
    "cone_half": {"D": "inf", "density": {"type": "monomial", "c": 1.0, "p": 1.0}},
    "cube_bounded": {"D": 1.0, "density": {"type": "monomial", "c": 1.0, "p": 3.0}},
    "piecewise_half": {
        "D": "inf",
        "density": {
            "type": "piecewise_monomial",
            "breakpoints": [1.0],
            "pieces": [{"c": 1.0, "p": 0.0}, {"c": 1.0, "p": 1.0}],
        },
    },
    "piecewise_bounded": {
        "D": 3.0,
        "density": {
            "type": "piecewise_monomial",
            "breakpoints": [1.0, 2.0],
            "pieces": [{"c": 1.0, "p": 1.0}, {"c": 1.0, "p": 0.0}, {"c": 0.5, "p": 1.0}],
        },
    },
    "sharp_half": {
        "D": "inf",
        "density": {"type": "paper_sharp", "avr": 0.2, "mass": 1.0, "N": 2.0},
    },
    "tabulated_bounded": {
        "D": 2.0,
        "density": {
            "type": "tabulated",
            "grid": [0.0, 0.5, 1.0, 1.5, 2.0],
            "values": [0.2, 0.6, 0.9, 1.0, 0.8],
        },
    },
    "tabulated_exp": {
        "D": 2.0,
        "density": {
            "type": "tabulated",
            "grid": [0.25 * k for k in range(9)],
            "values": [math.exp(0.25 * k) for k in range(9)],
        },
    },
    "tabulated_unsorted": {
        "D": 2.0,
        "density": {"type": "tabulated", "grid": [0.0, 2.0, 1.0], "values": [1.0, 1.0, 1.0]},
    },
    "unknown_type": {"D": 1.0, "density": {"type": "gaussian"}},
    "search_1c": {"N": 2.0, "volumes": [0.5, 1.0], "grid_points": 96, "max_components": 1},
    "search_2c": {
        "N": 2.0,
        "avr": 0.2,
        "volumes": {"sweep": "0.2:1:3"},
        "grid_points": 64,
        "max_components": 2,
        "volume_tolerance": 1e-3,
    },
    "search_fail": {
        "N": 2.0,
        "avr": 5.0,
        "volumes": [0.5],
        "grid_points": 64,
        "max_components": 2,
    },
    "search_no_n": {"volumes": [0.5]},
    "plane": {
        "theta": 2.0 * math.pi,
        "weight": {"type": "monomial", "c": 1.0, "p": 1.0},
        "N": 2.0,
        "ray_length": "inf",
    },
    "sharp_model": {
        "theta": 1.0,
        "weight": {"type": "paper_sharp", "avr": 0.3, "mass": 2.0, "N": 3.0},
        "N": 3.0,
        "ray_length": "inf",
    },
}

COMMANDS = {
    "profile-point": ["profile", "--N", "2", "--D", "1", "--v", "0.3"],
    "profile-sweep": ["profile", "--N", "2.5", "--D", "3", "--v", "0.1:0.9:4"],
    "profile-log": ["profile", "--N", "1.5", "--D", "1", "--v", "1e-6:1e-2:3", "--log"],
    "profile-ends": ["profile", "--N", "4", "--D", "2", "--v", "0:1:2"],
    "profile-overflow": ["profile", "--N", "30", "--D", "1", "--v", "0.5"],
    "profile-bad-v": ["profile", "--N", "2", "--D", "1", "--v", "1.5"],
    "expansion": ["expansion", "--N", "3", "--v", "1e-2:1e-6:4"],
    "bounds": ["bounds", "--N", "2.5", "--avr", "0.3", "--mass", "1.7"],
    # Gamma(N/2 + 1) overflows past N ~ 341; the bounds are formed from logs.
    "bounds-400": ["bounds", "--N", "400", "--avr", "1", "--mass", "1"],
    "sharp-2": ["sharp", "--avr", "0.2", "--mass", "1", "--N", "2"],
    "sharp-3.5": ["sharp", "--avr", "3", "--mass", "0.5", "--N", "3.5"],
    "avr-cone": ["avr", "--space", "@cone_half", "--N", "2"],
    "avr-piecewise": ["avr", "--space", "@piecewise_half", "--N", "2"],
    "avr-const-bounded": ["avr", "--space", "@const_bounded", "--N", "2"],
    "avr-tabulated": ["avr", "--space", "@tabulated_bounded", "--N", "2"],
    "validate-const": ["validate-density", "--space", "@const_bounded", "--N", "2"],
    "validate-cone-fail": ["validate-density", "--space", "@cone_half", "--N", "1.5"],
    "validate-cube-fail": ["validate-density", "--space", "@cube_bounded", "--N", "3"],
    "validate-piecewise": [
        "validate-density", "--space", "@piecewise_bounded", "--N", "2",
        "--grid-points", "128",
    ],
    "validate-piecewise-half": ["validate-density", "--space", "@piecewise_half", "--N", "2"],
    "validate-sharp": ["validate-density", "--space", "@sharp_half", "--N", "2"],
    "validate-tabulated": [
        "validate-density", "--space", "@tabulated_bounded", "--N", "2",
        "--grid-points", "64",
    ],
    "validate-tabulated-fail": ["validate-density", "--space", "@tabulated_exp", "--N", "2"],
    "validate-tabulated-unsorted": [
        "validate-density", "--space", "@tabulated_unsorted", "--N", "2",
    ],
    "validate-one-grid-point": [
        "validate-density", "--space", "@const_bounded", "--N", "2", "--grid-points", "1",
    ],
    "validate-unknown-type": ["validate-density", "--space", "@unknown_type", "--N", "2"],
    "min-dim-piecewise": ["min-dimension", "--space", "@piecewise_bounded"],
    "min-dim-tabulated": ["min-dimension", "--space", "@tabulated_exp"],
    "min-dim-none": ["min-dimension", "--space", "@cube_bounded", "--n-hi", "3"],
    "search-1c-bounded": [
        "search", "--space", "@piecewise_bounded", "--config", "@search_1c",
    ],
    "search-2c-sharp": ["search", "--space", "@sharp_half", "--config", "@search_2c"],
    "search-2c-fail": ["search", "--space", "@const_bounded", "--config", "@search_fail"],
    "search-no-n": ["search", "--space", "@sharp_half", "--config", "@search_no_n"],
    "localize-plane": ["localize", "--model", "@plane", "--r", "1", "--R", "8:64:3", "--log"],
    "localize-sharp": ["localize", "--model", "@sharp_model", "--r", "0.5", "--R", "4"],
    "localize-too-close": ["localize", "--model", "@plane", "--r", "1", "--R", "3"],
}

FORMATS = ("csv", "json")


def command_argv(tmp_path, name, fmt):
    """argv of one golden command in one output format, its fixtures written
    to tmp_path."""
    argv = []
    for arg in COMMANDS[name]:
        if arg.startswith("@"):
            path = tmp_path / f"{arg[1:]}.json"
            path.write_text(json.dumps(FIXTURES[arg[1:]]))
            arg = str(path)
        argv.append(arg)
    return argv + ["--format", fmt]


def transcript(tmp_path, name, fmt):
    """Exit code of one golden command in one output format; stdout is captured."""
    return main(command_argv(tmp_path, name, fmt))


def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_file_covers_exactly_the_commands():
    assert sorted(golden()) == sorted(f"{n}/{f}" for n in COMMANDS for f in FORMATS)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_transcript_matches_golden(capsys, tmp_path, name, fmt):
    code = transcript(tmp_path, name, fmt)
    out = capsys.readouterr().out
    expected = golden()[f"{name}/{fmt}"]
    assert (code, out) == (expected["exit"], expected["stdout"])
