"""Every command but search commutes with scaling x -> mu x, h -> lam h.

Under the scaling, set endpoints, x_star, witnesses and radii scale by mu,
measures by lam mu, contents and bounds by lam, avr by lam mu^(1 - N) and
the ratio sides of a witness by lam mu^(N - 1); a profile on [0, mu D] has
a scaled by mu and f by 1 / mu.  Exit codes, statuses, sides,
samples_used and the minimal dimension stay exactly the same, and every
other number within 1e-12 relative.  A number that is zero up to rounding
(gap, residual) is compared against 1e-12 of a term of its row.

search is left out: its slack has units of h^2, so with h scaled up it
passes a doubled bound (ROADMAP item 1); it joins this test with that fix.
expansion has nothing to scale.
"""

import json
import math
from typing import NamedTuple, Union

import pytest

from mcp_iso.cli import main
from mcp_iso.localization import model_from_dict

SCALES = (2.0 ** -10, 1.0, 2.0 ** 10)
EXACT = "exact"

# x^1.5, then c x^0.6 past 1.35, on [0, 3]: fails below N = 2.5, passes above.
PIECEWISE = {
    "D": 3.0,
    "density": {
        "type": "piecewise_monomial",
        "breakpoints": [1.35],
        "pieces": [{"c": 1.0, "p": 1.5}, {"c": 1.35 ** 0.9, "p": 0.6}],
    },
}
SHARP = {"D": "inf", "density": {"type": "paper_sharp", "avr": 0.5, "mass": 2.0, "N": 3.0}}
CONE = {"D": "inf", "density": {"type": "monomial", "c": 2.0 * math.pi, "p": 1.0}}


class Zero(NamedTuple):
    """A number that is zero up to rounding: it scales by factor, within
    1e-12 of ref, a column of the scaled row or a number."""

    factor: float
    ref: Union[str, float]


def _density(d, lam, mu):
    """The density dict of lam h(x / mu), in the family of h."""
    if d["type"] == "monomial":
        return {**d, "c": lam * mu ** -d["p"] * d["c"]}
    if d["type"] == "piecewise_monomial":
        pieces = [{"c": lam * mu ** -p["p"] * p["c"], "p": p["p"]} for p in d["pieces"]]
        return {**d, "breakpoints": [mu * b for b in d["breakpoints"]], "pieces": pieces}
    assert d["type"] == "paper_sharp"
    return {**d, "avr": lam * mu ** (1.0 - d["N"]) * d["avr"], "mass": lam * mu * d["mass"]}


def _space(space, lam, mu):
    D = space["D"] if space["D"] == "inf" else mu * space["D"]
    return {"D": D, "density": _density(space["density"], lam, mu)}


def _validate_density(N):
    def case(lam, mu, write):
        argv = ["validate-density", "--space", write(_space(PIECEWISE, lam, mu)), "--N", str(N)]
        side = lam * mu ** (N - 1.0)
        return argv, {"x0": mu, "x1": mu, "lhs": side, "rhs": side}
    return case


def _min_dimension(lam, mu, write):
    argv = ["min-dimension", "--space", write(_space(PIECEWISE, lam, mu))]
    return argv, {"minimal_dimension": EXACT}


def _avr(space):
    def case(lam, mu, write):
        N = 3.0 if space is SHARP else 2.0
        argv = ["avr", "--space", write(_space(space, lam, mu)), "--N", str(N)]
        return argv, {"avr": lam * mu ** (1.0 - N)}
    return case


def _bounds(lam, mu, write):
    N, avr_scale = 2.4, lam * mu ** -1.4
    argv = ["bounds", "--N", str(N), "--avr", repr(0.7 * avr_scale),
            "--mass", repr(1.3 * lam * mu)]
    scale = {"N": 1.0, "avr": avr_scale, "mass": lam * mu, "mcp_bound": lam, "cd_bound": lam}
    return argv, {**scale, "cd_over_mcp": 1.0}


def _sharp(lam, mu, write):
    d = _density(SHARP["density"], lam, mu)
    argv = ["sharp", "--avr", repr(d["avr"]), "--mass", repr(d["mass"]), "--N", repr(d["N"])]
    avr_scale = lam * mu ** (1.0 - d["N"])
    return argv, {
        "avr": avr_scale, "mass": lam * mu, "N": 1.0, "x_star": mu, "set_measure": lam * mu,
        "content": lam, "bound": lam, "gap": Zero(lam, "bound"),
        "density.avr": avr_scale, "density.mass": lam * mu, "density.N": 1.0,
    }


def _localize(N):
    def case(lam, mu, write):
        # The Euclidean cone model: theta = 2 pi, w(t) = t^(N - 1) on complete rays.
        weight = {"type": "monomial", "c": 1.0, "p": N - 1.0}
        model = {"theta": 2.0 * math.pi, "weight": _density(weight, lam, mu), "N": N,
                 "ray_length": "inf"}
        r = 0.5 * mu
        argv = ["localize", "--model", write(model), "--r", repr(r),
                "--R", f"{4.0 * mu!r}:{8.0 * mu!r}:3"]
        ball = model_from_dict(model).ball_mass(r)
        return argv, {"R": mu, "m_plus": lam, "needle_integral": lam,
                      "scaled_profile_bound": lam, "avr_bound": lam,
                      "residual": Zero(lam * mu, ball)}
    return case


def _profile(lam, mu, write):
    argv = ["profile", "--N", "2.4", "--D", repr(1.5 * mu), "--v", "0.05:0.95:7"]
    return argv, {"N": 1.0, "D": mu, "v": 1.0, "a": mu, "f_at_a": 1.0 / mu, "profile": 1.0 / mu}


CASES = {
    "validate-density-pass": _validate_density(3.5),
    "validate-density-fail": _validate_density(2.0),
    "min-dimension": _min_dimension,
    "avr-sharp": _avr(SHARP),
    "avr-cone": _avr(CONE),
    "bounds": _bounds,
    "sharp": _sharp,
    "localize-N2": _localize(2.0),
    "localize-N3": _localize(3.0),
    "profile": _profile,
}


def _rows(capsys, argv):
    """Exit code and JSON rows, each JSON object cell spread into its fields."""
    code = main([*argv, "--format", "json", "--precision", "17"])
    rows = json.loads(capsys.readouterr().out)
    for row in rows:
        for key, value in list(row.items()):
            if isinstance(value, str) and value.startswith("{"):
                del row[key]
                row.update({f"{key}.{k}": v for k, v in json.loads(value).items()})
    return code, rows


@pytest.mark.parametrize("mu", SCALES)
@pytest.mark.parametrize("lam", SCALES)
@pytest.mark.parametrize("name", list(CASES))
def test_command_commutes_with_scaling(name, lam, mu, tmp_path, capsys):
    def write(payload):
        path = tmp_path / f"input-{len(list(tmp_path.iterdir()))}.json"
        path.write_text(json.dumps(payload))
        return str(path)

    argv, _ = CASES[name](1.0, 1.0, write)
    code, rows = _rows(capsys, argv)
    argv, scale = CASES[name](lam, mu, write)
    scaled_code, scaled_rows = _rows(capsys, argv)
    assert code in (0, 2)
    assert scaled_code == code
    assert len(scaled_rows) == len(rows) > 0
    for row, got in zip(rows, scaled_rows):
        assert got.keys() == row.keys()
        for key, value in row.items():
            rule = scale.get(key)
            if not isinstance(value, float) or rule == EXACT:
                assert got[key] == value, key
            elif isinstance(rule, Zero):
                ref = got[rule.ref] if isinstance(rule.ref, str) else rule.ref
                assert abs(got[key] - rule.factor * value) <= 1e-12 * ref, key
            else:
                assert got[key] == pytest.approx(rule * value, rel=1e-12, abs=0.0), key
