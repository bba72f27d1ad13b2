"""Mutated CLI inputs end in exit 0 or in exit 2 with one ``error:`` line.

Hypothesis mutates valid point lists, metadata sidecars and IFS specs, and
draws depths and scale ranges around the int64 cell limit (62/63) and the
float exponent limit (1023/1024).  ``main`` must return instead of raising,
and a user error must be reported on exactly one line.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from twoscale.cli import main

LIMITS = [0, 1, 8, 61, 62, 63, 64, 1022, 1023, 1024, 1025, -1]

POINTS_D1 = "coord_0_num,coord_0_exp\n0,0\n1,2\n3,3\n1,0\n"
POINTS_D2 = "coord_0_num,coord_0_exp,coord_1_num,coord_1_exp\n0,0,1,1\n3,2,1,3\n1,0,0,0\n"

TOKENS = [",", "\n", "-", " ", "0", "1", "9", "e", ".", "x", "1024", "-1075", "63", "9" * 400,
          "nan", "inf", "1e5", "0x10", "\x00", "é", "coord_0_num", "#"]

json_leaves = (
    st.none()
    | st.booleans()
    | st.integers(-3000, 3000)
    | st.sampled_from(LIMITS)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=4)
)
json_values = st.recursive(
    json_leaves,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)

edits = st.lists(
    st.tuples(st.sampled_from(["replace", "insert", "delete"]), st.integers(0, 10_000),
              st.sampled_from(TOKENS), st.integers(1, 6)),
    max_size=4,
)


def mutate(text, edit_list):
    for kind, pos, token, width in edit_list:
        pos %= len(text) + 1
        if kind == "replace":
            text = text[:pos] + token + text[pos + 1:]
        elif kind == "insert":
            text = text[:pos] + token + text[pos:]
        else:
            text = text[:pos] + text[pos + width:]
    return text


def run(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2), (code, err.getvalue())
    if code == 2:
        lines = err.getvalue().strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
    return code


metadata = st.one_of(
    st.none(),
    st.dictionaries(st.sampled_from(["depth", "d", "rescale_exponent"]), json_values, max_size=3).map(json.dumps),
    st.fixed_dictionaries({"depth": st.sampled_from(LIMITS)}).map(json.dumps),
    json_values.map(json.dumps),
    st.sampled_from(["", "{", "[1,", "NaN", "{\"depth\": 1e400}"]),
)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.sampled_from([POINTS_D1, POINTS_D2]),
    edits,
    metadata,
    st.sampled_from(LIMITS),
    st.sampled_from([None, 1.0, 4.0, 8.0, 61.0, 62.0, 63.0, 1023.0, 1024.0, 0.0, 2.5]),
    st.sampled_from([0.5, 2.0, 6.0, 61.0, 63.0, -1.0]),
    st.sampled_from([1.0, 0.5, 0.3, 0.0]),
    st.sampled_from([1 / 64, 0.25, 0.3, 1.0, 0.0, -0.5]),
    st.booleans(),
)
def test_estimate_on_mutated_inputs_exits_0_or_2(points, point_edits, meta, depth, u_max, u_min,
                                                grid_step, theta_step, pass_depth):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "points.csv").write_text(mutate(points, point_edits))
        argv = ["estimate", str(tmp / "points.csv"), "--u-min", str(u_min), "--grid-step", str(grid_step),
                "--theta-step", str(theta_step), "--out", str(tmp / "est")]
        # without --u-max the scale range is the sample depth; without --depth, the sidecar's,
        # and with neither the command refuses
        if u_max is not None:
            argv += ["--u-max", str(u_max)]
        if pass_depth or meta is None:
            argv += ["--depth", str(depth)]
        if meta is not None:
            (tmp / "meta.json").write_text(meta)
            argv += ["--metadata", str(tmp / "meta.json")]
        run(argv)


SPEC = {
    "d": 1,
    "maps": [{"ratio_exp": 2, "translation": [0.0]}, {"ratio": 0.25, "translation": [0.75]}],
    "condensation": "cond.csv",
}
RATIOS = [0.5, 0.25, 0.3, 0.0, -0.5, 1.0, 1.5, float("nan"), float("inf"), "0.25", None, [0.5]]

spec_edits = st.lists(
    st.one_of(
        st.tuples(st.just("top"), st.sampled_from(["d", "maps", "condensation"]),
                  json_values | st.sampled_from(LIMITS)),
        st.tuples(st.just("map"), st.sampled_from(["ratio_exp", "translation"]), json_values),
        st.tuples(st.just("map"), st.just("ratio"), st.sampled_from(RATIOS)),
        st.tuples(st.just("drop"), st.sampled_from(["d", "maps", "condensation", "ratio_exp", "ratio"]),
                  st.none()),
    ),
    max_size=3,
)


def mutate_spec(spec_edit_list, which):
    spec = json.loads(json.dumps(SPEC))
    for (kind, key, value), k in zip(spec_edit_list, which):
        maps = spec.get("maps")
        target = maps[k % len(maps)] if isinstance(maps, list) and maps else None
        if not isinstance(target, dict):
            target = None
        if kind == "top":
            spec[key] = value
        elif kind == "map" and target is not None:
            target[key] = value
        elif kind == "drop":
            spec.pop(key, None)
            if target is not None:
                target.pop(key, None)
    return spec


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(spec_edits, st.lists(st.integers(0, 3), min_size=3, max_size=3), edits,
       st.sampled_from([0, 1, 4, 6, -1]))
def test_attractor_on_mutated_specs_exits_0_or_2(spec_edit_list, which, cond_edits, depth):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "cond.csv").write_text(mutate(POINTS_D1, cond_edits))
        (tmp / "ifs.json").write_text(json.dumps(mutate_spec(spec_edit_list, which)))
        run(["attractor", str(tmp / "ifs.json"), "--depth", str(depth), "--out", str(tmp / "att")])
