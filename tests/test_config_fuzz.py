"""No config document ends in a traceback: the CLI exits 0, 1 or 2.

Grid values range over huge, tiny and subnormal floats, inf, NaN, integers
beyond the float range, bools and strings; the commands are the cheap ones,
a distance and a flow of at most three steps, at most 20 points per decade.
"""

import contextlib
import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from cltflow.bank import ALIASES
from cltflow.cli import main

NAMES = sorted(ALIASES) + ["no-such-law"]

grid_value = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.floats(min_value=5e-324, max_value=1e-80),
    st.floats(min_value=1e80, max_value=1.7e308),
    st.sampled_from([1e-100, 1e100, 1e-3, 50.0, 0.0, -1.0]),
    st.integers(min_value=-10, max_value=10**400),
    st.booleans(),
    st.text(max_size=4),
)
points_per_decade = st.one_of(
    st.integers(min_value=-2, max_value=20),
    st.booleans(),
    st.floats(min_value=0.0, max_value=20.0),
    st.text(max_size=2),
)
grid = st.fixed_dictionaries(
    {},
    optional={"xi_min": grid_value, "xi_max": grid_value,
              "points_per_decade": points_per_decade},
)
command = st.one_of(
    st.fixed_dictionaries({
        "command": st.just("distance"),
        "a": st.sampled_from(NAMES),
        "b": st.sampled_from(NAMES),
        "s": st.sampled_from([2, 3, 4]),
    }),
    st.fixed_dictionaries({
        "command": st.just("flow"),
        "measure": st.sampled_from(NAMES),
        "steps": st.integers(min_value=-1, max_value=3),
    }),
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(grid=grid, commands=st.lists(command, min_size=1, max_size=2))
def test_config_never_ends_in_a_traceback(grid, commands, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "fuzz-config.json"
    path.write_text(json.dumps({"grid": grid, "commands": commands}))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["run", "--config", str(path)])
    assert code in (0, 1, 2)
    if code == 2:
        assert err.getvalue().startswith("config error:")
