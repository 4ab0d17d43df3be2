"""No config document ends in a traceback: the CLI exits 0, 1 or 2.

Grid values range over huge, tiny and subnormal floats, inf, NaN, integers
beyond the float range, bools and strings; the commands are the cheap ones,
a distance, a flow of at most three steps and a one-level oracle, at most
20 points per decade.  Measure references are alias names, lists, objects,
numbers, bools and null, and output paths lists, objects, numbers and bools.
Atomic literals take huge, tiny and non-finite atoms, integers beyond the
float range, bools and strings, and zero, negative and unnormalised weights.
Parametric literals take every public family with parameters at the edges
of the range: 0, +-1e-11, +-1, +-1e75 and +-1e76.

Every command of the table cli.COMMANDS is fuzzed from its row, so a key
added there is fuzzed too: each key at the edges of its bounds and at a
value of each JSON type, a required key left out, an unknown key, an
unknown command name.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cltflow._families import PUBLIC_FAMILIES
from cltflow.bank import ALIASES
from cltflow.cli import COMMANDS, REQUIRED, main, parse_config
from cltflow.errors import ConfigError

NAMES = sorted(ALIASES) + ["no-such-law"]
# anything JSON can hold where a measure name belongs
reference = st.one_of(
    st.sampled_from(NAMES),
    st.lists(st.sampled_from(NAMES), max_size=2),
    st.dictionaries(st.sampled_from(NAMES), st.integers(), max_size=1),
    st.integers(),
    st.floats(allow_nan=False),
    st.booleans(),
    st.none(),
)

grid_value = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.floats(min_value=5e-324, max_value=1e-80),
    st.floats(min_value=1e80, max_value=1.7e308),
    st.sampled_from([1e-100, 1e-6, 1e100, 1e-3, 50.0, 0.0, -1.0]),
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
        "a": reference,
        "b": reference,
        "s": st.sampled_from([2, 3, 4]),
    }),
    st.fixed_dictionaries({
        "command": st.just("flow"),
        "measure": reference,
        "steps": st.integers(min_value=-1, max_value=3),
    }),
    st.fixed_dictionaries({
        "command": st.just("oracle"),
        "measures": st.one_of(reference, st.lists(reference, max_size=2)),
        "levels": st.just(1),
        "samples": st.just(100_000),
    }),
)
output_path = st.one_of(
    st.lists(st.integers(), max_size=1),
    st.dictionaries(st.text(max_size=1), st.integers(), max_size=1),
    st.integers(),
    st.booleans(),
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(grid=grid, commands=st.lists(command, min_size=1, max_size=2),
       extra=st.fixed_dictionaries({}, optional={"output_path": output_path}))
def test_config_never_ends_in_a_traceback(grid, commands, extra, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "fuzz-config.json"
    path.write_text(json.dumps({"grid": grid, "commands": commands, **extra}))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["run", "--config", str(path)])
    assert code in (0, 1, 2)
    if code == 2:
        assert err.getvalue().startswith("config error:")


def is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# a value of each JSON type (bool, float, string, list, null), valid for no key
OTHER_TYPES = [True, 2.5, "x", ["x"], None]


def key_values(key):
    """(valid, invalid) values of one key of a table row; the edges of its bounds among them."""
    if key.type is int:
        valid = [key.lo] if key.hi is None else [key.lo, key.hi]
        invalid = [key.lo - 1] + ([] if key.hi is None else [key.hi + 1]) + [float(key.lo)]
    elif key.type is str:
        valid, invalid = ["gaussian", "skewed"], ["no-such-law", ""]
    else:
        valid, invalid = [["gaussian"], ["rademacher", "skewed"]], [["no-such-law"], []]
    return valid, invalid + OTHER_TYPES


@st.composite
def fuzzed_command(draw, name):
    """(cmd, faulty): valid values for name's row of the table, then at most one fault.

    A fault is a key at an invalid value, a missing required key, an unknown
    key or an unknown command name.
    """
    keys = COMMANDS[name].keys
    cmd = {"command": name}
    for key in keys:
        if key.default is REQUIRED or draw(st.booleans()):
            cmd[key.name] = draw(st.sampled_from(key_values(key)[0]))
    required = [key.name for key in keys if key.default is REQUIRED]
    fault = draw(st.sampled_from(["none", "value", "missing", "unknown-key", "unknown-command"]))
    if fault == "value" and keys:
        key = draw(st.sampled_from(keys))
        cmd[key.name] = draw(st.sampled_from(key_values(key)[1]))
    elif fault == "missing" and required:
        del cmd[draw(st.sampled_from(required))]
    elif fault == "unknown-key":
        cmd["no-such-key"] = 1
    elif fault == "unknown-command":
        cmd["command"] = name.title()
    else:
        return cmd, False
    return cmd, True


def has_the_row_types(cmd) -> bool:
    keys = COMMANDS[cmd["command"]].keys
    if set(cmd) != {"command", *(key.name for key in keys)}:
        return False
    for key in keys:
        value = cmd[key.name]
        if key.type is int:
            if not (is_int(value) and key.lo <= value and (key.hi is None or value <= key.hi)):
                return False
        elif not (isinstance(value, key.type) and value):
            return False
    return True


def cheap(cmd) -> bool:
    name = cmd["command"]
    return (name == "distance" or (name == "flow" and cmd["steps"] <= 3)
            or (name == "oracle" and cmd["levels"] == 1 and cmd["samples"] == 100_000))


@pytest.mark.parametrize("name", list(COMMANDS))
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_every_command_is_fuzzed_from_its_row_of_the_table(name, data, tmp_path_factory):
    cmd, faulty = data.draw(fuzzed_command(name))
    doc = {"grid": {"points_per_decade": 10}, "commands": [cmd]}
    try:
        (got,) = parse_config(doc)["commands"]
    except ConfigError:
        got = None
    assert (got is None) == faulty, (cmd, got)
    if got is not None:
        assert has_the_row_types(got), got
        assert all(got[k] == v for k, v in cmd.items()), (cmd, got)
        if not cheap(got):
            return
    path = tmp_path_factory.getbasetemp() / "fuzz-command.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["run", "--config", str(path)])
    if got is None:
        assert code == 2 and err.getvalue().startswith("config error:"), err.getvalue()
    else:
        assert code in (0, 1), (out.getvalue(), err.getvalue())


atom_number = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.floats(min_value=1e70, max_value=1.7e308).flatmap(
        lambda x: st.sampled_from([x, -x])),
    st.floats(min_value=5e-324, max_value=1e-70).flatmap(
        lambda x: st.sampled_from([x, -x])),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 1e75, -1e75, 1e300, -1e300]),
    st.integers(min_value=-10**400, max_value=10**400),
    st.booleans(),
    st.text(max_size=3),
)
atom_weight = st.one_of(
    atom_number,
    st.sampled_from([0.0, -0.5, 5.0, 1e300, 1e-300, 5e-324]),
)
atomic_literal = st.one_of(
    st.fixed_dictionaries({
        "type": st.just("atomic"),
        "atoms": st.lists(st.tuples(atom_number, atom_weight).map(list),
                          min_size=0, max_size=4),
    }),
    # mean 0 and variance 1 with far-out atoms of tiny weight, and with
    # the atoms close to 0 carrying the rest
    st.tuples(st.floats(min_value=1e-30, max_value=1e75),
              st.floats(min_value=1e-300, max_value=1e-3)).map(
        lambda xw: {"type": "atomic", "atoms": [
            [-xw[0], 0.5 / xw[0] ** 2], [xw[0], 0.5 / xw[0] ** 2],
            [xw[1], max(1.0 - 1.0 / xw[0] ** 2, 0.0)]]}),
)
literal_command = st.one_of(
    st.fixed_dictionaries({
        "command": st.just("distance"),
        "a": st.just("lit"),
        "b": st.sampled_from(["gaussian", "lit"]),
        "s": st.sampled_from([2, 3]),
    }),
    st.fixed_dictionaries({
        "command": st.just("flow"),
        "measure": st.just("lit"),
        "steps": st.integers(min_value=0, max_value=3),
    }),
)


def run_literal(literal, commands, xi_max, path):
    """main on one config of the literal lit; the exit code and what went to stderr."""
    path.write_text(json.dumps({
        "measures": {"lit": literal},
        "grid": {"xi_max": xi_max, "points_per_decade": 10},
        "commands": commands,
    }))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["run", "--config", str(path)])
    return code, err.getvalue()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(literal=atomic_literal, commands=st.lists(literal_command, min_size=1, max_size=2),
       xi_max=st.sampled_from([50.0, 1e100]))
def test_atomic_literal_never_ends_in_a_traceback(literal, commands, xi_max,
                                                  tmp_path_factory):
    code, err = run_literal(literal, commands, xi_max,
                            tmp_path_factory.getbasetemp() / "fuzz-literal.json")
    assert code in (0, 1, 2)
    if code == 2:
        assert err.startswith("config error:")


edge_param = st.sampled_from([0.0, 1e-11, -1e-11, 1.0, -1.0, 1e75, -1e75, 1e76, -1e76])
parametric_literal = st.fixed_dictionaries({
    "type": st.just("parametric"),
    "family": st.sampled_from(PUBLIC_FAMILIES),
    "params": st.lists(edge_param, min_size=1, max_size=2),
})


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(literal=parametric_literal, commands=st.lists(literal_command, min_size=1, max_size=2),
       xi_max=st.sampled_from([50.0, 1e100]))
def test_parametric_literal_never_ends_in_a_traceback(literal, commands, xi_max,
                                                      tmp_path_factory):
    code, err = run_literal(literal, commands, xi_max,
                            tmp_path_factory.getbasetemp() / "fuzz-parametric.json")
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:
        assert err.startswith("config error:")


@pytest.mark.parametrize("atoms, code", [
    ([[1e300, 0.5], [-1e300, 0.5]], 2),  # x^4 overflows
    ([[2e75, 0.5], [-2e75, 0.5]], 2),
    ([[10**400, 0.5], [0.0, 0.5]], 2),  # an integer beyond the float range
    ([[float("inf"), 0.5], [0.0, 0.5]], 2),
    ([[float("nan"), 0.5], [0.0, 0.5]], 2),
    ([[1.0, 0.0], [-1.0, 1.0]], 2),  # zero weight
    ([[1.0, -0.5], [-1.0, 1.5]], 2),  # negative weight
    ([[1.0, 1e308], [-1.0, 1e308]], 2),  # weights whose sum overflows
    ([[True, 0.5], [-1.0, 0.5]], 2),
    ([["1", 0.5], [-1.0, 0.5]], 2),
    ([], 2),
    ([[1e-300, 0.5], [-1e-300, 0.5]], 1),  # a law, but not reduced: d3 fails
    ([[1.0, 5.0], [-1.0, 5.0]], 0),  # unnormalised weights: rademacher
    ([[1.0, 5e-324], [-1.0, 5e-324]], 0),
    ([[-1e75, 0.5e-150], [1e75, 0.5e-150], [0.0, 1.0 - 1e-150]], 0),  # reduced, d3 about 4e57
], ids=lambda v: str(v) if isinstance(v, int) else None)
def test_atomic_literal_exit_codes(atoms, code, tmp_path):
    path = tmp_path / "literal.json"
    path.write_text(json.dumps({
        "measures": {"lit": {"type": "atomic", "atoms": atoms}},
        "commands": [{"command": "distance", "a": "lit", "b": "gaussian", "s": 3}],
    }))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        got = main(["run", "--config", str(path)])
    assert got == code, (out.getvalue(), err.getvalue())
    assert err.getvalue().startswith("config error:") == (code == 2)


@pytest.mark.parametrize("params", [["0", 1.0], [True, 1.0], [0.0, 10**400], [0.0, None]])
def test_parametric_literal_params_must_be_numbers(params, tmp_path):
    path = tmp_path / "literal.json"
    path.write_text(json.dumps({
        "measures": {"lit": {"type": "parametric", "family": "gaussian", "params": params}},
        "commands": [{"command": "distance", "a": "lit", "b": "gaussian", "s": 3}],
    }))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        assert main(["run", "--config", str(path)]) == 2
    assert err.getvalue().startswith("config error:")


def run_config(doc, tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("ref", [[1], ["gaussian"], {"x": 1}, {}, 1, 1.5, True, None],
                         ids=["list", "name-list", "object", "empty-object", "int",
                              "float", "bool", "null"])
@pytest.mark.parametrize("where", ["distance", "flow", "oracle"])
def test_measure_reference_of_the_wrong_type_exits_2(ref, where, tmp_path):
    cmd = {
        "distance": {"command": "distance", "a": ref, "b": "gaussian", "s": 3},
        "flow": {"command": "flow", "measure": ref, "steps": 1},
        "oracle": {"command": "oracle", "measures": ["gaussian", ref], "levels": 1,
                   "samples": 100_000},
    }[where]
    code, out, err = run_config({"commands": [cmd]}, tmp_path)
    assert code == 2, (out, err)
    assert err.startswith("config error:")


@pytest.mark.parametrize("doc", [
    {"commands": [{"command": "oracle", "measures": "gaussian"}]},
    {"commands": [{"command": "oracle", "measures": {"gaussian": 1}}]},
    {"commands": [{"command": "oracle", "measures": 5}]},
    {"commands": [{"command": ["flow"], "measure": "gaussian"}]},
    {"commands": [{"command": {"flow": 1}, "measure": "gaussian"}]},
    {"output_path": [1], "commands": [{"command": "flow", "measure": "gaussian"}]},
    {"output_path": 5, "commands": [{"command": "flow", "measure": "gaussian"}]},
], ids=["measures-name", "measures-object", "measures-int", "command-list",
        "command-object", "output-path-list", "output-path-int"])
def test_config_value_of_the_wrong_type_exits_2(doc, tmp_path):
    code, out, err = run_config(doc, tmp_path)
    assert code == 2, (out, err)
    assert err.startswith("config error:")


@pytest.mark.parametrize("family, params, code", [
    ("laplace", [0, 1e100], 2),
    ("laplace", [1e200, 1], 2),
    ("gaussian", [0, 1e300], 2),
    ("uniform", [-1e300, 1e300], 2),
    ("exponential", [1e-100], 2),
    ("exponential", [1e300], 2),  # a rate beyond 1e75
    ("gaussian", [1e76, 1.0], 2),
    ("gaussian", [1e75, 1e150], 1),  # at the bound: a law, but not reduced
    ("uniform", [-1e75, 1e75], 1),
    ("laplace", [-1e75, 1e75], 1),
    ("exponential", [1e75], 1),
    ("exponential", [1.01e-75], 1),
    ("gaussian", [0, 1e-300], 1),
], ids=lambda v: str(v) if isinstance(v, (int, str)) else None)
def test_parametric_literal_out_of_range_exits_2(family, params, code, tmp_path):
    doc = {
        "measures": {"lit": {"type": "parametric", "family": family, "params": params}},
        "commands": [{"command": "distance", "a": "lit", "b": "gaussian", "s": 3}],
    }
    got, out, err = run_config(doc, tmp_path)
    assert got == code, (out, err)
    assert err.startswith("config error:") == (code == 2)


def test_distance_refuses_an_integral_float_s(tmp_path):
    # accepted once, when its summary printed s=2.0; every other integer
    # key refused floats already
    code, out, err = run_config(
        {"commands": [{"command": "distance", "a": "skewed", "b": "gaussian", "s": 2.0}]},
        tmp_path)
    assert code == 2, (out, err)
    assert err.startswith("config error:")
