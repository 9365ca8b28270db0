"""Property test of the failure contract on arbitrary config text: every
input ends in a documented exit code, and a failure in one stderr line."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gpmg.cli import run
from gpmg.config import _SCHEMA, _to_bool, _to_float, _to_int
from gpmg.linsolve import SolverConfig

EXIT_CODES = {0, 2, 3, 4, 5}

# Keys whose values size the mesh are drawn at most these large, so that
# a run that loads stays small; each may still be zero, negative or not a
# number. A config without discretization.levels runs with --levels.
MESH_CAPS = {"problem.dim": 2, "discretization.n0": 4,
             "discretization.levels": 2}

junk = st.one_of(
    st.text(max_size=12),
    st.integers().map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["", "true", "1.5", "nan", "1e999", "0x10"]),
)
floats = st.one_of(
    st.floats(0.0, 1.0).map(repr),
    st.integers(-320, 320).map(lambda e: f"1e{e}"),
    st.floats(-1e3, 1e3).map(repr),
)
intervals = st.tuples(floats, floats).map(",".join)

_TYPED = {
    _to_int: st.one_of(st.integers(0, 6), st.integers(-10**6, 10**6)).map(str),
    _to_float: floats,
    _to_bool: st.sampled_from(["true", "false", "yes", "off", "1", "0"]),
}


def _potential_nodes(children):
    return st.one_of(
        st.tuples(children, st.sampled_from("+-*/^"), children).map(
            lambda t: f"({t[0]} {t[1]} {t[2]})"),
        children.map(lambda c: f"-{c}"),
        st.tuples(st.sampled_from(["sin", "cos", "exp", "abs", "sqrt"]),
                  children).map(lambda t: f"{t[0]}({t[1]})"),
    )


potentials = st.recursive(
    st.one_of(st.sampled_from(["x1", "x2", "x3"]), floats),
    _potential_nodes, max_leaves=12,
)


def _as_int(value):
    """value as the config reads an integer, or 0 if it reads none."""
    try:
        return int(value)
    except ValueError:
        return 0


def _typed_value(key):
    """Values of the key's own type, in and out of its range."""
    if key in MESH_CAPS:
        return st.integers(0, MESH_CAPS[key]).map(str)
    if key == "problem.potential":
        return potentials
    if key == "problem.box":
        return st.lists(intervals, min_size=1, max_size=3).map("; ".join)
    if key == "solver.method":
        return st.sampled_from([*SolverConfig.METHODS, "cg"])
    return _TYPED[_SCHEMA[key][0]]


@st.composite
def config_texts(draw):
    keys = draw(st.lists(st.sampled_from(sorted(_SCHEMA)), unique=True,
                         max_size=8))
    # the three required keys are left out in a fifth of the examples
    if draw(st.integers(0, 4)):
        keys += [key for key in ("problem.dim", "problem.potential",
                                 "problem.zeta") if key not in keys]
    lines = []
    for key in keys:
        # one value in thirty is of no type at all
        value = draw(_typed_value(key) if draw(st.integers(0, 29))
                     else junk)
        if key in MESH_CAPS and _as_int(value) > MESH_CAPS[key]:
            value = str(MESH_CAPS[key])
        lines.append(f"{key} = {value}")
    # in one example in four, a duplicate, an unknown or a removed key or
    # a line of free text
    if lines and not draw(st.integers(0, 3)):
        lines.append(draw(st.one_of(
            st.sampled_from([lines[0], "solver.pre_smooth = 2",
                             "coarse.alpha = 0.5", "problem = 1"]),
            st.text(max_size=20))))
    return "\n".join(draw(st.permutations(lines))) + "\n"


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(text=config_texts(),
       command=st.sampled_from(["solve", "study", "bench"]),
       levels=st.sampled_from([None, "0", "1", "2"]),
       mixing=st.booleans())
def test_any_config_text_ends_in_a_documented_exit(tmp_path, capsys, text,
                                                   command, levels, mixing):
    path = tmp_path / "fuzz.cfg"
    path.write_text(text, encoding="utf-8")
    argv = [command, "--config", str(path)]
    if levels is not None or "discretization.levels" not in text:
        argv += ["--levels", levels or "2"]
    if mixing:
        argv.append("--mixing")
    code = run(argv)
    err = capsys.readouterr().err
    assert code in EXIT_CODES
    if code:
        assert err.count("\n") == 1 and err.endswith("\n"), err
        assert "Traceback" not in err
