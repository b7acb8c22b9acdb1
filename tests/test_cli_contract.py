"""The CLI contract, on drawn command lines run through `main` in this process.

Every run ends in exit 0, 2 or 3 and never lets an exception out, with
warnings raised as errors. Exit 0 prints finite JSON, or for `integrate`
finite CSV (whose last `t` is `--t-end` under `--every`), and writes
nothing to stderr; collinear root counts lie in the set their `predicted`
field allows. Any other exit prints nothing on stdout and one stderr line
that names its kind.

The arguments are drawn so that argparse accepts them: numbers are
written in the `--flag=value` form, so that a negative one is not taken
for an option. Only `main` is used from the package.
"""

import contextlib
import io
import json
import math
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rc3bp.cli import main

CONTRACT = settings(derandomize=True, database=None, deadline=None)

# the edges of the doubles, the non-finite values, and any double
EXTREMES = st.one_of(
    st.sampled_from(
        [0.0, -0.0, 1.0, 5e-324, 1e-300, 1e300, 1.7976931348623157e308,
         math.nan, math.inf, -math.inf]
    ),
    st.floats(),
)


def _mostly(ordinary):
    """A value from `ordinary` four times in five, else one from EXTREMES."""
    return st.integers(0, 4).flatmap(lambda k: ordinary if k else EXTREMES)


NUMBERS = _mostly(st.floats(-3.0, 3.0))
MASS_RATIOS = _mostly(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))

# the collinear root counts (a double root counted twice) each `predicted` allows
ALLOWED_COUNTS = {"zero": {0}, "exactly-one": {1}, "one-conditional": {1}, "up-to-two": {0, 2}}


def _flag(name: str, value) -> str:
    return f"--{name}={value!r}" if isinstance(value, float) else f"--{name}={value}"


def _flags(**values) -> list[str]:
    return [_flag(name, v) for name, v in values.items() if v is not None]


def _params():
    return st.builds(lambda mu, b1, b2: _flags(mu=mu, beta1=b1, beta2=b2),
                     MASS_RATIOS, NUMBERS, NUMBERS)


def _optional(strategy):
    return st.one_of(st.none(), strategy)


@st.composite
def numpy_free_commands(draw) -> list[str]:
    """validate, two-body, equilibria, stability or critical-roots."""
    command = draw(
        st.sampled_from(["validate", "two-body", "equilibria", "stability", "critical-roots"])
    )
    if command == "two-body":
        masses = draw(st.tuples(NUMBERS, NUMBERS, NUMBERS, NUMBERS))
        extra = draw(st.fixed_dictionaries({
            "G": _optional(NUMBERS), "k": _optional(NUMBERS),
            "kstar": _optional(NUMBERS), "l": _optional(NUMBERS),
        }))
        return [command, *_flags(m1=masses[0], m2=masses[1], q1=masses[2], q2=masses[3]),
                *_flags(**extra)]
    if command == "critical-roots":
        series = draw(st.sampled_from([[], ["--series"]]))
        return [command, _flag("mu", draw(MASS_RATIOS)), *series]
    argv = [command, *draw(_params())]
    if command == "equilibria":
        argv.append(_flag("kind", draw(st.sampled_from(["triangular", "collinear"]))))
    elif command == "stability":
        point = draw(_optional(st.tuples(NUMBERS, NUMBERS)))
        if point is not None:
            argv.append(f"--point={point[0]!r},{point[1]!r}")
    return argv


@st.composite
def every_grids(draw) -> tuple[str, str]:
    """(--t-end, --every), both 1-3-decimal numbers in (0, 1]; half the time
    --t-end is a whole number of steps, where the last one may round past it."""
    scale = 10 ** draw(st.integers(1, 3))
    step = draw(st.integers(1, scale))
    end = draw(st.one_of(st.integers(1, scale // step).map(lambda k: k * step),
                         st.integers(1, scale)))
    return repr(end / scale), repr(step / scale)


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    try:
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            code = main(argv)
    except BaseException as exc:  # any escape, SystemExit included, breaks the contract
        pytest.fail(f"rc3bp {' '.join(argv)} raised {exc!r}")
    return code, out.getvalue(), err.getvalue()


def _reject_constant(name: str):
    raise AssertionError(f"JSON holds {name}")


def _check(argv: list[str]) -> tuple[int, str]:
    code, out, err = _run(argv)
    assert code in (0, 2, 3), (argv, code)
    if code:
        assert out == "", argv
        assert err.endswith("\n") and err.count("\n") == 1, (argv, err)
        assert err.startswith(("error:", "numeric failure:", "io failure")), (argv, err)
    else:
        assert err == "", (argv, err)
    return code, out


def _check_json(argv: list[str]) -> None:
    code, out = _check(argv)
    if code:
        return
    assert out.endswith("\n")
    payload = json.loads(out, parse_constant=_reject_constant)
    if payload.get("kind") == "collinear":
        for interval, prediction in payload["predicted"].items():
            count = sum(r["multiplicity"] for r in payload["roots"] if r["interval"] == interval)
            assert prediction == "unspecified" or count in ALLOWED_COUNTS[prediction], argv


@settings(CONTRACT, max_examples=400)
@given(numpy_free_commands())
def test_numpy_free_subcommands_keep_the_exit_contract(argv):
    _check_json(argv)


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("contract")


def _ulps_from(x: float, k: int) -> float:
    for _ in range(abs(k)):
        x = math.nextafter(x, math.inf if k > 0 else 0.0)
    return x


# mu* = 1/2 - sqrt(2)/3, where F first reaches 0, and the doubles a few ulp either side
NEAR_CRITICAL = st.integers(-4, 16).map(lambda k: _ulps_from(0.5 - math.sqrt(2.0) / 3.0, k))


@settings(CONTRACT, max_examples=60)
@given(
    figure_mu=st.one_of(
        st.tuples(st.integers(0, 20), _optional(MASS_RATIOS)),
        st.tuples(st.integers(16, 21), NEAR_CRITICAL),
    ),
    resolution=st.integers(-1, 8),
    missing_dir=st.booleans(),
)
def test_regions_keeps_the_exit_contract(out_dir, figure_mu, resolution, missing_dir):
    figure, mu = figure_mu
    out = out_dir / "missing" / "figure" if missing_dir else out_dir / "figure"
    _check_json(["regions", *_flags(figure=figure, mu=mu, resolution=resolution, out=out)])


@settings(CONTRACT, max_examples=100)
@given(
    params=st.tuples(st.floats(0.01, 0.99), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
    radius=st.floats(3.0, 4.0),
    angle=st.floats(-math.pi, math.pi),
    momenta=st.tuples(st.floats(-0.3, 0.3), st.floats(-0.3, 0.3)),
    grid=every_grids(),
)
def test_integrate_every_ends_at_t_end(params, radius, angle, momenta, grid):
    # a start 2 or more from both primaries, slow enough to stay that far
    # within t_end <= 1
    t_end, every = grid
    state = (radius * math.cos(angle), radius * math.sin(angle), *momenta)
    argv = ["integrate", *_flags(mu=params[0], beta1=params[1], beta2=params[2]),
            "--state=" + ",".join(map(repr, state)), "--tol=1e-6",
            f"--t-end={t_end}", f"--every={every}"]
    code, out = _check(argv)
    assert code == 0, argv
    rows = [line.split(",") for line in out.splitlines()]
    assert rows[0] == ["t", "x", "y", "px", "py", "H"]
    assert all(math.isfinite(float(v)) for row in rows[1:] for v in row), argv
    assert float(rows[-1][0]) == float(t_end), argv


# a start a distance from a primary: on it, a subnormal off it, inside the
# collision radius (1e-6), or ordinary
OFFSETS = st.one_of(
    st.sampled_from([0.0, 5e-324, -5e-324, 1e-310, -1e-320]),
    st.floats(-1e-6, 1e-6),
    st.floats(-3.0, 3.0),
)
# momenta of any size up to 1e300, either sign
MOMENTA = st.one_of(NUMBERS, st.builds(lambda sign, e: sign * 10.0**e,
                                       st.sampled_from([1.0, -1.0]), st.floats(-300.0, 300.0)))


@st.composite
def integrate_starts(draw) -> list[str]:
    """integrate from a start next to either primary or anywhere, for at most 1e-2."""
    mu = draw(_mostly(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)))
    near = draw(st.sampled_from([-mu, 1.0 - mu, None]))
    if near is None or not math.isfinite(near):
        x, y = draw(NUMBERS), draw(NUMBERS)
    else:
        x, y = near + draw(OFFSETS), draw(OFFSETS)
    state = (x, y, draw(MOMENTA), draw(MOMENTA))
    return ["integrate", *_flags(mu=mu, beta1=draw(NUMBERS), beta2=draw(NUMBERS)),
            "--state=" + ",".join(map(repr, state)),
            _flag("t-end", draw(st.floats(1e-9, 1e-2)))]


@settings(CONTRACT, max_examples=150)
@given(integrate_starts())
def test_integrate_keeps_the_exit_contract_from_any_start(argv):
    # a solve that leaves the doubles is one numeric failure, never a warning per step
    code, out = _check(argv)
    if code == 0:
        rows = [line.split(",") for line in out.splitlines()]
        assert rows[0] == ["t", "x", "y", "px", "py", "H"] and len(rows) > 1, argv
        assert all(math.isfinite(float(v)) for row in rows[1:] for v in row), argv
