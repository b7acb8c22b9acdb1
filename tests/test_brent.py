"""The package's Brent root finder against scipy.optimize.brentq.

scipy is the independent oracle here: the port must return the very
same float (and raise the same error) on every bracket, with scipy set to
the port's fixed rtol and iteration limit. The last tests check, each in
a fresh interpreter, what the CLI and the root-finding paths import: no
scipy outside `integrate`, numpy only for `regions` and `integrate`, and
per subcommand exactly the rc3bp modules it runs.
"""

import hashlib
import importlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq as scipy_brentq

import rc3bp
from rc3bp import _brent
from rc3bp._brent import brentq
from rc3bp.collinear import f_axis, f_axis_prime, g_tilde
from rc3bp.params import SystemParams


def _outcome(solve):
    """The root's repr (so -0.0 and 0.0 differ), or the error's type and text."""
    try:
        root = solve()
    except (ValueError, RuntimeError) as exc:
        return type(exc).__name__, str(exc)
    assert type(root) is float
    return "root", repr(root)


def _same_as_scipy(f, a, b, xtol=2e-12):
    ours = _outcome(lambda: brentq(f, a, b, xtol))
    theirs = _outcome(
        lambda: scipy_brentq(f, a, b, xtol=xtol, rtol=_brent._RTOL, maxiter=_brent._MAXITER)
    )
    assert ours == theirs
    return ours[0]


def test_random_polynomial_brackets_match_scipy(monkeypatch):
    rng = np.random.default_rng(20240601)
    kinds = []
    for i in range(3000):
        roots = rng.uniform(-3.0, 3.0, rng.integers(1, 6))
        scale = 10.0 ** rng.uniform(-150.0, 150.0) * rng.choice([-1.0, 1.0])
        f = lambda x, r=roots, s=scale: s * math.prod(x - rk for rk in r)  # noqa: E731
        a, b = np.sort(rng.uniform(-3.5, 3.5, 2))
        if i % 2:
            a, b = float(a), float(b)
        xtol = 10.0 ** rng.uniform(-16.0, -2.0)
        with monkeypatch.context() as m:
            if i % 5 == 0:
                m.setattr(_brent, "_MAXITER", int(rng.integers(1, 12)))
            kinds.append(_same_as_scipy(f, a, b, xtol))
    # most draws bracket a root; the rest exercise the error paths
    assert kinds.count("root") > 900
    assert kinds.count("RuntimeError") > 50


def _sign_change_brackets(fn, lo, hi, n=400):
    xs = np.linspace(lo, hi, n)[1:-1]
    vals = np.array([fn(x) for x in xs])
    flips = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0.0)[0]
    return [(xs[i], xs[i + 1]) for i in flips]


def test_package_brackets_match_scipy():
    """f_axis, f_axis_prime and g_tilde brackets as the package forms them."""
    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(150):
        mu = rng.uniform(0.01, 0.99)
        p = SystemParams(mu, rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0))
        if not p.admissible:
            continue
        for lo, hi in ((-8.0, -mu), (-mu, 1.0 - mu), (1.0 - mu, 8.0)):
            for fn in (f_axis, f_axis_prime):
                for a, b in _sign_change_brackets(lambda x: fn(p, float(x)), lo, hi):
                    f = lambda x, fn=fn: fn(p, x)  # noqa: E731
                    _same_as_scipy(f, a, b, xtol=1e-15)                # np.float64 ends
                    _same_as_scipy(f, float(a), float(b), xtol=1e-15)  # float ends
                    checked += 1
    for mu in rng.uniform(1e-6, 1.0 - 1e-6, 40):
        mu = float(mu)
        _same_as_scipy(lambda x: g_tilde(x, mu), -mu, -mu / 3.0, xtol=1e-15)
        _same_as_scipy(lambda x: g_tilde(x, mu), np.float64(-mu), np.float64(-mu / 3.0), xtol=1e-15)
        checked += 2
    assert checked > 300


def test_nan_raises_like_scipy():
    f = lambda x: math.nan if x > 0.5 else x - 0.75  # noqa: E731
    with pytest.raises(ValueError, match="NaN"):
        brentq(f, 0.0, 1.0, 2e-12)
    _same_as_scipy(f, 0.0, 1.0)
    _same_as_scipy(lambda x: math.nan, 0.0, 1.0)


def test_same_sign_raises_like_scipy():
    with pytest.raises(ValueError, match="different signs"):
        brentq(lambda x: x * x + 1.0, -1.0, 1.0, 2e-12)
    _same_as_scipy(lambda x: x * x + 1.0, -1.0, 1.0)
    # the product of the two values underflows, their signs still agree
    _same_as_scipy(lambda x: 1e-200 if x < 0.5 else 2e-200, 0.0, 1.0)


def test_root_at_an_endpoint_is_returned_exactly():
    assert brentq(lambda x: x - 0.25, 0.25, 1.0, 2e-12) == 0.25
    assert brentq(lambda x: x - 1.0, 0.25, 1.0, 2e-12) == 1.0
    _same_as_scipy(lambda x: x - 0.25, 0.25, 1.0)
    _same_as_scipy(lambda x: x - 1.0, np.float64(0.25), np.float64(1.0))


def test_non_convergence_raises_like_scipy(monkeypatch):
    monkeypatch.setattr(_brent, "_MAXITER", 2)
    with pytest.raises(RuntimeError, match="after 2 iterations"):
        brentq(lambda x: x - 0.3, -1.0, 1.0, 1e-15)
    assert _same_as_scipy(lambda x: x - 0.3, -1.0, 1.0, 1e-15) == "RuntimeError"


def _run_fresh(code: str, *args: str, cwd=None) -> subprocess.CompletedProcess:
    """`python -c code *args` in a new interpreter that imports this checkout's rc3bp,
    killed after 60 s so that a hang fails the test."""
    src = str(Path(rc3bp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-c", code, *args], cwd=cwd, env=env, capture_output=True, text=True,
        timeout=60,
    )


def test_cli_start_up_does_not_import_scipy():
    code = "\n".join(
        [
            "import contextlib, io, sys",
            "import rc3bp, rc3bp.cli",
            "with contextlib.redirect_stdout(io.StringIO()):",
            "    assert rc3bp.cli.main(['critical-roots', '--mu=0.1']) == 0",
            "    assert rc3bp.cli.main(['equilibria', '--mu=0.2', '--beta1=-0.5', '--beta2=2',",
            "                           '--kind=collinear']) == 0",
            "loaded = sorted(m for m in sys.modules if m.startswith('scipy'))",
            "assert not loaded, loaded",
            "traj = rc3bp.integrate(rc3bp.SystemParams(0.1, 1.0, 1.0),",
            "                       rc3bp.PhaseState(0.5, 0.8, -0.8, 0.5), t_end=1.0)",
            "assert traj.reason == 'completed' and traj.t[-1] == 1.0",
            "assert 'scipy.integrate' in sys.modules",
        ]
    )
    proc = _run_fresh(code)
    assert proc.returncode == 0, proc.stderr


_REFERENCE_DIR = Path(__file__).resolve().parents[1] / "perfbench" / "data"

# One cli_reference.json case per subcommand, whether it needs numpy, and
# the rc3bp modules it loads beyond cli, errors and params
_CLI_CASES = [
    ("validate --mu=0.2 --beta1=0.5 --beta2=1.5", False, set()),
    ("two-body --m1=1 --m2=1 --q1=2 --q2=2 --kstar=3 --l=0.5", False, {"twobody"}),
    ("equilibria --mu=0.1 --beta1=0.8 --beta2=1.2 --kind=triangular", False, {"triangular"}),
    ("equilibria --mu=0.2 --beta1=-0.5 --beta2=2.0 --kind=collinear", False,
     {"_brent", "collinear"}),
    ("stability --mu=0.03 --beta1=0.9 --beta2=1.1", False, {"stability", "triangular"}),
    ("critical-roots --mu=0.1 --series", False, {"_brent", "collinear"}),
    ("stability --mu=0.2 --beta1=1.0 --beta2=1.0 --point=0.5,0.5", False,
     {"dynamics", "stability", "triangular"}),
    ("regions --figure=15 --resolution=16 --out=.bench_work/cli/figure-15-16", True,
     {"_brent", "collinear", "dynamics", "regions", "stability", "triangular"}),
    ("integrate --mu=0.1 --beta1=1.0 --beta2=1.0 --state=0.1,0,0,1.2 --t-end=2 --every=0.25", True,
     {"dynamics"}),
]

# cli.main in a new interpreter; the last stderr line is a JSON list: whether
# numpy, hashlib, dataclasses, inspect, json and fractions got loaded, and the rc3bp
# submodules that did, all read before this script imports json itself
_FRESH_MAIN = "\n".join(
    [
        "import sys",
        "from rc3bp.cli import main",
        "code = main(sys.argv[1:])",
        "own = sorted(m[6:] for m in sys.modules if m.startswith('rc3bp.'))",
        "names = ('numpy', 'hashlib', 'dataclasses', 'inspect', 'json', 'fractions')",
        "loaded = [m in sys.modules for m in names]",
        "loaded.append(own)",
        "import json",
        "print(json.dumps(loaded), file=sys.stderr)",
        "sys.exit(code)",
    ]
)


@pytest.mark.parametrize(
    "key, needs_numpy, modules", _CLI_CASES, ids=[f"{k}-{n}" for k, n, _ in _CLI_CASES]
)
def test_cli_subcommand_in_a_fresh_process(key, needs_numpy, modules, tmp_path):
    # a fresh interpreter catches a missing local import that an in-process
    # replay can miss because another test already loaded the module, and
    # sees every module a subcommand loads that it does not run
    reference = json.loads((_REFERENCE_DIR / "cli_reference.json").read_text())
    (tmp_path / ".bench_work" / "cli").mkdir(parents=True)
    proc = _run_fresh(_FRESH_MAIN, *key.split(" "), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == reference[key]
    numpy_loaded, hashlib_loaded, dataclasses_loaded, inspect_loaded, json_loaded, \
        fractions_loaded, own = json.loads(proc.stderr)
    assert numpy_loaded == needs_numpy
    # scipy loads hashlib for integrate; the figure writer imports it itself
    assert needs_numpy or not hashlib_loaded
    # the records are NamedTuples; scipy, for integrate, loads dataclasses itself
    assert key.startswith("integrate") or not dataclasses_loaded
    assert needs_numpy or not inspect_loaded
    # the JSON writer is the package's own; scipy, for integrate, loads json itself
    assert key.startswith("integrate") or not json_loaded
    # is_admissible and triangular._excess import fractions only for their exact fallbacks
    assert needs_numpy or not fractions_loaded
    assert set(own) == {"cli", "errors", "params"} | modules


def test_reproduce_all_as_a_library_loads_neither_argparse_nor_json(tmp_path):
    code = "\n".join(
        [
            "import sys",
            "import rc3bp.cli",
            "rc3bp.cli.reproduce_all(sys.argv[1], resolution=8)",
            "loaded = [m for m in ('argparse', 'json') if m in sys.modules]",
            "assert not loaded, loaded",
        ]
    )
    proc = _run_fresh(code, str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    files = json.loads((tmp_path / "manifest.json").read_text())["files"]
    digests = {e["file"]: hashlib.sha256((tmp_path / e["file"]).read_bytes()).hexdigest()
               for e in files}
    assert len(files) == 26 and digests == {e["file"]: e["sha256"] for e in files}


def test_cli_unknown_figure_exits_2_in_a_fresh_process(tmp_path):
    proc = _run_fresh(_FRESH_MAIN, "regions", "--figure=4", "--out=fig", cwd=tmp_path)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: unknown figure 4; choose from (5, 6, 7, 11,")
    assert not list(tmp_path.iterdir())


def test_collinear_path_does_not_import_numpy():
    # the package imports each public name on first use, and the collinear
    # solver, the potential, H and the triangular classification are pure
    # Python, so they run without numpy
    code = "\n".join(
        [
            "import sys",
            "import rc3bp",
            "from rc3bp import collinear",
            "p = rc3bp.SystemParams(0.3, -0.001, 0.5)",
            "assert collinear.find_collinear(p) and collinear.critical_roots(0.3)",
            "assert rc3bp.find_collinear(rc3bp.SystemParams(0.3, 0.5, -0.1))",
            "q = rc3bp.SystemParams(0.2, 1.2, 0.7)",
            "assert rc3bp.potential(q, 0.3, 0.4).V > 0.0",
            "assert rc3bp.hamiltonian(q, rc3bp.PhaseState(0.3, 0.4, 0.1, 0.2)) < 0.0",
            "assert rc3bp.classify_triangular(q).classification.value == 'LyapunovUnstable'",
            "assert 'numpy' not in sys.modules",
            "assert all(getattr(rc3bp, name) is not None for name in rc3bp.__all__)",
            "assert 'numpy' in sys.modules",
        ]
    )
    proc = _run_fresh(code)
    assert proc.returncode == 0, proc.stderr


def test_package_names_are_their_submodules_objects():
    for name in rc3bp.__all__[1:]:
        module = importlib.import_module(f"rc3bp.{rc3bp._MODULE_OF[name]}")
        assert getattr(rc3bp, name) is getattr(module, name)
    with pytest.raises(AttributeError):
        rc3bp.no_such_name
