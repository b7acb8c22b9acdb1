"""The package's Brent root finder against scipy.optimize.brentq.

scipy is the independent oracle here: the port must return the very
same float (and raise the same error) on every bracket, with scipy set to
the port's fixed rtol and iteration limit.
"""

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
    src = str(Path(rc3bp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
