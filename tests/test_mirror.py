"""The mirror symmetry as a metamorphic contract over the public API and the CLI.

Relabelling the bodies takes (mu, beta1, beta2, x) to (1 - mu, beta2, beta1, -x).
Where 1 - mu is exact, the mirrored call is the same problem, so every count,
class, error type and exit code must be equal, with I1 and I3 swapped, and so
must the triangular pair's height yL, bit for bit, and its location, reflected
(left of body 1 and right of body 2 swapped, above/below body 1 and body 2
swapped). Roots and xL are left out: they are not yet correctly rounded, and a
root and its mirror can differ by tens of ulp, xL and its mirror in the last bit.

A mutant that swaps I1 and I3 everywhere would commute with the mirror; one
that swaps them in `predicted_root_count` alone is caught because the
prediction then contradicts the bands the roots are solved on, and the API
raises an error that is not an `Rc3bpError`.
"""

import contextlib
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rc3bp
from rc3bp.cli import main
from rc3bp.triangular import TriangularLocation, _triangle, triangular_points

# 1 - mu is exact for each of these
MASS_RATIOS = st.sampled_from([0.5, 0.375, 0.25, 0.125, 2.0**-10])
# |beta| log-uniform in 1e-3..1e3, either sign
BETAS = st.builds(lambda sign, e: sign * 10.0**e, st.sampled_from([1.0, -1.0]), st.floats(-3.0, 3.0))


def _outcome(call):
    """The value, or the type of the rc3bp error it raised."""
    try:
        return call()
    except rc3bp.Rc3bpError as exc:
        return type(exc)


def _exit_code(*argv: str) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(list(argv))


def _answers(mu: float, beta1: float, beta2: float) -> dict:
    """Every mirror-invariant answer for (mu, beta1, beta2), keyed by interval where
    it has one; the mirror reads these with I1 and I3 swapped."""
    params = rc3bp.SystemParams(mu, beta1, beta2)
    flags = [f"--mu={mu!r}", f"--beta1={beta1!r}", f"--beta2={beta2!r}"]
    answers = {
        "classification": _outcome(lambda: rc3bp.classify_triangular(params).classification),
        "triangular pair": _outcome(lambda: triangular_points(params)[1::3]),    # (yL, location)
        "equilibria triangular": _exit_code("equilibria", *flags, "--kind=triangular"),
        "equilibria collinear": _exit_code("equilibria", *flags, "--kind=collinear"),
        "stability": _exit_code("stability", *flags),
    }
    for interval in rc3bp.Interval:
        answers[f"resolved {interval.value}"] = _outcome(
            lambda: rc3bp.resolved_root_count(params, interval)
        )
        answers[f"predicted {interval.value}"] = _outcome(
            lambda: rc3bp.predicted_root_count(params, interval)
        )
    return answers


_SWAP = str.maketrans({"1": "3", "3": "1"})
# the enum runs left of body 1, above/below body 1, between, above/below body 2, right of body 2
_REFLECTED = dict(zip(TriangularLocation, reversed(TriangularLocation)))


def _mirrored(key: str, value):
    """The answer under `key` as the mirrored problem gives it."""
    if key == "triangular pair" and isinstance(value, tuple):
        return value[0], _REFLECTED[value[1]]
    return value


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(MASS_RATIOS, BETAS, BETAS)
def test_the_mirrored_problem_has_the_same_answers(mu, beta1, beta2):
    answers = _answers(mu, beta1, beta2)
    mirrored = {key.translate(_SWAP): _mirrored(key, v)
                for key, v in _answers(1.0 - mu, beta2, beta1).items()}
    assert answers == mirrored


# In parameter space the mirror swaps the two sides of the triangle (delta1, delta2, 1),
# and F is symmetric in mu <-> 1 - mu, so figures 6 and 19-21 are their own transposes.
@pytest.mark.parametrize("resolution", [100, 101, 128, 500])
def test_the_parameter_space_figures_equal_their_transposes(resolution):
    for figure in (6, 19, 20, 21):
        labels = rc3bp.figure_dataset(figure, resolution=resolution).raster.labels
        assert np.array_equal(labels, labels.T), (figure, np.count_nonzero(labels != labels.T))


def test_the_triangle_kernel_is_bitwise_symmetric_on_its_closed_domain():
    # sides within a few ulp of the three degeneracy lines and on a coarse grid
    rng = np.random.default_rng(7)
    d1 = np.concatenate([rng.uniform(0.0, 3.0, 4000), np.linspace(0.01, 2.99, 300)])
    d2 = np.concatenate([
        np.nextafter(d1[:1000] + 1.0, rng.choice([0.0, 9.0], 1000)),
        np.nextafter(1.0 - d1[1000:2000], rng.choice([-1.0, 9.0], 1000)),
        rng.uniform(0.0, 3.0, 2000), d1[-300:][::-1],
    ])
    keep = (d1 > 0.0) & (d2 > 0.0)
    d1, d2 = d1[keep], d2[keep]
    closed, flat, sin2 = _triangle(d1, d2)
    closed_t, flat_t, sin2_t = _triangle(d2, d1)
    assert np.array_equal(closed, closed_t) and np.array_equal(flat, flat_t)
    assert np.array_equal(sin2[closed], sin2_t[closed])
    assert 0.2 * d1.size < np.count_nonzero(closed) < 0.9 * d1.size
