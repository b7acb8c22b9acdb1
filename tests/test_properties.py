"""Property tests of the collinear finder over the whole legal domain."""

import math
import warnings

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rc3bp import collinear
from rc3bp.collinear import Interval, PredictedCount
from rc3bp.errors import Rc3bpError
from rc3bp.params import SystemParams, is_admissible
from formula_oracles import interval_of

# root counts (a double root counted twice) each prediction allows
_ALLOWED = {
    PredictedCount.ZERO: {0},
    PredictedCount.EXACTLY_ONE: {1},
    PredictedCount.ONE_CONDITIONAL: {1},
    PredictedCount.UP_TO_TWO: {0, 2},
}

# mu log-uniform from 1e-300 to just below 1
mus = st.floats(min_value=-300.0, max_value=-1e-3).map(lambda e: 10.0**e)
# beta = 0, or of either sign with |beta| log-uniform from 1e-300 to 1e300
betas = st.one_of(
    st.just(0.0),
    st.builds(
        lambda sign, e: sign * 10.0**e,
        st.sampled_from([-1.0, 1.0]),
        st.floats(min_value=-300.0, max_value=300.0),
    ),
)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(mu=mus, beta1=betas, beta2=betas)
def test_find_collinear_is_consistent_or_raises_a_typed_error(mu, beta1, beta2):
    if not is_admissible(beta1, beta2):
        beta2 = -beta2     # both betas beyond the hyperbola: one changes sign
    assume(is_admissible(beta1, beta2) and (beta1, beta2) != (0.0, 0.0))
    p = SystemParams(mu, beta1, beta2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            roots = collinear.find_collinear(p)
        except Rc3bpError:
            return
    for iv in Interval:
        mine = [r for r in roots if r.interval is iv]
        for r in mine:
            assert math.isfinite(r.x) and interval_of(mu, r.x) is iv
        prediction = collinear.predicted_root_count(p, iv)
        if prediction is PredictedCount.UNSPECIFIED:
            continue
        assert sum(r.multiplicity for r in mine) in _ALLOWED[prediction], (iv, mine)
        assert all(r.multiplicity == 1 for r in mine) or prediction is PredictedCount.UP_TO_TWO
