"""Every entry point rejects malformed input with its own message.

One row per check: the call, the exception type and the exact message.  The
messages are part of the interface the CLI prints; ``comass_bruteforce``
says "form and metric" where the other (g, omega) entry points say "metric
and two-form".
"""

import numpy as np
import pytest

from semicalib import (
    Endomorphism,
    Frame,
    MetricTensor,
    ParseError,
    PowerForm,
    TwoForm,
    align_frame,
    associated_endomorphism,
    comass_bruteforce,
    comass_exact,
    complement_basis,
    construct_point,
    eval_power,
    gram_schmidt,
    lift_odd,
    paired_spectrum,
    parse_calfield,
    pfaffian,
    plane_area,
)
from semicalib import test_calibrated as check_calibrated
from semicalib.forms import _trusted
from semicalib.jsonio import dumps

I2, I3, I4 = (MetricTensor.identity(n) for n in (2, 3, 4))
Z4 = TwoForm.zero(4)
HEADER = "CALFIELD 1\nDIM 2\n"

CASES = {
    # the CALFIELD parser
    "parse/dimension-token": (lambda: parse_calfield("CALFIELD 1\nDIM two\n"), ParseError,
                              "cannot parse dimension 'two' (line 2)"),
    "parse/end-of-file": (lambda: parse_calfield("CALFIELD 1\n"), ParseError,
                          "unexpected end of file, expected 'DIM n' (line 1)"),
    "parse/dim-arity": (lambda: parse_calfield("CALFIELD 1\nDIM 2 3\n"), ParseError,
                        "DIM takes exactly one value (line 2)"),
    "parse/points-arity": (lambda: parse_calfield(HEADER + "POINTS 1 2\n"), ParseError,
                           "POINTS takes exactly one value (line 3)"),
    "parse/points-count": (lambda: parse_calfield(HEADER + "POINTS 0\n"), ParseError,
                           "point count must be >= 1, got 0 (line 3)"),
    # forms
    "metric/coefficients": (lambda: MetricTensor.from_upper(2, [1.0, 2.0]), ValueError,
                            "expected 3 coefficients, got 2"),
    "two-form/pair": (lambda: TwoForm.from_pairs(4, {(1, 0): 1.0}), ValueError,
                      "invalid index pair (1, 0) for dimension 4"),
    "two-form/coefficients": (lambda: TwoForm.from_upper(3, [1.0]), ValueError,
                              "expected 3 coefficients, got 1"),
    "frame/shape": (lambda: Frame(np.zeros(3)), ValueError,
                    "frame vectors must form a 2-d array, got shape (3,)"),
    "frame/dimension": (lambda: Frame(np.zeros((1, 17))), ValueError,
                        "frame dimension must be in [1, 16], got 17"),
    "frame/finite": (lambda: Frame([[np.nan, 0.0]]), ValueError, "frame contains non-finite entries"),
    "plane-area/gram": (lambda: plane_area(_trusted(MetricTensor, entries=np.diag([1.0, -1.0])), [1, 0], [0, 1]),
                        ValueError, "negative Gram determinant -1; metric is not PSD"),
    "gram-schmidt/dimension": (lambda: gram_schmidt(I3, Frame(np.eye(4)[:2])), ValueError,
                               "frame and metric dimensions disagree"),
    "complement-basis/dimension": (lambda: complement_basis(I3, Frame(np.eye(4)[:2])), ValueError,
                                   "frame and metric dimensions disagree"),
    # spectral
    "endomorphism/shape": (lambda: Endomorphism(np.zeros((2, 3))), ValueError,
                           "endomorphism must be square, got shape (2, 3)"),
    "endomorphism/finite": (lambda: Endomorphism([[np.inf]]), ValueError,
                            "endomorphism contains non-finite entries"),
    "associated-endomorphism/dimension": (lambda: associated_endomorphism(I2, Z4), ValueError,
                                          "metric and two-form dimensions disagree"),
    "paired-spectrum/dimension": (lambda: paired_spectrum(Endomorphism(np.zeros((2, 2))), I4), ValueError,
                                  "endomorphism and metric dimensions disagree"),
    # construction
    "lift-odd/dimension": (lambda: lift_odd(I3, Z4), ValueError, "metric and two-form dimensions disagree"),
    "align-frame/sizes": (lambda: align_frame(Frame(np.eye(4)[:2]), Frame(np.eye(4)[:1]), I4), ValueError,
                          "hint and base frames have different sizes"),
    "construct-point/dimension": (lambda: construct_point(I2, Z4), ValueError,
                                  "metric and two-form dimensions disagree"),
    # comass
    "pfaffian/shape": (lambda: pfaffian(np.zeros((2, 3))), ValueError, "pfaffian needs a square matrix"),
    "comass-exact/form-type": (lambda: comass_exact(I4, np.zeros((4, 4))), TypeError,
                               "expected TwoForm or PowerForm, got ndarray"),
    "eval-power/dimension": (lambda: eval_power(PowerForm(Z4, 1), Frame(np.eye(6)[:2])), ValueError,
                             "frame and form dimensions disagree"),
    "comass-exact/dimension": (lambda: comass_exact(I2, Z4), ValueError, "metric and two-form dimensions disagree"),
    "comass-bruteforce/dimension": (lambda: comass_bruteforce(I2, Z4), ValueError,
                                    "form and metric dimensions disagree"),
    "test-calibrated/size": (lambda: check_calibrated(I4, Z4, Frame(np.eye(4)[:3])), ValueError,
                             "frame must have exactly 2 vectors, got 3"),
    "test-calibrated/dimension": (lambda: check_calibrated(I4, Z4, Frame(np.eye(6)[:2])), ValueError,
                                  "frame and form dimensions disagree"),
    # JSON output
    "dumps/type": (lambda: dumps({"x": object()}), TypeError, "cannot serialize object"),
}


@pytest.mark.parametrize("name", CASES)
def test_rejects_malformed_input(name):
    call, kind, message = CASES[name]
    with pytest.raises(kind) as raised:
        call()
    assert type(raised.value) is kind and str(raised.value) == message
