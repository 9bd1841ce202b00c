"""How the suite runner pairs a shifted profile with its homogeneous sibling."""

import pytest

from ffdioph import Fq, SeriesMatrix, profile, runner
from ffdioph.config import ExperimentConfig
from ffdioph.generators import derive_rng, random_series

F2 = Fq(2)


def test_profile_prefix_cuts_the_homogeneous_sibling():
    # a prefix never carries a longer sibling: the sibling is cut with it
    Y = SeriesMatrix([[random_series(F2, -40, derive_rng(30, "prefix", j)) for j in range(2)]])
    theta = (random_series(F2, -40, derive_rng(30, "prefix-theta")),)
    prof = profile(Y, theta, 16)
    cut = runner._profile_prefix(prof, 9)
    assert (cut.T_max, cut.entries) == (9, prof.entries[:9])
    assert cut.homogeneous == profile(Y, None, 9)
    assert runner._profile_prefix(profile(Y, None, 16), 9).homogeneous is None


@pytest.mark.parametrize(
    "raw, per_instance",
    [
        # the shifted profile and its sibling: one run
        ({"suite": "estimate", "dims": [2, 2], "T_max": 12, "floor": -24, "theta": {"kind": "random"}}, [2]),
        # a zero shift: the profile is its own homogeneous one
        ({"suite": "estimate", "T_max": 12, "floor": -24}, [1]),
        # the standard pair, then the multiplicative profile's basis
        ({"suite": "transference", "T_max": 12, "mult_T_max": 8, "floor": -24}, [2, 1]),
        # mult_T_max above T_max: the sibling is cut to T_max
        ({"suite": "transference", "T_max": 8, "mult_T_max": 12, "floor": -24}, [2, 1]),
    ],
    ids=["estimate-shifted", "estimate-zero", "transference", "transference-longer-mult"],
)
def test_basis_runs_per_instance(monkeypatch, raw, per_instance):
    # one order basis run per (Y, theta): a shifted estimate instance makes
    # one, a 1x1 transference instance two; each list is the sides of a run
    import ffdioph.exponents as exponents

    real, runs = exponents.order_basis_depths, []

    def spy(Y, thetas, D_max, col_shifts=None):
        runs.append(len(thetas))
        return real(Y, thetas, D_max, col_shifts)

    monkeypatch.setattr(exponents, "order_basis_depths", spy)
    report, code = runner.run_config(ExperimentConfig.from_dict({**raw, "instances": 3}))
    assert code == 0 and not any("internal_error" in r for r in report["results"])
    assert runs == per_instance * 3
