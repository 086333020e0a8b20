import copy

import numpy as np
import pytest

from qinfokit import channels, entwit, qec, randkit, sdpcore, states, zeroerr


def instances() -> dict:
    ch = channels.Channel(2, 2, (np.eye(2),))
    code = qec.Code(3, 2, np.eye(3)[:, :2])
    bell = states.max_entangled(2)
    prob = sdpcore.lovasz_theta_problem(3, [(0, 1)])
    return {
        "Channel": ch,
        "ChoiMatrix": channels.choi(ch),
        "SchurMap": channels.SchurMap(np.ones((2, 2))),
        "Code": code,
        "KLReport": qec.kl_check(code, [np.eye(3)]),
        "State": states.werner(2, 0.5),
        "PureState": bell,
        "SchmidtForm": states.schmidt_decompose(bell),
        "MatrixSubspace": entwit.min_rank_subspace(2, 2, 1),
        "MatrixDistribution": randkit.MatrixDistribution.bernoulli_projector(2, 0.5),
        "RandomizingFamily": randkit.sample_randomizing_family(
            bell.to_state(), 2, np.random.default_rng(0))[0],
        "SDPProblem": prob,
        "SDPSolution": sdpcore.solve(prob),
        "OperatorSystem": zeroerr.operator_system(2, [np.eye(2)]),
    }


@pytest.mark.parametrize("name", sorted(instances()))
def test_array_dataclasses_compare_by_identity(name):
    # Field-wise equality would compare arrays, which numpy refuses to
    # reduce to one bool, and hashing would hash arrays.
    x = instances()[name]
    assert type(x).__name__ == name
    assert x == x
    assert x != copy.deepcopy(x)
    assert hash(x) == hash(x)
