"""One rule for what counts as a number (``errors._numbers``): every dense
array and real-valued parameter a caller passes in is read by it, so ragged
rows, text ("0.5" included) and object entries raise a typed error that names
the argument, rather than being parsed or escaping as a bare numpy or Python
error."""

import re

import numpy as np
import pytest

from pbnet.analysis import detect_convergence, measure_empirical_rate, oscillation_amplitude
from pbnet.dynamics import (
    FullSharing,
    PartialSharing,
    SelfAwarePartialSharing,
    check_log_beliefs,
    combine_step,
    modify_for_sharing,
    run_iteration,
    run_trajectory,
)
from pbnet.errors import InvalidObservationError, ValidationError
from pbnet.likelihoods import (
    DiscreteFamily,
    GaussianFamily,
    log_likelihood_row,
    log_likelihood_rows,
    mixture_kl,
)
from pbnet.network import (
    Network,
    alpha_constant,
    build_averaging_matrix,
    generate_strongly_connected_adjacency,
    is_strongly_connected,
    mislearning_weight_sum,
    perron_vector,
    ring_adjacency,
)

A2 = np.array([[0.8, 0.3], [0.2, 0.7]])
V2 = perron_vector(A2)
NET2 = Network.from_matrix(A2)
LOG2 = np.log([[0.6, 0.4], [0.3, 0.7]])
TRAJ = np.log(np.full((6, 2, 2), 0.5))
GAUSS = GaussianFamily([0.0, 1.0])
DISC = DiscreteFamily([[0.5, 0.5], [0.2, 0.8]])
P = np.array([1.0, 0.0])
EDGES = np.ones((2, 2), bool)


def rng():
    return np.random.default_rng(0)


# entry: (argument name, error, call of the argument, a valid argument)
ENTRIES = {
    "modify_for_sharing": ("log-beliefs", ValidationError,
                           lambda x: modify_for_sharing(x, PartialSharing(0)), LOG2),
    "combine_step-shared": ("log-beliefs", ValidationError,
                            lambda x: combine_step(NET2, x, LOG2, FullSharing()), LOG2),
    "combine_step-own": ("own log-beliefs", ValidationError,
                         lambda x: combine_step(NET2, LOG2, x, SelfAwarePartialSharing(0)), LOG2),
    "run_trajectory": ("log-beliefs", ValidationError,
                       lambda x: run_trajectory(x, NET2, DISC, 0, FullSharing(), 1, rng()), LOG2),
    "run_iteration": ("log-beliefs", ValidationError,
                      lambda x: run_iteration(x, NET2, DISC, 0, FullSharing(), rng()), LOG2),
    "check_log_beliefs": ("log-beliefs", ValidationError, check_log_beliefs, LOG2),
    "log_likelihood_rows-gaussian": ("observations", InvalidObservationError,
                                     lambda x: log_likelihood_rows(GAUSS, x), np.zeros(2)),
    "log_likelihood_rows-discrete": ("observations", InvalidObservationError,
                                     lambda x: log_likelihood_rows(DISC, x), np.zeros(2, int)),
    "log_likelihood_row": ("observations", InvalidObservationError,
                           lambda x: log_likelihood_row(GAUSS, x), np.array(0.5)),
    "GaussianFamily": ("means", ValidationError, GaussianFamily, GAUSS.means),
    "DiscreteFamily": ("pmf", ValidationError, DiscreteFamily, DISC.pmf),
    "mixture_kl": ("mixture weights", ValidationError, lambda x: mixture_kl(DISC, x, P), P),
    "is_strongly_connected": ("adjacency", ValidationError, is_strongly_connected, EDGES),
    "from_matrix-adjacency": ("adjacency", ValidationError,
                              lambda x: Network.from_matrix(A2, adjacency=x), EDGES),
    "from_matrix": ("combination matrix", ValidationError, Network.from_matrix, A2),
    "perron_vector": ("combination matrix", ValidationError, perron_vector, A2),
    "alpha_constant": ("combination matrix", ValidationError, lambda x: alpha_constant(x, V2), A2),
    "mislearning_weight_sum": ("perron", ValidationError,
                               lambda x: mislearning_weight_sum(A2, x), V2),
    "build_averaging_matrix": ("adjacency", ValidationError,
                               lambda x: build_averaging_matrix(x, 0.5), EDGES),
    "self_weight": ("self-weight", ValidationError,
                    lambda x: build_averaging_matrix(ring_adjacency(3), x), np.array(0.5)),
    "edge_probability": ("edge probability", ValidationError,
                         lambda x: generate_strongly_connected_adjacency(3, x, rng()),
                         np.array(0.5)),
    "measure_empirical_rate": ("log-beliefs", ValidationError,
                               lambda x: measure_empirical_rate(x, 0, 1, 1), TRAJ),
    "detect_convergence": ("log-beliefs", ValidationError,
                           lambda x: detect_convergence(x, window=2), TRAJ),
    "threshold": ("threshold", ValidationError,
                  lambda x: detect_convergence(TRAJ, threshold=x, window=2), np.array(0.9)),
    "oscillation_amplitude": ("log-beliefs", ValidationError,
                              lambda x: oscillation_amplitude(x, 0, 1, 2), TRAJ),
}


def with_none(good):
    bad = good.astype(object)
    bad.flat[0] = None
    return bad


BAD = {
    "ragged": lambda good: [good.tolist(), [0.0]],
    "text": lambda good: np.full(good.shape, "x"),
    "numeric_text": lambda good: np.full(good.shape, "0.5"),
    "object": with_none,
}


@pytest.mark.parametrize("kind", BAD)
@pytest.mark.parametrize("entry", ENTRIES)
def test_arrays_must_hold_numbers(entry, kind):
    # the valid argument passes; a bad one raises the entry's typed error,
    # which names the argument first
    name, error, call, good = ENTRIES[entry]
    call(good)
    bad = BAD[kind](good)
    # a trajectory must be an array: a list, ragged or not, fails its shape check first
    why = " must be a" if good is TRAJ and isinstance(bad, list) else ": not a table of numbers"
    with pytest.raises(ValidationError, match=f"^{re.escape(name)}{why}") as caught:
        call(bad)
    assert type(caught.value) is error


@pytest.mark.parametrize("value", ["0.5", "x", None, [0.5]],
                         ids=["numeric_text", "text", "none", "list"])
@pytest.mark.parametrize("name, call", [
    ("self-weight", lambda v: build_averaging_matrix(ring_adjacency(3), v)),
    ("edge probability", lambda v: generate_strongly_connected_adjacency(3, v, rng())),
    ("threshold", lambda v: detect_convergence(TRAJ, threshold=v, window=2)),
], ids=["self_weight", "edge_probability", "threshold"])
def test_real_parameters_are_one_number(name, call, value):
    # "0.5" was taken as 0.5, "x" a bare ValueError, None and [0.5] a bare TypeError
    with pytest.raises(ValidationError, match=f"^{name}"):
        call(value)


def test_perron_vector_reads_a_plain_list():
    # as alpha_constant does; a list once had no attribute 'shape'
    assert perron_vector(A2.tolist()).tobytes() == V2.tobytes()
