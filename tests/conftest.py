import numpy as np
import pytest
from hypothesis import settings

from thinshell import gibbs1d, hamiltonians, projection, sumdensity

CLT_SCAN_NS = (8, 16, 32, 64, 128, 256)

# property tests draw the same examples on every run and stay small enough
# for the tier-1 budget
settings.register_profile("thinshell", derandomize=True, max_examples=50, deadline=None)
settings.load_profile("thinshell")


@pytest.fixture(scope="session")
def lin_model():
    return gibbs1d.solve_energy(hamiltonians.linear_half(), 1.0)


@pytest.fixture(scope="session")
def quad_model():
    return gibbs1d.solve_energy(hamiltonians.quadratic(), 1.0)


@pytest.fixture(scope="session")
def quartic_model():
    return gibbs1d.solve_energy(hamiltonians.quartic_perturbed(1.0), 1.0)


@pytest.fixture(scope="session")
def lin_scan(lin_model):
    return sumdensity.local_clt_scan(lin_model, CLT_SCAN_NS)


@pytest.fixture(scope="session")
def quad_scan(quad_model):
    return sumdensity.local_clt_scan(quad_model, CLT_SCAN_NS)


@pytest.fixture(scope="session")
def ratio_lemma():
    """Both sides of the ratio lemma on a context, as the bounds run
    computes them: the largest finite ``log w_{n-k}(nt - s) - log w_n(nt)``
    over the w_k nodes s (``node_log_ratio``), and ``kl_bound`` at alpha = 0,
    which is ``log(n/(n-k)) + 2/(sqrt(n)/C - 1)``."""

    def sides(ctx, C):
        log_ratio, finite = ctx.node_log_ratio
        return float(np.max(log_ratio[finite])), projection.bound_report(ctx, C).kl_bound

    return sides
