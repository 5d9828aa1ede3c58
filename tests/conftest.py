import csv

import numpy as np
import pytest

from filterlab.model import (
    DensityVector,
    HmmModel,
    ObsSpace,
    StateSpace,
    partition_model,
    product_model,
)

P_SYM = [[0.7, 0.3], [0.3, 0.7]]
Q_SYM = [[0.8, 0.2], [0.2, 0.8]]


@pytest.fixture
def m2():
    """Two-state symmetric model: p = [[.7,.3],[.3,.7]], emissions .8/.2."""
    return product_model(P_SYM, Q_SYM)


@pytest.fixture
def partition_fixture():
    """Two-state partition model observing which state was entered."""
    return partition_model(P_SYM, [[1], [2]])


@pytest.fixture
def periodic_fixture():
    """Two-cycle chain with a single uninformative observation."""
    return partition_model([[0.0, 1.0], [1.0, 0.0]], [[1, 2]])


@pytest.fixture
def single_obs_contracting():
    """One observation, doubly stochastic kernel proportional to [[2,1],[1,2]]."""
    p = np.array([[2.0, 1.0], [1.0, 2.0]]) / 3.0
    return product_model(p, [[1.0], [1.0]])


def e(model, cell):
    return DensityVector.point_mass(model.states, cell)


def random_model(rng, n_states, n_obs, weighted=False, sparsity=0.0):
    """Random valid model; optionally with random cell weights or zero entries."""
    if weighted:
        lam = rng.uniform(0.5, 2.0, n_states)
        tau = rng.uniform(0.5, 2.0, n_obs)
    else:
        lam = np.ones(n_states)
        tau = np.ones(n_obs)
    m = rng.gamma(2.0, size=(n_states, n_states, n_obs))
    if sparsity > 0.0:
        mask = rng.random((n_states, n_states, n_obs)) < sparsity
        m = np.where(mask, 0.0, m)
        # keep every row alive
        for s in range(n_states):
            if m[s].max() <= 0.0:
                m[s, rng.integers(n_states), rng.integers(n_obs)] = 1.0
    rows = np.einsum("sta,t,a->s", m, lam, tau)
    m = m / rows[:, None, None]
    states = StateSpace(tuple(range(1, n_states + 1)), lam)
    obs = ObsSpace(tuple(range(1, n_obs + 1)), tau)
    return HmmModel(states, obs, m)


def bayes_step_per_row(model, masses):
    """The likelihoods and updates of _bayes_step one row and observation at a time.

    The stepped masses are rows of the one batched product: numpy rounds
    ``masses[r] @ M_a`` differently from ``(masses @ M)[a, r]``.
    """
    products = masses @ model.stepping_matrices
    g = np.empty((len(masses), model.n_obs))
    post = np.empty((len(masses), model.n_obs, model.n_states))
    for r in range(len(masses)):
        for a in range(model.n_obs):
            stepped = products[a, r]
            g[r, a] = stepped.sum()
            post[r, a] = stepped / g[r, a] if g[r, a] > 0.0 else masses[r]
    return g, post


def random_density(rng, space):
    return DensityVector.from_masses(space, rng.dirichlet(np.ones(space.n)))


def numeric_csv_rows(path, text_columns=()):
    """Rows of a CSV file whose every non-empty cell, bar ``text_columns``, is a float."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        for column, cell in row.items():
            if column not in text_columns and cell != "":
                float(cell)
    return rows
