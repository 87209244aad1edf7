"""Every algorithm of the harness's table (``tfwa.harness._RUNNERS``), run as
a grid runs it, for the tests that check all of them."""

import dataclasses

import tfwa.harness as harness

ALGORITHMS = harness.ALGORITHMS


def cell_of(algo):
    """``algo``'s cell runner: the one its table row names, looked up in
    ``tfwa.harness`` when called, given the config with the row's swarm
    fields set."""
    name, overrides = harness._RUNNERS[algo]

    def cell(problem, config, seeds, budget=None):
        config = dataclasses.replace(config, **overrides)
        return getattr(harness, name)(problem, config, seeds, budget)

    return cell


def run_of(algo):
    """One run of ``algo``: its cell of one seed."""
    cell = cell_of(algo)
    return lambda problem, config, seed=0, budget=None: cell(problem, config, [seed], budget)[0]
