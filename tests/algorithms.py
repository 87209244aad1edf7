"""Every algorithm of the harness's table (``tfwa.harness._RUNNERS``), run as
a grid runs it, for the tests that check all of them."""

import dataclasses

import tfwa.harness as harness

ALGORITHMS = harness.ALGORITHMS


def cell_of(algo):
    """``algo``'s cell runner: the one its table row names, looked up in
    ``tfwa.harness`` when called, given every config with the row's swarm
    fields set."""
    name, overrides = harness._RUNNERS[algo]

    def cell(problem, configs):
        configs = [dataclasses.replace(c, **overrides) for c in configs]
        return getattr(harness, name)(problem, configs)

    return cell


def run_of(algo):
    """One run of ``algo``: its cell of one config."""
    cell = cell_of(algo)
    return lambda problem, config: cell(problem, [config])[0]
