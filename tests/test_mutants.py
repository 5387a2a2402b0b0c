"""The mutant ratchet: each mutant of ``mutants.KILLED`` still violates its
campaign at every seed, and both engines see it."""

import pytest

from hypbound import run_sample

import mutants

# the replayed prefix of a campaign, which holds a violation under every killed mutant
AGREEMENT_SAMPLES = 1000


@pytest.mark.parametrize("mutant", mutants.KILLED, ids=lambda m: m.name)
def test_mutant_is_killed(mutant):
    for seed in mutants.SEEDS:
        assert mutants.violations(mutant, seed), f"{mutant.name} survives seed {seed}"


@pytest.mark.parametrize("mutant", mutants.KILLED, ids=lambda m: m.name)
def test_both_engines_see_the_mutant(mutant):
    # a campaign re-runs through the scalar runner only the lanes whose batch margin
    # is negative or near it: a patch that reached the scalar checks alone would
    # leave the campaign short of run_sample's violations, and one that reached the
    # batch alone would leave it none
    seed = mutants.SEEDS[0]
    cfg = mutant.config(seed, AGREEMENT_SAMPLES)
    with mutants.applied(mutant):
        replayed = [i for i in range(AGREEMENT_SAMPLES) if run_sample(cfg, i).violated]
    assert replayed
    assert mutants.violations(mutant, seed, AGREEMENT_SAMPLES) == replayed
