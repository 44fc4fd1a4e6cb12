import numpy as np
import pytest

from polyaig import dirichlet
from polyaig.chain import ChainConfig, sample_chain
from polyaig.dirichlet import AlphaPrior, CountMatrix, run_chain_homogeneous
from polyaig.pig import PigSamplerConfig


class CountingState:
    """Stub chain state: the value is the number of sweeps run so far, and
    `validate` fails from sweep `fail_at` on."""

    def __init__(self, fail_at=None):
        self.value = 0
        self.fail_at = fail_at
        self.validated_at = []

    def validate(self):
        self.validated_at.append(self.value)
        if self.fail_at is not None and self.value >= self.fail_at:
            raise ValueError("state positivity violated")

    def draw(self):
        return [self.value, 2 * self.value]


def advance(state):
    state.value += 1


class TestSampleChain:
    def test_keeps_every_thin_th_sweep_after_burn_in(self):
        cfg = ChainConfig(iterations=30, burn_in=10, thin=4, seed=5)
        state = CountingState()
        samples = sample_chain(advance, state, cfg, ["x", "y"], {"model": "stub"})
        assert samples.iters.tolist() == [14, 18, 22, 26, 30]
        assert samples.size == cfg.retained
        assert np.array_equal(samples.draws,
                              np.column_stack([samples.iters, 2 * samples.iters]))
        assert samples.meta == {"model": "stub", "config": cfg.echo(), "seed": 5}

    def test_validates_every_100_sweeps(self):
        state = CountingState()
        sample_chain(advance, state, ChainConfig(iterations=350, burn_in=340),
                     ["x", "y"], {})
        assert state.validated_at == [100, 200, 300]

    def test_validation_error_names_the_sweep(self):
        state = CountingState(fail_at=50)
        with pytest.raises(ValueError, match=r"^sweep 100: state positivity"):
            sample_chain(advance, state, ChainConfig(iterations=300, burn_in=10),
                         ["x", "y"], {})
        assert state.value == 100


def test_config_refuses_a_thinning_that_keeps_no_draw():
    with pytest.raises(ValueError, match=r"iterations 10 - burn_in 5 < thin 10"):
        ChainConfig(iterations=10, burn_in=5, thin=10)
    assert ChainConfig(iterations=10, burn_in=5, thin=5).retained == 1


def test_shared_alpha_chain_validates_its_state(monkeypatch):
    calls = []
    real = dirichlet.DirichletChainState.validate

    def spy(self):
        calls.append(self.log_p.shape)
        real(self)

    monkeypatch.setattr(dirichlet.DirichletChainState, "validate", spy)
    counts = CountMatrix.from_array([[3, 1, 4], [2, 5, 0]])
    cfg = ChainConfig(iterations=250, burn_in=50, thin=2, seed=3,
                      pig_config=PigSamplerConfig(trunc_terms=20))
    run_chain_homogeneous(counts, AlphaPrior(tau=0.8), cfg)
    assert calls == [(2, 3), (2, 3)]
