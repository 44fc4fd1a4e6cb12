"""Chain configuration, the sample container and `sample_chain`, the one
sweep loop that every sampler runs on."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .pig import PigSamplerConfig


@dataclass(frozen=True)
class ChainConfig:
    iterations: int = 4000
    burn_in: int = 1000
    thin: int = 2
    seed: int = 0
    pig_config: PigSamplerConfig = field(default_factory=PigSamplerConfig)

    def __post_init__(self):
        if self.iterations < 1 or self.burn_in < 0 or self.thin < 1:
            raise ValueError("iterations >= 1, burn_in >= 0, thin >= 1 required")
        if self.burn_in >= self.iterations:
            raise ValueError("burn_in must be smaller than iterations")
        if self.retained == 0:
            raise ValueError(
                f"iterations {self.iterations} - burn_in {self.burn_in} < thin "
                f"{self.thin}: no draw would be kept")

    @property
    def retained(self):
        return (self.iterations - self.burn_in) // self.thin

    def echo(self):
        return {
            "iterations": self.iterations,
            "burn_in": self.burn_in,
            "thin": self.thin,
            "seed": self.seed,
            "trunc_terms": self.pig_config.trunc_terms,
        }


@dataclass
class PosteriorSamples:
    """Retained draws (one row per kept sweep) plus run provenance."""

    draws: np.ndarray           # (S, K)
    names: list
    iters: np.ndarray           # sweep index of each retained row
    meta: dict

    def __post_init__(self):
        self.draws = np.atleast_2d(np.asarray(self.draws, dtype=float))
        if self.draws.shape[1] != len(self.names):
            raise ValueError("names must match draw columns")
        if np.any(self.draws <= 0):
            raise ValueError("posterior draws must be strictly positive")

    @property
    def size(self):
        return self.draws.shape[0]


def sample_chain(sweep, state, config, names, meta):
    """Run `config.iterations` sweeps of `sweep(state)` from `state`.

    Every 100 sweeps `state.validate()` must pass; a failure is
    re-raised with the sweep index. After `config.burn_in` sweeps, every
    `config.thin`-th sweep keeps the row `state.draw()`, one value per name.
    `meta` gains the config echo and the seed.
    """
    kept = np.empty((config.retained, len(names)))
    iters = np.empty(config.retained, dtype=np.int64)
    s = 0
    for it in range(1, config.iterations + 1):
        sweep(state)
        if it % 100 == 0:
            try:
                state.validate()
            except ValueError as exc:
                raise ValueError(f"sweep {it}: {exc}") from exc
        if it > config.burn_in and (it - config.burn_in) % config.thin == 0:
            kept[s] = state.draw()
            iters[s] = it
            s += 1
    meta = {**meta, "config": config.echo(), "seed": config.seed}
    return PosteriorSamples(kept, list(names), iters, meta)
