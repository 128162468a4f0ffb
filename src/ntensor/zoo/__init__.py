"""Executable reference models with paired loop oracles.

Each fixture builds seeded inputs, runs the named-tensor implementation
and an independent plain-loop oracle, and reports the largest deviation;
``nt zoo list`` / ``nt zoo run <name>`` expose them from the command line.
"""

from .blocks import (
    attention,
    batchnorm,
    conv1d,
    conv2d,
    feedforward,
    fullconn,
    groupnorm,
    instancenorm,
    layernorm,
    maxpool1d,
    maxpool2d,
    rnn_elman,
)
from .extras import beam_step, cbow, kmeans_step, mvn_density, prob_ops, sudoku_check
from .fixtures import FIXTURES, FixtureResult, fixture_names, run_fixture
from .models import (
    causal_mask,
    lenet,
    positional_encoding,
    transformer_bindings,
    transformer_lm,
    transformer_program,
)

__all__ = [
    "attention", "batchnorm", "beam_step", "causal_mask", "cbow", "conv1d",
    "conv2d", "feedforward", "fullconn", "groupnorm", "instancenorm",
    "kmeans_step", "layernorm", "lenet", "maxpool1d", "maxpool2d",
    "mvn_density", "positional_encoding", "prob_ops", "rnn_elman",
    "sudoku_check", "transformer_bindings", "transformer_lm", "transformer_program",
    "FIXTURES", "FixtureResult", "fixture_names", "run_fixture",
]
