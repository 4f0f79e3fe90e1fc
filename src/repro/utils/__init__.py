"""Shared utilities: checkpoints, seeding, numerical grad-checking."""

from .checkpoint import (load_checkpoint, load_model, save_checkpoint,
                         save_model)
from .gradcheck import gradcheck, numerical_gradient
from .seeding import derive_rng, spawn_rngs, stable_hash

__all__ = ["gradcheck", "numerical_gradient", "derive_rng", "spawn_rngs",
           "stable_hash",
           "save_checkpoint", "load_checkpoint", "save_model", "load_model"]
