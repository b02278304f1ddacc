"""Fixture: the seam module itself may call default_rng directly."""

import numpy as np


def simulation_rng(seed):
    return np.random.default_rng(seed)


def tile_rng(root_key, src_tile, tgt_tile, quantity):
    return np.random.default_rng(root_key + (src_tile, tgt_tile, quantity))
