"""Fixture: a connector seeding its tile stream in place — even keyed,
it must come through the ``tile_rng`` seam."""

import numpy as np


def tile_stream(root_key, src_tile, tgt_tile, quantity):
    return np.random.default_rng(root_key + (src_tile, tgt_tile, quantity))
