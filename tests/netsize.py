"""matchrep's network sizes and cluster threshold, which are module
constants, set for the length of a test or of a block."""

import contextlib

import pytest

from organmatch import matchrep

# the small networks most tests train: 8 hidden units, a 4-wide Phi and
# donor embedding, and clusters of 4 or more donors
SMALL_NETS = {"HIDDEN": 8, "REP_DIM": 4, "EMBED_DIM": 4, "MIN_CLUSTER_COUNT": 4}


@contextlib.contextmanager
def matchrep_constants(**values):
    """Within the block, each matchrep constant named in ``values`` holds its value."""
    with pytest.MonkeyPatch.context() as patch:
        for name, value in values.items():
            patch.setattr(matchrep, name, value)
        yield
