"""The nine paper landscapes, pinned bit for bit.

Each (kernel, GPU) table of the paper's 2,097,152-configuration space is
hashed as the sha256 of its ``runtime_ms`` bytes followed by its
``failure_bits`` bytes.  The digests were recorded with the per-row
full-space pass (flats decoded into an ``(n, 6)`` value matrix); the
grid-block pass must reproduce them exactly.  A change to the model's
outputs bumps ``SIMULATOR_VERSION`` and re-records these digests in the
same diff.
"""

import hashlib

import numpy as np
import pytest

from repro.gpu import get_architecture
from repro.gpu.landscape import compute_landscape
from repro.kernels import get_kernel
from repro.searchspace import paper_search_space

PAPER_TABLE_DIGESTS = {
    "add/gtx_980":
        "2ac111fb2c1a4c8525ac17083abf0f67a79f6a293493da4fe765251fa7b041f3",
    "add/titan_v":
        "282d8d60d6da73d61fc6b4abfd70993f3363d0d5f4a07761e66d297b651e6043",
    "add/rtx_titan":
        "7b8da0e7c80be7e13dee08f6fff7abacafda5e47f56238db0758eed905bd580b",
    "harris/gtx_980":
        "471ea6a6fa886ef446d1247f69c7f052ec63f9d3ce3270092183745130a1b4a6",
    "harris/titan_v":
        "330e4f2d1f2a84c01e1cb3f06d2e6976d94b4b09a3136c74924495b134622ea7",
    "harris/rtx_titan":
        "fb495a16958e814e4e5cb459da5a0a7dc6b5abb609e8f2c6bd531abcf8208760",
    "mandelbrot/gtx_980":
        "6fd96a9a6001b93f06df44ad9c5ead1ca59c8084a1d41d5dfddc02ea8ed7b15b",
    "mandelbrot/titan_v":
        "5a98d15a9ae4edab503e437094e92ab6f0fd3d1b1d598cafaa33c71a093fe26f",
    "mandelbrot/rtx_titan":
        "969f0a1b7ebd0db81768aaa31260337856c6f3e0387672cee6f2798246880e25",
}

SPACE = paper_search_space()


@pytest.mark.parametrize("landscape", sorted(PAPER_TABLE_DIGESTS))
def test_paper_landscape_table_digest(landscape):
    kernel, arch = landscape.split("/")
    table = compute_landscape(
        get_kernel(kernel).profile(), get_architecture(arch), SPACE
    )
    digest = hashlib.sha256(
        np.ascontiguousarray(table.runtime_ms).tobytes()
        + np.ascontiguousarray(table.failure_bits).tobytes()
    ).hexdigest()
    assert digest == PAPER_TABLE_DIGESTS[landscape]
