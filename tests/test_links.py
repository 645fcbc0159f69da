"""``Links`` products against scipy's CSR products, bit for bit, and a runtime without scipy.

scipy is a test dependency only: here it is the oracle the link products
replaced. ``csr_matvec``/``csr_matvecs`` add each row's terms in ascending
column order from 0, which is the order ``Links.__matmul__`` promises.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import sparse

import trustnet
from trustnet.ingest import Links

FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.1, 1e16, -1e16, 5e-324]),
    st.floats(allow_nan=True, allow_infinity=True, width=64),
)


@st.composite
def products(draw):
    """(a ``Links``, the same matrix as CSR, a dense 1-D or 2-D right-hand side)."""
    n, m = draw(st.integers(0, 5)), draw(st.integers(0, 40))
    matrix = draw(arrays(bool, (n, m)))  # rows as ragged as the draw makes them
    rows, cols = np.nonzero(matrix)
    links = Links(rows.astype(np.int64), cols.astype(np.int64), (n, m))
    csr = sparse.csr_matrix((np.ones(rows.size, dtype=np.int64), (rows, cols)), shape=(n, m))
    dtype = draw(st.sampled_from([bool, np.int64, np.float64]))
    shape = draw(st.sampled_from([(m,), (m, 1), (m, draw(st.integers(2, 4)))]))
    elements = {bool: st.booleans(), np.int64: st.integers(-1000, 1000), np.float64: FLOATS}
    x = draw(arrays(dtype, shape, elements=elements[dtype]))
    if draw(st.booleans()):
        x = np.asfortranarray(x)
    return links, csr, x


@given(products())
@settings(max_examples=500, deadline=None)
@example((Links(np.array([0, 0, 0]), np.array([0, 1, 2]), (1, 3)),
          sparse.csr_matrix(np.ones((1, 3), dtype=np.int64)),
          np.array([[-0.0, -0.0], [-0.0, 1.0], [-0.0, -0.0]])))
def test_products_keep_every_bit_of_the_csr_product(case):
    links, csr, x = case
    got, want = links @ x, csr @ x
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_a_long_row_is_added_in_link_order():
    # 500 terms of mixed magnitude: a pairwise or blocked sum gives other bits
    rng = np.random.default_rng(5)
    cols = np.arange(500)
    links = Links(np.zeros(500, dtype=np.int64), cols, (1, 500))
    csr = sparse.csr_matrix((np.ones(500, dtype=np.int64), (np.zeros(500), cols)), shape=(1, 500))
    x = rng.standard_normal((500, 3)) * 10.0 ** rng.integers(-12, 12, (500, 3))
    for rhs in (x, x[:, 0]):
        assert (links @ rhs).tobytes() == (csr @ rhs).tobytes()


def test_the_runtime_imports_no_scipy():
    script = ("import sys, trustnet.pipeline, trustnet.cli; "
              "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = str(Path(trustnet.__file__).parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, check=True, timeout=120)
    assert done.stdout.strip() == "[]"
