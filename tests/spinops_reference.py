"""Kronecker-product oracles of `scarlab.spinops` that only the tests use.

embed places one local operator at one site and two_site multiplies two of
them, each through scipy.sparse.kron with identities on the other sites
(site 0 least significant); local_sum, the one assembler in the package, is
tested against them.
"""

import numpy as np
import scipy.sparse as sp

from scarlab.errors import SiteOutOfRange
from scarlab.spinops import ManyBodyOperator, SpinSystem


def embed(local_op: np.ndarray, site: int, system: SpinSystem,
          hermitian: bool | None = None) -> ManyBodyOperator:
    """Place a local operator at one site (Kronecker reference for local_sum)."""
    if not 0 <= site < system.N:
        raise SiteOutOfRange(f"site {site} outside [0, {system.N})")
    d = system.local_dim
    left = sp.identity(d ** (system.N - site - 1), dtype=complex, format="csr")
    right = sp.identity(d ** site, dtype=complex, format="csr")
    mat = sp.kron(left, sp.kron(sp.csr_matrix(local_op), right, format="csr"), format="csr")
    if hermitian is None:
        hermitian = bool(np.allclose(local_op, np.asarray(local_op).conj().T, atol=1e-14))
    return ManyBodyOperator(system, mat, hermitian)


def two_site(op_a: np.ndarray, site_a: int, op_b: np.ndarray, site_b: int,
             system: SpinSystem) -> sp.csr_matrix:
    """(op_a at site_a) @ (op_b at site_b), disjoint sites (Kronecker reference)."""
    if site_a == site_b:
        raise SiteOutOfRange("two_site needs distinct sites")
    a = embed(op_a, site_a, system).matrix
    b = embed(op_b, site_b, system).matrix
    return (a @ b).tocsr()
