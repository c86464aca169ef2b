"""Similarity scores for candidate node pairs.

TLPSS averages two directed endpoint scores; each direction sums decayed
common-neighbor weight over the neighbor's weighted degree, plus the same
quantity over latent edges toward the endpoint's hidden nodes.  The six
baselines are the classical common-neighbor family re-weighted by decayed
edge weights.

:func:`score_matrix` is the one scoring engine: it returns every pair's
score at once, built from sparse matrix products over the adjacency.  The
brute-force per-pair definitions live in :mod:`tlpss.oracle`, which the
test suite checks it against.
"""

from __future__ import annotations

import enum

import numpy as np
import scipy.sparse as sp

from .adjacency import DegreeVector, WeightedAdjacency, latent_matrix
from .decay import DecayParams, ExpDecayParams
from .errors import ConfigError

__all__ = ["MethodId", "score_matrix"]


class MethodId(enum.Enum):
    TLPSS = "TLPSS"
    CN_ASF = "CN_ASF"
    JA_ASF = "JA_ASF"
    PA_ASF = "PA_ASF"
    RA_ASF = "RA_ASF"
    CAR_ASF = "CAR_ASF"
    CCLP_ASF = "CCLP_ASF"

    @classmethod
    def parse(cls, name: str) -> "MethodId":
        """Accept full ids (``CN_ASF``) or the short forms (``cn``)."""
        key = name.strip().upper()
        if not key.endswith("_ASF") and key != "TLPSS":
            key = key + "_ASF"
        try:
            return cls(key)
        except ValueError:
            raise ConfigError(f"unknown method {name!r}") from None


ALL_METHODS = tuple(MethodId)


def _triangle_mass(A: WeightedAdjacency) -> np.ndarray:
    """Per-node total decayed weight of links among the node's neighbors."""
    P = A.indicator_csr
    return 0.5 * np.asarray((P @ A.weight_csr).multiply(P).sum(axis=1)).ravel()


def _lcl_matrix(A: WeightedAdjacency) -> np.ndarray:
    """Dense matrix of link weight among each pair's common neighbors.

    A link (z1, z2) of weight w adds w to every pair of nodes adjacent to
    both z1 and z2: row k of ``Q`` marks the nodes that close a triangle
    with link k, and ``Q.T @ diag(w) @ Q`` sums over those links.
    """
    P = A.indicator_csr
    # upper-triangle links in row-major order; the CSR product adds each
    # cell's links in that order
    links = sp.triu(A.weight_csr, k=1).tocoo()
    Q = P[links.row].multiply(P[links.col])
    out = (Q.T @ (sp.diags(links.data) @ Q)).toarray()
    np.fill_diagonal(out, 0.0)
    return out


def score_matrix(
    A: WeightedAdjacency,
    D: DegreeVector,
    method: MethodId,
    latent_params: DecayParams | ExpDecayParams | None = None,
    cclp_mode: str = "local",
) -> np.ndarray:
    """Full dense score matrix for one method.

    Entry (i, j) is the method's score for the pair; the matrix is symmetric
    with an all-zero diagonal except for PA, whose diagonal is meaningless
    and zeroed anyway.  TLPSS requires ``latent_params``.
    """
    P = A.indicator_csr
    W = A.weight_csr
    w = D.w
    inv_w = np.divide(1.0, w, out=np.zeros_like(w), where=w > 0)

    if method is MethodId.CN_ASF:
        m = (W @ P).toarray()
        out = 0.5 * (m + m.T)
    elif method is MethodId.JA_ASF:
        m = (W @ P).toarray()
        cn = 0.5 * (m + m.T)
        denom = w[:, None] + w[None, :]
        out = np.divide(cn, denom, out=np.zeros_like(cn), where=denom > 0)
    elif method is MethodId.PA_ASF:
        out = np.outer(w, w)
    elif method is MethodId.RA_ASF:
        out = (P @ sp.diags(inv_w) @ P).toarray()
    elif method is MethodId.CAR_ASF:
        m = (W @ P).toarray()
        cn = 0.5 * (m + m.T)
        out = cn * _lcl_matrix(A)
    elif method is MethodId.CCLP_ASF:
        d = D.d.astype(np.float64)
        pair_cap = d * (d - 1) / 2.0
        inv_cap = np.divide(
            1.0, pair_cap, out=np.zeros_like(pair_cap), where=pair_cap > 0
        )
        if cclp_mode == "local":
            coeff = _triangle_mass(A) * inv_cap
            out = (P @ sp.diags(coeff) @ P).toarray()
        elif cclp_mode == "global":
            out = (P @ sp.diags(inv_cap) @ P).toarray() * _lcl_matrix(A)
        else:
            raise ConfigError(f"unknown cclp mode {cclp_mode!r}")
    elif method is MethodId.TLPSS:
        if latent_params is None:
            raise ConfigError("TLPSS needs decay parameters for latent weights")
        B = latent_matrix(A, latent_params)
        # divide each column by its node's weighted degree (w > 0 wherever
        # W + B has an entry), the same rounding as a per-term W[x,z]/w[z]
        M = (W + B).tocsr()
        M.data = M.data / w[M.indices]
        s = (M @ P).toarray()
        out = 0.5 * (s + s.T)
    else:
        raise ConfigError(f"unknown method {method!r}")

    np.fill_diagonal(out, 0.0)
    return out

