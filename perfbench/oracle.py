"""Reference computations made apart from the program under test.

Only numpy is used here. Two references:

* :func:`exact_knn` — brute-force float64 L2 nearest neighbours, the
  ground truth of ``recall_at_10``.
* :class:`ADCOracle` — an exact asymmetric-distance (PQ Scan) reference.
  It routes queries to coarse cells itself, encodes added rows as PQ
  residuals itself and sums the ADC distances itself from the codebooks
  and the partition codes. It reads only arrays: the coarse centroids,
  the sub-quantizer codebooks and each partition's codes and ids.

Every computation runs over bounded chunks so the oracle never sets the
process's peak memory.
"""

from __future__ import annotations

import numpy as np

#: Elements per temporary (rows x centroids x dims) difference block.
BLOCK = 1 << 20
#: Relative tolerance between the program's and the oracle's distances:
#: both sum the same float64 terms, in possibly different orders.
RTOL = 1e-9


def _sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``(len(a), len(b))`` squared L2 distances, computed term by term."""
    out = np.empty((len(a), len(b)), dtype=np.float64)
    step = max(1, BLOCK // max(1, b.size))
    for start in range(0, len(a), step):
        diff = a[start : start + step, None, :] - b[None, :, :]
        out[start : start + step] = np.einsum("qnd,qnd->qn", diff, diff)
    return out


def _nearest(vectors: np.ndarray, centroids: np.ndarray, count: int) -> np.ndarray:
    """Indexes of the ``count`` nearest centroids of each vector, nearest first."""
    d = _sq_dists(vectors, centroids)
    return np.argsort(d, axis=1, kind="stable")[:, :count].astype(np.int64)


def exact_knn(
    base: np.ndarray,
    ids: np.ndarray,
    queries: np.ndarray,
    k: int,
    valid: np.ndarray | None = None,
) -> np.ndarray:
    """Ids of the exact ``k`` nearest ``base`` rows of each query.

    Rows where ``valid`` is False are never returned.
    """
    base = np.asarray(base, dtype=np.float64)
    out = np.empty((len(queries), k), dtype=np.int64)
    b_sq = np.einsum("nd,nd->n", base, base)
    if valid is not None:
        b_sq = np.where(valid, b_sq, np.inf)
    for start in range(0, len(queries), 16):
        q = np.asarray(queries[start : start + 16], dtype=np.float64)
        d = np.einsum("qd,qd->q", q, q)[:, None] + b_sq[None, :] - 2.0 * (q @ base.T)
        top = np.argpartition(d, k - 1, axis=1)[:, :k]
        order = np.argsort(np.take_along_axis(d, top, axis=1), axis=1, kind="stable")
        out[start : start + 16] = ids[np.take_along_axis(top, order, axis=1)]
    return out


def recall_hits(found_ids: np.ndarray, truth_ids: np.ndarray) -> int:
    """Number of ``truth_ids`` present in ``found_ids``."""
    return int(np.isin(truth_ids, found_ids).sum())


class ADCOracle:
    """Exact IVFADC reference over a mutable set of partitions.

    Args:
        coarse: ``(P, d)`` coarse centroids.
        codebooks: ``(m, k*, d/m)`` sub-quantizer codebooks.
        partitions: per cell, a ``(codes, ids)`` pair.
    """

    def __init__(self, coarse: np.ndarray, codebooks: np.ndarray, partitions):
        self.coarse = np.array(coarse, dtype=np.float64)
        self.codebooks = np.array(codebooks, dtype=np.float64)
        self.m, _, self.dsub = self.codebooks.shape
        self.codes = [np.array(c, dtype=np.int64) for c, _ in partitions]
        self.ids = [np.array(i, dtype=np.int64) for _, i in partitions]

    # -- routing and encoding --------------------------------------------------

    def route(self, queries: np.ndarray, nprobe: int) -> np.ndarray:
        """``(b, nprobe)`` nearest coarse cells, nearest first."""
        return _nearest(np.asarray(queries, dtype=np.float64), self.coarse, nprobe)

    def encode(self, vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Cell label and residual PQ code of each vector."""
        vectors = np.asarray(vectors, dtype=np.float64)
        labels = self.route(vectors, 1)[:, 0]
        residuals = vectors - self.coarse[labels]
        codes = np.empty((len(vectors), self.m), dtype=np.int64)
        for j in range(self.m):
            sub = residuals[:, j * self.dsub : (j + 1) * self.dsub]
            codes[:, j] = np.argmin(_sq_dists(sub, self.codebooks[j]), axis=1)
        return labels, codes

    def add(self, vectors: np.ndarray, ids: np.ndarray) -> None:
        labels, codes = self.encode(vectors)
        ids = np.asarray(ids, dtype=np.int64)
        for cell in np.unique(labels):
            sel = labels == cell
            self.codes[cell] = np.concatenate([self.codes[cell], codes[sel]])
            self.ids[cell] = np.concatenate([self.ids[cell], ids[sel]])

    def delete(self, ids: np.ndarray) -> None:
        for cell in range(len(self.ids)):
            keep = ~np.isin(self.ids[cell], ids)
            self.codes[cell] = self.codes[cell][keep]
            self.ids[cell] = self.ids[cell][keep]

    # -- distances -------------------------------------------------------------

    def tables(self, query: np.ndarray, cell: int) -> np.ndarray:
        """``(m, k*)`` squared distances of the query residual's sub-vectors."""
        residual = np.asarray(query, dtype=np.float64) - self.coarse[cell]
        sub = residual.reshape(self.m, 1, self.dsub)
        diff = sub - self.codebooks
        return np.einsum("jkd,jkd->jk", diff, diff)

    def candidates(self, query: np.ndarray, cells) -> tuple[np.ndarray, np.ndarray]:
        """ADC distance and id of every row of ``cells``."""
        dists, ids = [], []
        for cell in cells:
            table = self.tables(query, int(cell))
            codes = self.codes[int(cell)]
            d = np.zeros(len(codes), dtype=np.float64)
            for j in range(self.m):
                d += table[j, codes[:, j]]
            dists.append(d)
            ids.append(self.ids[int(cell)])
        return np.concatenate(dists), np.concatenate(ids)


def topk_mismatch(
    ids: np.ndarray,
    dists: np.ndarray,
    cand_dists: np.ndarray,
    cand_ids: np.ndarray,
    k: int,
) -> str | None:
    """Why a returned top-k disagrees with the oracle's candidates, or None.

    Checked: ``k`` distinct ids sorted by distance, every id among the
    candidates, every returned distance equal to the oracle's distance
    for that id, the returned distances the oracle's ``k`` smallest, and
    every candidate strictly closer than the k-th distance returned; ties
    at the k-th distance may be broken either way.
    """
    ids = np.asarray(ids, dtype=np.int64)
    dists = np.asarray(dists, dtype=np.float64)
    n_expected = min(k, len(cand_ids))
    if len(ids) != n_expected or len(dists) != n_expected:
        return f"{len(ids)} ids returned, expected {n_expected}"
    if n_expected == 0:
        return None
    if len(np.unique(ids)) != len(ids):
        return "duplicate ids"
    if np.any(np.diff(dists) < 0):
        return "distances not sorted"
    order = np.argsort(cand_ids, kind="stable")
    pos = np.searchsorted(cand_ids[order], ids)
    pos = np.minimum(pos, len(order) - 1)
    found = cand_ids[order][pos] == ids
    if not found.all():
        return f"ids {ids[~found].tolist()} not in the probed live rows"
    own = cand_dists[order][pos]
    if not np.allclose(dists, own, rtol=RTOL, atol=0.0):
        return "returned distance differs from the oracle's ADC distance"
    best = np.sort(cand_dists, kind="stable")[:n_expected]
    if not np.allclose(dists, best, rtol=RTOL, atol=0.0):
        return "distances are not the oracle's k smallest"
    kth = best[-1]
    must = cand_ids[cand_dists < kth * (1.0 - RTOL)]
    if not np.isin(must, ids).all():
        return "a strictly closer row is missing"
    return None
