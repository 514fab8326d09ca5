"""Independent oracle implementations used to verify the library.

Everything here is deliberately written by the most direct route
available (brute force, exhaustive enumeration, finite differences,
third-party references) and stays independent of the code paths it
checks.
"""

import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
from scipy.linalg import blas as _blas
from scipy.linalg import lapack as _lapack
from scipy.sparse import csr_array

from waferspr.acfilter import ac_objective
from waferspr.errors import GenerationError, NumericalError
from waferspr.flow import INT32_MAX, FlowNetwork
from waferspr.synthgen import PatternKind, SynthWafer, wafer_mask
from waferspr.wafer import CellState, WaferMap, build_graph


# ---------------------------------------------------------------------
# flow: networks from arc triples, brute-force minimum cut
# ---------------------------------------------------------------------

def network_from_arcs(node_count, arcs, source, sink):
    """FlowNetwork from (from, to, capacity) triples: parallel arcs are
    summed, self-loops dropped, and every arc's reverse is stored, as an
    explicit zero when it has no capacity of its own.  ValueError when a
    summed capacity exceeds INT32_MAX."""
    arcs = np.asarray(arcs, dtype=np.int64).reshape(-1, 3)
    tails, heads, caps = arcs[arcs[:, 0] != arcs[:, 1]].T
    # The COO -> CSR conversion sums duplicates and keeps explicit zeros.
    cap = csr_array((np.concatenate([caps, np.zeros_like(caps)]),
                     (np.concatenate([tails, heads]), np.concatenate([heads, tails]))),
                    shape=(node_count, node_count))
    cap.sum_duplicates()
    if cap.data.size and cap.data.max() > INT32_MAX:
        raise ValueError(f"summed capacity {int(cap.data.max())} exceeds {INT32_MAX}")
    return FlowNetwork(cap.astype(np.int32), source, sink)


def brute_force_min_cut(node_count, arcs, source, sink):
    """Minimum crossing capacity over all source/sink-respecting cuts."""
    middles = [v for v in range(node_count) if v not in (source, sink)]
    best = None
    for k in range(len(middles) + 1):
        for sub in itertools.combinations(middles, k):
            side = set(sub) | {source}
            cut = sum(c for (u, v, c) in arcs if u in side and v not in side and u != v)
            if best is None or cut < best:
                best = cut
    return best


def crossing_capacity(arcs, source_set):
    return sum(c for (u, v, c) in arcs if u in source_set and v not in source_set and u != v)


# ---------------------------------------------------------------------
# wafer: the edge list of a grid graph
# ---------------------------------------------------------------------

def edges(graph):
    """The grid edges of an AdjacencyGraph as an (m, 2) int64 array of
    pairs (i, j) with i < j, sorted, each edge once."""
    pairs = {(min(i, j), max(i, j))
             for i, row in enumerate(graph.neighbours.tolist()) for j in row if j >= 0}
    return np.array(sorted(pairs), dtype=np.int64).reshape(-1, 2)


# ---------------------------------------------------------------------
# acfilter: exhaustive minimization over all labelings
# ---------------------------------------------------------------------

def exhaustive_ac_minimum(wmap, cfg):
    """Exact minimum of the AC objective over all 2^|V| labelings.

    Integer-scaled and vectorized; exact (no floating point).
    """
    graph = build_graph(wmap, cfg.nb)
    nv = graph.node_count
    if nv > 20:
        raise ValueError("exhaustive oracle limited to 20 nodes")
    scale = np.lcm(cfg.u.denominator, cfg.w_mag.denominator)
    u_int = int(cfg.u * scale)
    w_int = int(cfg.w_mag * scale)
    d = wmap.defect_bits().astype(np.int64)
    w = np.where(d == 1, -w_int, w_int)

    count = 1 << nv
    bits = (np.arange(count, dtype=np.uint32)[:, None] >> np.arange(nv)) & 1
    bits = bits.astype(np.int64)
    objective = bits @ w
    for i, j in edges(graph):
        objective += u_int * np.abs(bits[:, i] - bits[:, j])
    best = int(objective.min())
    return Fraction(best, int(scale))


def exhaustive_ac_argmin(wmap, cfg):
    """All optimal labelings (as tuples), for tie-break checks."""
    graph = build_graph(wmap, cfg.nb)
    nv = graph.node_count
    best = None
    winners = []
    for bits in itertools.product((0, 1), repeat=nv):
        val = ac_objective(wmap, cfg, np.array(bits))
        if best is None or val < best:
            best = val
            winners = [bits]
        elif val == best:
            winners.append(bits)
    return best, winners


# ---------------------------------------------------------------------
# wafer: grid components by breadth-first search
# ---------------------------------------------------------------------

def grid_components_bfs(mask, offsets):
    """Component label grid of the True cells, 1..K in row-major order of
    each component's first cell, by a per-cell breadth-first search."""
    rows, cols = len(mask), len(mask[0])
    labels = [[0] * cols for _ in range(rows)]
    count = 0
    for r in range(rows):
        for c in range(cols):
            if not mask[r][c] or labels[r][c]:
                continue
            count += 1
            labels[r][c] = count
            queue = [(r, c)]
            for qr, qc in queue:
                for dr, dc in offsets:
                    nr, nc = qr + dr, qc + dc
                    if 0 <= nr < rows and 0 <= nc < cols and mask[nr][nc] and not labels[nr][nc]:
                        labels[nr][nc] = count
                        queue.append((nr, nc))
    return labels


# ---------------------------------------------------------------------
# cpf: exhaustive longest simple path
# ---------------------------------------------------------------------

def longest_simple_path_nodes(nodes, edges):
    """Length (in nodes) of the longest simple path, by exhaustive DFS."""
    adj = {v: [] for v in nodes}
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    best = 0

    def dfs(u, used, length):
        nonlocal best
        best = max(best, length)
        for v in adj[u]:
            if v not in used:
                used.add(v)
                dfs(v, used, length + 1)
                used.discard(v)

    for v in nodes:
        dfs(v, {v}, 1)
    return best


def nodes_on_paths_at_least(nodes, edges, m):
    """Exact per-node retention: nodes lying on some simple path >= m nodes."""
    adj = {v: [] for v in nodes}
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    kept = set()

    def dfs(path, used):
        if len(path) >= m:
            kept.update(path)
        tail = path[-1]
        for v in adj[tail]:
            if v not in used:
                used.add(v)
                path.append(v)
                dfs(path, used)
                path.pop()
                used.discard(v)

    for v in nodes:
        dfs([v], {v})
    return kept


class SearchBudgetExceeded(Exception):
    pass


class SearchBudget:
    """A step budget; spend() raises SearchBudgetExceeded once none is left."""

    def __init__(self, n):
        self.left = n

    def spend(self):
        self.left -= 1
        if self.left < 0:
            raise SearchBudgetExceeded


def _reachable_count(adj, start, blocked, limit):
    """Nodes reachable from `start` without entering `blocked`, not counting
    `start` itself; the search stops once `limit` of them are found."""
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen and v not in blocked:
                seen.add(v)
                if len(seen) > limit:
                    return limit
                stack.append(v)
    return len(seen) - 1


def _extend_path(adj, path, used, need, budget):
    """Depth-first right-extension; returns a full path once len >= need."""
    if len(path) >= need:
        return list(path)
    budget.spend()
    tail = path[-1]
    missing = need - len(path)
    if missing == 1:
        for v in adj[tail]:
            if v not in used:
                return path + [v]
        return None
    if _reachable_count(adj, tail, used, missing) < missing:
        return None
    for v in adj[tail]:
        if v not in used:
            path.append(v)
            used.add(v)
            found = _extend_path(adj, path, used, need, budget)
            if found:
                return found
            used.discard(v)
            path.pop()
    return None


def _path_through(adj, left, used, need, budget):
    """Some simple path with >= need nodes passing through left[0], or None:
    left arms grown depth-first, a right arm searched for each."""
    remaining = need - len(left) + 1
    right = _extend_path(adj, [left[0]], set(used), remaining, budget)
    if right:
        return list(reversed(left[1:])) + right
    budget.spend()
    for w in adj[left[-1]]:
        if w not in used:
            left.append(w)
            used.add(w)
            found = _path_through(adj, left, used, need, budget)
            if found:
                return found
            used.discard(w)
            left.pop()
    return None


def cpf_list_search(wmap, m, nb, exact_limit, budget_steps):
    """CPF by the list-and-set search on dict adjacency lists: labels and
    the (components_exact, components_approx, budget_spent) counters.

    The reference for the bitmask search: it visits neighbours in ascending
    id order and spends a budget step at the same points.  Components of
    at most `exact_limit` chips keep the chips on a path of >= m chips;
    larger ones are kept whole iff a path of m chips starts at one of
    their chips; a component whose search spends more than `budget_steps`
    steps is kept whole and counted approximate.
    """
    graph = build_graph(wmap, nb)
    d = wmap.defect_bits()
    adj = {i: [] for i in np.flatnonzero(d).tolist()}
    for i, j in edges(graph).tolist():
        if d[i] and d[j]:
            adj[i].append(j)
            adj[j].append(i)
    labels = np.zeros(graph.node_count, dtype=bool)
    exact = approx = spent = 0
    seen = set()
    for v in sorted(adj):
        if v in seen:
            continue
        comp, stack = {v}, [v]
        while stack:
            for w in adj[stack.pop()]:
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
        seen |= comp
        nodes = sorted(comp)
        if len(nodes) < m:
            continue
        budget = SearchBudget(budget_steps)
        try:
            if len(nodes) <= exact_limit:
                kept = set()
                for u in nodes:
                    if u not in kept:
                        kept.update(_path_through(adj, [u], {u}, m, budget) or ())
            else:
                long_path = any(_extend_path(adj, [u], {u}, m, budget) for u in nodes)
                kept = nodes if long_path else []
            exact += 1
        except SearchBudgetExceeded:
            kept = nodes
            approx += 1
        spent += budget_steps - max(budget.left, 0)
        labels[list(kept)] = True
    return labels, (("components_exact", exact), ("components_approx", approx),
                    ("budget_spent", spent))


# ---------------------------------------------------------------------
# validation: pair counting, Hubert-Arabie ARI, direct NMI
# ---------------------------------------------------------------------

def pair_counts_naive(a, b):
    n = len(a)
    gamma = beta = tau = zeta = 0
    for i in range(n):
        for j in range(i + 1, n):
            same_a = a[i] == a[j]
            same_b = b[i] == b[j]
            if same_a and same_b:
                gamma += 1
            elif not same_a and not same_b:
                beta += 1
            elif same_a:
                tau += 1
            else:
                zeta += 1
    return gamma, beta, tau, zeta


def rand_index_naive(a, b):
    gamma, beta, tau, zeta = pair_counts_naive(a, b)
    return (gamma + beta) / (gamma + beta + tau + zeta)


def ari_hubert_arabie(a, b):
    """ARI from the contingency table (independent of pair counting)."""
    labels_a = sorted(set(a))
    labels_b = sorted(set(b))
    table = {(x, y): 0 for x in labels_a for y in labels_b}
    for x, y in zip(a, b):
        table[(x, y)] += 1

    def c2(x):
        return x * (x - 1) // 2

    n = len(a)
    sum_ij = sum(c2(v) for v in table.values())
    sum_a = sum(c2(sum(table[(x, y)] for y in labels_b)) for x in labels_a)
    sum_b = sum(c2(sum(table[(x, y)] for x in labels_a)) for y in labels_b)
    expected = sum_a * sum_b / c2(n)
    maximum = (sum_a + sum_b) / 2
    if maximum == expected:
        return 1.0 if sum_ij == maximum else float("nan")
    return (sum_ij - expected) / (maximum - expected)


def nmi_direct(a, b, normalizer="paper"):
    """NMI by direct dictionary-based summation of the printed formulas."""
    n = len(a)
    table = {}
    for x, y in zip(a, b):
        table[(x, y)] = table.get((x, y), 0) + 1
    row = {}
    col = {}
    for (x, y), c in table.items():
        row[x] = row.get(x, 0) + c
        col[y] = col.get(y, 0) + c
    info = 0.0
    for (x, y), c in table.items():
        info += (c / n) * math.log((c / n) / ((row[x] / n) * (col[y] / n)))
    if normalizer == "paper":
        h = -sum((c / n) * math.log(c / col[y]) for (x, y), c in table.items())
    elif normalizer == "joint":
        h = -sum((c / n) * math.log(c / n) for c in table.values())
    elif normalizer == "sqrt":
        ha = -sum((c / n) * math.log(c / n) for c in row.values())
        hb = -sum((c / n) * math.log(c / n) for c in col.values())
        h = math.sqrt(ha * hb)
    else:
        raise ValueError(normalizer)
    if h <= 1e-15:
        return None
    return info / h


# ---------------------------------------------------------------------
# partitions, Wilcoxon enumeration, finite differences
# ---------------------------------------------------------------------

def set_partitions(n):
    """All set partitions of n items as restricted-growth label tuples."""

    def rec(i, labels, mx):
        if i == n:
            yield tuple(labels)
            return
        for k in range(1, mx + 2):
            labels.append(k)
            yield from rec(i + 1, labels, max(mx, k))
            labels.pop()

    yield from rec(0, [], 0)


def wilcoxon_enumeration(diffs):
    """Exact two-sided p by brute force over all 2^n sign assignments
    (doubling rule, midrank ties)."""
    d = [x for x in diffs if x != 0]
    n = len(d)
    mags = [abs(x) for x in d]
    order = sorted(range(n), key=lambda i: mags[i])
    ranks = [0.0] * n
    i = 0
    while i < n:
        j = i
        while j + 1 < n and mags[order[j + 1]] == mags[order[i]]:
            j += 1
        for k in range(i, j + 1):
            ranks[order[k]] = (i + j) / 2 + 1
        i = j + 1
    w_obs = sum(r for r, x in zip(ranks, d) if x > 0)
    count_le = count_ge = 0
    for signs in itertools.product((0, 1), repeat=n):
        w = sum(r for r, s in zip(ranks, signs) if s)
        if w <= w_obs + 1e-12:
            count_le += 1
        if w >= w_obs - 1e-12:
            count_ge += 1
    total = 2**n
    return min(1.0, 2.0 * min(count_le / total, count_ge / total))


def finite_difference_grad(f, Z, eps=1e-6):
    g = np.zeros_like(Z)
    for i in range(Z.shape[0]):
        for a in range(Z.shape[1]):
            zp = Z.copy()
            zp[i, a] += eps
            zm = Z.copy()
            zm[i, a] -= eps
            g[i, a] = (f(zp) - f(zm)) / (2 * eps)
    return g


# ---------------------------------------------------------------------
# iwmm: the GPLVM and Nyström likelihoods from their definitions, the
# exact gradient that the program's Nyström field replaced, and
# compositions of iwmm's own pieces that only the tests use
# ---------------------------------------------------------------------

def se_covariance_dense(Z, kern):
    """signal_variance * exp(-|z_i - z_j|^2 / (2 l^2)), plus jitter on the diagonal."""
    sq_dist = ((Z[:, None, :] - Z[None, :, :]) ** 2).sum(axis=2)
    K = kern.signal_variance * np.exp(-sq_dist / (2.0 * kern.length_scale**2))
    return K + kern.jitter * np.eye(Z.shape[0])


def gplvm_log_likelihood_dense(S, Z, kern):
    """log p(S | Z) of the 2-output GP, from a dense covariance with
    numpy's slogdet and solve."""
    n = Z.shape[0]
    K = se_covariance_dense(Z, kern)
    sign, logdet = np.linalg.slogdet(K)
    assert sign > 0
    return -n * math.log(2.0 * math.pi) - logdet - 0.5 * float(np.sum(S * np.linalg.solve(K, S)))


def nystrom_log_likelihood_dense(S, Z, kern, landmarks):
    """The Nyström (subset-of-regressors) log-likelihood whose gradient
    the program's HMC steps follow, log N(S | 0, Knm Kmm^-1 Kmn + s^2 I),
    from its definition with numpy's dense slogdet and solve: Knm is the
    noise-free SE covariance of Z with Z[landmarks], Kmm its landmark
    rows plus 1e-6 signal_variance I, and s^2 the jitter (1e-10 when it
    is 0)."""
    n, m = Z.shape[0], len(landmarks)
    Knm = se_covariance_dense(Z, dataclasses.replace(kern, jitter=0.0))[:, landmarks]
    Kmm = Knm[landmarks] + 1e-6 * kern.signal_variance * np.eye(m)
    Q = Knm @ np.linalg.solve(Kmm, Knm.T) + (kern.jitter or 1e-10) * np.eye(n)
    sign, logdet = np.linalg.slogdet(Q)
    assert sign > 0
    return -n * math.log(2.0 * math.pi) - logdet - 0.5 * float(np.sum(S * np.linalg.solve(Q, S)))


def student_t_predictive_log(z, n_k, sum_z, szz, h):
    """Posterior predictive density of one point given a cluster's stats;
    with n_k = 0 this is the prior predictive.  Equals the marginal ratio
    log p(Z + z | A + k) - log p(Z | A) of the latent marginal."""
    p_k, r_k, m_k, Rk = gw_posterior(
        n_k, np.asarray(sum_z, dtype=float), np.asarray(szz, dtype=float), h
    )
    return t2_logpdf(
        float(z[0]), float(z[1]), float(m_k[0]), float(m_k[1]),
        p_k, r_k, float(Rk[0, 0]), float(Rk[0, 1]), float(Rk[1, 1]),
    )


# Largest block tri_inv_lower hands to LAPACK's dtrtri, which runs at a
# fraction of the speed of the BLAS-3 products the larger blocks use.
_TRI_INV_LEAF = 64


def tri_inv_lower(L):
    """Inverse of the lower-triangular Fortran-ordered L, written over L
    and returned; its strict upper triangle is left as it was.

    [[A, 0], [B, C]]^-1 = [[A^-1, 0], [-C^-1 B A^-1, C^-1]]: the diagonal
    blocks recurse down to dtrtri on at most _TRI_INV_LEAF rows, and the
    off-diagonal block takes two dtrmm calls.  NumericalError when L is
    singular.
    """
    n = L.shape[0]
    if n <= _TRI_INV_LEAF:
        inv, info = _lapack.dtrtri(L, lower=1, overwrite_c=1)
        if info != 0:
            raise NumericalError("covariance inversion failed")
        return inv
    h = n // 2
    A_inv = tri_inv_lower(np.asfortranarray(L[:h, :h]))
    C_inv = tri_inv_lower(np.asfortranarray(L[h:, h:]))
    B = _blas.dtrmm(-1.0, C_inv, L[h:, :h], lower=1)
    L[h:, :h] = _blas.dtrmm(1.0, A_inv, B, side=1, lower=1, overwrite_b=1)
    L[:h, :h] = A_inv
    L[h:, h:] = C_inv
    return L


def gplvm(S, Z, kernel):
    """log p(S | Z, kernel) for a 2-output GP,
    -n log(2 pi) - log|K| - 0.5 tr(S^T K^-1 S), and its exact analytic
    gradient with respect to Z, from one factorization and the full
    inverse K^-1, on fresh buffers: the reference the program's exact
    energy and its Nyström field are tested against.  NumericalError when
    the covariance cannot be factored or either result is not finite."""
    from waferspr.iwmm import _se_kernel

    S = np.asarray(S, dtype=float)
    Z = np.asarray(Z, dtype=float)
    n = S.shape[0]
    if Z.shape != (n, 2):
        raise ValueError(f"Z shape {Z.shape} does not match S ({n}, 2)")
    # K with the bits of the program's covariance; the factor is a copy,
    # since the gradient needs K itself.
    K = _se_kernel(Z, Z, kernel, np.empty((n, n), order="F"))
    K.flat[:: n + 1] += kernel.jitter
    c, info = _lapack.dpotrf(K, lower=1, clean=1)
    if info != 0:
        raise NumericalError("covariance Cholesky failed")
    logdet = 2.0 * float(np.log(np.diag(c)).sum())
    # K^-1 = L^-T L^-1, as dpotri forms it; from here on only the lower
    # triangles of K^-1 and of W are formed and read.
    inv, _ = _lapack.dlauum(tri_inv_lower(c), lower=1, overwrite_c=1)
    KinvS = _blas.dsymm(1.0, inv, S, lower=1)
    ll = -n * math.log(2.0 * math.pi) - logdet - 0.5 * float(np.sum(S * KinvS))
    # dL/dK = 0.5 K^-1 S S^T K^-1 - K^-1, then chain through the SE kernel
    W = _blas.dsyrk(0.5, KinvS, beta=-1.0, c=inv, lower=1, overwrite_c=1)
    W *= K  # diagonal contributes nothing: the (z_l - z_j) factor is 0
    ZI = np.ones((n, 3), order="F")
    ZI[:, :2] = Z
    WZI = _blas.dsymm(1.0, W, ZI, lower=1)  # [W @ Z | row sums of W]
    grad = -(2.0 / kernel.length_scale**2) * (Z * WZI[:, 2:] - WZI[:, :2])
    # LAPACK factors a covariance holding NaN without an error, so a
    # non-finite Z or S shows only here.
    if not (math.isfinite(ll) and np.isfinite(grad).all()):
        raise NumericalError("GPLVM likelihood or gradient is not finite")
    return ll, grad


def latent_marginal(Z, A, h):
    """log p(Z|A) and its gradient in Z as the fit's HMC computes them."""
    from waferspr.iwmm import _cluster_members, _marginal_and_grad

    return _marginal_and_grad(np.asarray(Z, dtype=float), _cluster_members(np.asarray(A)), h)


def potential_and_grad(S, Z, kernel, A, h):
    """HMC potential -(log p(S|Z) + log p(Z|A)) and its gradient in Z."""
    ll, gll = gplvm(S, Z, kernel)
    marg, gmarg = latent_marginal(Z, A, h)
    return -(ll + marg), -(gll + gmarg)


# ---------------------------------------------------------------------
# iwmm: the per-point Gibbs step and the numpy latent marginal, as the
# program computed them before its sweep and its scalar cluster term;
# the program must reproduce them bit for bit
# ---------------------------------------------------------------------

_LOG_PI = math.log(math.pi)


def gw_posterior(n_k, sum_z, szz, h):
    """Gaussian-Wishart posterior (p_k, r_k, m_k, R_k) of a cluster with n_k
    points, coordinate sum sum_z and scatter sum szz = sum z z^T."""
    p_k = h.p + n_k
    r_k = h.r + n_k
    m_k = (h.p * h.m + sum_z) / p_k
    R_k = h.R + szz + h.p * np.outer(h.m, h.m) - p_k * np.outer(m_k, m_k)
    return p_k, r_k, m_k, R_k


def cluster_term(n_k, posterior, h):
    """Log Gaussian-Wishart marginal of one cluster's latent coordinates,
    from the cluster's gw_posterior."""
    from waferspr.errors import NumericalError

    p_k, r_k, _, Rk = posterior
    det = Rk[0, 0] * Rk[1, 1] - Rk[0, 1] * Rk[1, 0]
    detR = h.R[0, 0] * h.R[1, 1] - h.R[0, 1] * h.R[1, 0]
    if det <= 0:
        raise NumericalError("posterior scale matrix is not positive definite")
    out = -n_k * _LOG_PI
    out += math.log(h.p) - math.log(p_k)
    out += 0.5 * h.r * math.log(detR) - 0.5 * r_k * math.log(det)
    for j in (1, 2):
        out += math.lgamma(0.5 * (r_k + 1 - j)) - math.lgamma(0.5 * (h.r + 1 - j))
    return out


def marginal_and_grad(Z, A, h):
    """The latent marginal log p(Z | A) and its gradient w.r.t. Z.

    d/dz_i log p(Z|A) = -r_k R_k^-1 (z_i - m_k) for i in cluster k.
    """
    Z = np.asarray(Z, dtype=float)
    A = np.asarray(A)
    if Z.shape[0] != A.shape[0]:
        raise ValueError("Z and A lengths differ")
    total = 0.0
    grad = np.zeros_like(Z)
    for label in np.unique(A):
        mask = A == label
        Zk = Z[mask]
        n_k = Zk.shape[0]
        posterior = gw_posterior(n_k, Zk.sum(axis=0), Zk.T @ Zk, h)
        total += cluster_term(n_k, posterior, h)
        _, r_k, m_k, Rk = posterior
        det = Rk[0, 0] * Rk[1, 1] - Rk[0, 1] * Rk[1, 0]
        Rk_inv = np.array([[Rk[1, 1], -Rk[0, 1]], [-Rk[1, 0], Rk[0, 0]]]) / det
        grad[mask] = -r_k * (Z[mask] - m_k) @ Rk_inv.T
    return total, grad


def marginal_log_from_sums(sums, h):
    """LatentState.marginal_log: log p(Z | A) from the running
    cluster sums, whose scatter has one cross term."""
    total = 0.0
    for n, sx, sy, sxx, sxy, syy in sums:
        szz = np.array([[sxx, sxy], [sxy, syy]])
        total += cluster_term(n, gw_posterior(n, np.array([sx, sy]), szz, h), h)
    return total


def t2_logpdf(zx, zy, mx, my, p_post, r_post, ra, rb, rd):
    """2-D multivariate Student-t from Gaussian-Wishart (prior or posterior)
    parameters: df = r_post - 1, location m, scale R (p_post+1)/(p_post df)."""
    from waferspr.errors import NumericalError

    nu = r_post - 1.0
    det = ra * rd - rb * rb
    if det <= 0 or nu <= 0:
        raise NumericalError("invalid Student-t parameters")
    factor = (p_post + 1.0) / (p_post * nu)
    dx = zx - mx
    dy = zy - my
    quad = (rd * dx * dx - 2.0 * rb * dx * dy + ra * dy * dy) / det / factor
    return (
        math.lgamma(0.5 * (nu + 2.0))
        - math.lgamma(0.5 * nu)
        - math.log(nu)
        - _LOG_PI
        - 0.5 * (math.log(det) + 2.0 * math.log(factor))
        - 0.5 * (nu + 2.0) * math.log1p(quad / nu)
    )


def remove_point(state, i):
    """Take point i out of its cluster's running sums, dropping the
    cluster when it empties and relabelling the ones above it."""
    k = int(state.A[i])
    if k == 0:
        raise AssertionError("point already removed")
    zx = float(state.Z[i, 0])
    zy = float(state.Z[i, 1])
    s = state._sums[k - 1]
    s[0] -= 1
    s[1] -= zx
    s[2] -= zy
    s[3] -= zx * zx
    s[4] -= zx * zy
    s[5] -= zy * zy
    state.A[i] = 0
    if s[0] == 0:
        del state._sums[k - 1]
        state.A[state.A > k] -= 1


def assign_point(state, i, k):
    """Put point i into cluster k, a new one when k is K + 1."""
    if not (1 <= k <= state.K + 1):
        raise AssertionError(f"assignment label {k} out of range")
    if k == state.K + 1:
        state._sums.append([0, 0.0, 0.0, 0.0, 0.0, 0.0])
    zx = float(state.Z[i, 0])
    zy = float(state.Z[i, 1])
    s = state._sums[k - 1]
    s[0] += 1
    s[1] += zx
    s[2] += zy
    s[3] += zx * zx
    s[4] += zx * zy
    s[5] += zy * zy
    state.A[i] = k


def gibbs_conditional_logs(state, i, h):
    """The log weights of a_i's collapsed conditional once point i is
    removed: n_k^{-i} * t-predictive(z_i | cluster k) for existing
    clusters, then alpha * t-predictive(z_i | prior) for a new one."""
    zx = float(state.Z[i, 0])
    zy = float(state.Z[i, 1])
    p0, r0 = h.p, h.r
    m0x, m0y = float(h.m[0]), float(h.m[1])
    R00, R01, R11 = float(h.R[0, 0]), float(h.R[0, 1]), float(h.R[1, 1])
    logs = []
    for k in range(1, state.K + 1):
        n, sx, sy, sxx, sxy, syy = state._sums[k - 1]
        p_k = p0 + n
        r_k = r0 + n
        mkx = (p0 * m0x + sx) / p_k
        mky = (p0 * m0y + sy) / p_k
        ra = R00 + sxx + p0 * m0x * m0x - p_k * mkx * mkx
        rb = R01 + sxy + p0 * m0x * m0y - p_k * mkx * mky
        rd = R11 + syy + p0 * m0y * m0y - p_k * mky * mky
        logs.append(math.log(n) + t2_logpdf(zx, zy, mkx, mky, p_k, r_k, ra, rb, rd))
    logs.append(
        math.log(h.alpha) + t2_logpdf(zx, zy, m0x, m0y, p0, r0, R00, R01, R11)
    )
    return logs


def sum_in_order(values):
    """The floats `values` added left to right, as the builtin sum added
    them before Python 3.12 (it compensates since)."""
    total = 0.0
    for v in values:
        total += v
    return total


def gibbs_choice(logs, uniform):
    """The 0-based index that the uniform draw `uniform` picks from the
    log weights `logs`."""
    mx = max(logs)
    weights = [math.exp(v - mx) for v in logs]
    total = sum_in_order(weights)
    u = uniform * total
    acc = 0.0
    choice = len(weights) - 1
    for idx, w in enumerate(weights):
        acc += w
        if u < acc:
            choice = idx
            break
    return choice


def gibbs_assignment_step(state, i, h, rng):
    """Resample assignment a_i from its collapsed conditional."""
    remove_point(state, i)
    logs = gibbs_conditional_logs(state, i, h)
    k_new = gibbs_choice(logs, rng.random()) + 1
    assign_point(state, i, k_new)
    return k_new


def gibbs_boundary_uniform(logs, boundary):
    """A uniform draw u with u * total landing exactly on the cumulative
    weight of the first `boundary` + 1 entries of `logs`, as gibbs_choice
    forms them, or None when no float near it does.  At such a draw a
    change in the last bit of any weight can change the choice."""
    mx = max(logs)
    weights = [math.exp(v - mx) for v in logs]
    total = sum_in_order(weights)
    target = 0.0
    for w in weights[:boundary + 1]:
        target += w
    u = target / total
    for _ in range(8):
        if u * total == target and 0.0 <= u < 1.0:
            return u
        u = float(np.nextafter(u, 2.0 if u * total < target else -1.0))
    return None


def window_count_reconstruction(wmap):
    """Reconstruction oracle: per-pixel 3x3 defective count, loops only."""
    grid = wmap.grid()
    out = np.zeros_like(grid)
    for r in range(wmap.rows):
        for c in range(wmap.cols):
            if grid[r, c] == CellState.OUTSIDE:
                out[r, c] = CellState.OUTSIDE
                continue
            count = 0
            for dr in (-1, 0, 1):
                for dc in (-1, 0, 1):
                    rr, cc = r + dr, c + dc
                    if 0 <= rr < wmap.rows and 0 <= cc < wmap.cols:
                        if grid[rr, cc] == CellState.DEFECTIVE:
                            count += 1
            out[r, c] = CellState.DEFECTIVE if count >= 4 else CellState.FUNCTIONAL
    return out


# ---------------------------------------------------------------------
# synthgen: per-cell rasterization and generation
# ---------------------------------------------------------------------

def rasterize_loops(spec, rows, cols, mask=None):
    """Rasterization oracle: per-cell loops with libm distances and angles.

    In-mask cells covered by the pattern, as (row, col) tuples in row-major
    order; GenerationError if none."""
    if mask is None:
        mask = wafer_mask(rows, cols)
    cr, cc = (rows - 1) / 2.0, (cols - 1) / 2.0
    radius = (min(rows, cols) - 1) / 2.0
    ang = math.radians(spec.offset_angle_deg)
    pr = cr - spec.offset_frac * radius * math.sin(ang)
    pc = cc + spec.offset_frac * radius * math.cos(ang)

    cells = []
    if spec.kind is PatternKind.SCRATCH:
        theta = math.radians(spec.angle_deg)
        dr, dc = -math.sin(theta), math.cos(theta)
        length = float(spec.length_cells)
        half_width = max(0.6, spec.width_cells / 2.0)
        for r in range(rows):
            for c in range(cols):
                if not mask[r, c]:
                    continue
                # distance from cell to the segment [p, p + length*dir]
                t = (r - pr) * dr + (c - pc) * dc
                t = min(max(t, 0.0), length)
                qr, qc = pr + t * dr, pc + t * dc
                if (r - qr) ** 2 + (c - qc) ** 2 <= half_width**2 + 1e-9:
                    cells.append((r, c))
    else:
        if spec.kind is PatternKind.CENTER_DISK:
            lo, hi = 0.0, spec.outer_frac * radius
        else:
            lo, hi = spec.inner_frac * radius, spec.outer_frac * radius
        for r in range(rows):
            for c in range(cols):
                if not mask[r, c]:
                    continue
                d = math.hypot(r - pr, c - pc)
                if not (lo <= d <= hi):
                    continue
                if spec.arc_extent_deg < 360.0:
                    cell_ang = math.degrees(math.atan2(-(r - pr), c - pc))
                    if not (cell_ang - spec.arc_start_deg) % 360.0 <= spec.arc_extent_deg:
                        continue
                cells.append((r, c))
    if not cells:
        raise GenerationError(f"pattern {spec.kind.value} rasterized to nothing")
    return cells


def generate_loops(rows, cols, specs, noise_rate, seed):
    """Generator oracle: one uniform draw per covered cell and then per clean
    in-mask cell, each drawn inside a per-cell loop."""
    if rows < 8 or cols < 8:
        raise ValueError("rows and cols must be >= 8")
    if not 0.0 <= noise_rate < 0.5:
        raise ValueError("noise_rate must be in [0, 0.5)")
    rng = np.random.default_rng(seed)
    mask = wafer_mask(rows, cols)

    region = np.zeros((rows, cols), dtype=np.int64)
    truth = np.zeros((rows, cols), dtype=np.int64)
    defect = np.zeros((rows, cols), dtype=bool)
    for pid, spec in enumerate(specs, start=1):
        for r, c in rasterize_loops(spec, rows, cols, mask):
            region[r, c] = pid  # later pattern wins on overlap
            if rng.random() < spec.fill_rate:
                defect[r, c] = True
                truth[r, c] = pid
    if noise_rate > 0:
        for r in range(rows):
            for c in range(cols):
                if mask[r, c] and not defect[r, c] and rng.random() < noise_rate:
                    defect[r, c] = True
                    truth[r, c] = 0

    cells = np.where(
        mask,
        np.where(defect, CellState.DEFECTIVE, CellState.FUNCTIONAL),
        CellState.OUTSIDE,
    ).astype(np.int8)
    wmap = WaferMap(rows, cols, cells.ravel())
    return SynthWafer(
        map=wmap,
        truth_labels=truth.ravel(),
        region_labels=region.ravel(),
        noise_rate=noise_rate,
    )
