"""Dynamical-system input model: transition matrix, energies, column space.

A system is a pair (A, N): a 0-1 transition matrix A over m generators with
no identically zero rows, and energies N(x) > 1 per generator.  All other
modules consume the validated :class:`SystemModel` produced here, together
with the column space of ``A`` (its set of distinct columns), which indexes
the atoms of every state the toolkit manipulates, and the strong classes of
``A``, which carry the critical temperatures.  Two reachability sweeps from
generator 0, forward along A and backward along its transpose, recognise the
common strongly connected matrix with a few array operations; any other
matrix gets one iterative linear-time search (Tarjan's algorithm).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    EnergyNotAboveOneError,
    ZeroRowError,
)

__all__ = [
    "SystemModel",
    "PropertyReport",
    "ColumnSpace",
    "build_model",
    "properties",
    "column_space",
    "a_xyz",
    "v_xy_points",
]


def check_beta(beta: float, domain: str = "(-inf, inf]") -> None:
    """The one beta rule: raise ValueError, naming beta, unless it lies in ``domain``."""
    ok, need = {
        "(-inf, inf]": (beta > -math.inf, "N^-beta needs a beta above -inf"),
        "(0, inf]": (beta > 0, "beta must be positive or +inf"),
        "(0, inf)": (0 < beta < math.inf, "beta must be positive and finite"),
        "(-inf, inf)": (-math.inf < beta < math.inf, "beta must be finite"),
    }[domain]
    if not ok:
        raise ValueError(f"{need}, got {float(beta)!r}")


@dataclass(frozen=True, eq=False)
class SystemModel:
    """A validated transition matrix with per-generator energies.

    Generators are the integer indices 0..m-1; external labels, when given,
    are carried along purely for reporting.  The column space and the
    structural properties never change for a frozen model, so each is built
    on first use and kept (see :func:`column_space`, :func:`properties`,
    :attr:`strong_components` and :attr:`class_ancestors`).
    """

    matrix: np.ndarray          # (m, m) int8, entries 0/1, no zero row
    energies: np.ndarray        # (m,) float, every entry > 1
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        self.matrix.setflags(write=False)
        self.energies.setflags(write=False)

    @property
    def m(self) -> int:
        return self.matrix.shape[0]

    def successors(self, x: int) -> np.ndarray:
        """Indices y with a transition x -> y."""
        return np.flatnonzero(self.matrix[x])

    def weights(self, beta: float) -> np.ndarray:
        """N(x)^-beta per generator, for beta in (-inf, inf] (:func:`check_beta`); +inf gives 0."""
        check_beta(beta)
        if beta == math.inf:
            return np.zeros(self.m)
        return self.energies ** (-beta)

    @cached_property
    def strong_components(self) -> tuple[int, np.ndarray]:
        """Strongly connected components: their number and a read-only label per generator."""
        ncomp, labels = _strong_components(self.matrix)
        labels.setflags(write=False)
        return ncomp, labels

    @cached_property
    def class_ancestors(self) -> np.ndarray:
        """Read-only (n, n) table over the n strong classes: entry [c, a] says
        class a has a path into class c (a == c included).

        Tarjan's search closes the sinks of the condensation first, so every
        edge between two classes runs from the higher label to the lower one,
        and one sweep down from the highest label builds each row from rows
        already built.
        """
        ncomp, labels = self.strong_components
        src, dst = np.nonzero(self.matrix)
        into = np.zeros((ncomp, ncomp), dtype=bool)
        into[labels[dst], labels[src]] = True       # [c, a]: an edge from class a into c
        table = np.zeros((ncomp, ncomp), dtype=bool)
        for c in range(ncomp - 1, -1, -1):
            row = table[np.flatnonzero(into[c, c + 1:]) + c + 1].any(axis=0)
            row[c] = True
            table[c] = row
        table.setflags(write=False)
        return table

    def ancestors(self, targets) -> np.ndarray:
        """Sorted indices with a directed path into ``targets`` (targets included)."""
        _, labels = self.strong_components
        return np.flatnonzero(self.class_ancestors[labels[targets]].any(axis=0)[labels])

    @cached_property
    def _properties(self) -> "PropertyReport":
        a = self.matrix
        ncomp, _ = self.strong_components
        irreducible = ncomp == 1
        no_zero_column = bool(a.any(axis=0).all())

        # Greedy cover: pick the column hitting the most uncovered rows.  Exact
        # minimal covers are NP-hard and only the existence flag matters.
        uncovered = np.ones(self.m, dtype=bool)
        witness: list[int] = []
        while uncovered.any():
            gains = (a[uncovered, :] == 1).sum(axis=0)
            y = int(np.argmax(gains))
            witness.append(y)
            uncovered &= a[:, y] == 0

        return PropertyReport(
            irreducible=bool(irreducible),
            no_zero_column=no_zero_column,
            finite_target_set=tuple(sorted(witness)),
            energy_gap=float(self.energies.min()),
        )

    @cached_property
    def _column_space(self) -> "ColumnSpace":
        # Each column packed big-endian into bytes, whose order is the order
        # of its 0/1 tuple: one sort of the packed keys orders the columns as
        # tuples sort.  The void view needs C-contiguous rows.
        packed = np.ascontiguousarray(np.packbits(self.matrix.T != 0, axis=1))
        keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
        _, first, column_of = np.unique(keys, return_index=True, return_inverse=True)
        rows = self.matrix.T[first]
        space = ColumnSpace(
            points=tuple(map(tuple, rows.tolist())),
            column_of=tuple(column_of.tolist()),
            d=len(first),
            contains_zero=not rows[0].any(),
        )
        bits = rows.astype(float)
        bits.setflags(write=False)
        space.__dict__["_bits"] = bits      # bit_matrix() from these rows, not the tuples
        return space


def _strong_components(matrix: np.ndarray) -> tuple[int, np.ndarray]:
    """Strongly connected components of the graph with an edge x -> y where matrix[x, y] != 0.

    Returns the number of components and a label per vertex; labels count
    the components in the order they close in Tarjan's search, sinks of the
    condensation first.  The graph is strongly connected exactly when
    vertex 0 reaches every vertex and every vertex reaches vertex 0, so two
    reachability sweeps from vertex 0, one along the edges and one against
    them, first test for a single component (the forward-backward test of
    Fleischer, Hendrickson and Pinar, "On identifying strongly connected
    components in parallel", 2000).  When both reach every vertex the answer
    is one component with every label 0, as the search would return it;
    every other graph goes to :func:`_tarjan`.  A sweep costs about one
    array operation per step of its depth.
    """
    support = matrix != 0
    if _reaches_all(support) and _reaches_all(support.T):
        return 1, np.zeros(matrix.shape[0], dtype=np.intp)
    return _tarjan(matrix)


def _reaches_all(edges: np.ndarray) -> bool:
    """Whether vertex 0 reaches every vertex along the edges x -> y where edges[x, y] is True.

    Each step takes the successors of the whole frontier in one boolean
    reduction over the frontier's rows; the sweep stops once every vertex
    is reached, without expanding the last frontier.
    """
    m = edges.shape[0]
    seen = np.zeros(m, dtype=bool)
    seen[0] = True
    frontier = np.zeros(1, dtype=np.intp)
    reached = 1
    while frontier.size and reached < m:
        new = edges[frontier].any(axis=0)
        new &= ~seen
        seen |= new
        frontier = np.flatnonzero(new)
        reached += frontier.size
    return reached == m


def _tarjan(matrix: np.ndarray) -> tuple[int, np.ndarray]:
    """Strong components by Tarjan's algorithm, labelled as :func:`_strong_components` says.

    "Depth-first search and linear graph algorithms", SIAM J. Comput. 1972:
    one depth-first search, linear in the number of edges, kept on an
    explicit path so that no recursion limit is reached.  A visited vertex
    stays on ``stack`` until its component closes, and only edges into
    ``stack`` can lower ``low``.
    """
    m = matrix.shape[0]
    index = [-1] * m    # preorder number, -1 until visited
    low = [0] * m       # least preorder number reached on the stack
    labels = [-1] * m   # -1 until the component closes
    stack: list[int] = []
    path: list = []     # the search path: each vertex with its unscanned successors
    ncomp = order = 0

    def enter(v: int) -> None:
        nonlocal order
        index[v] = low[v] = order
        order += 1
        stack.append(v)
        # A memoryview makes each successor a Python int only when it is
        # scanned; lists of them would hold all ~m^2 ints of a dense matrix
        # at once, and their small-object arenas raised the peak memory of
        # later work by about 2 MB at m = 400.
        path.append((v, iter(memoryview(matrix[v].nonzero()[0]))))

    for root in range(m):
        if index[root] < 0:
            enter(root)
        while path:
            v, successors = path[-1]
            for w in successors:
                if index[w] < 0:
                    enter(w)
                    break
                if labels[w] < 0 and index[w] < low[v]:
                    low[v] = index[w]
            else:
                path.pop()
                if low[v] == index[v]:
                    while True:
                        w = stack.pop()
                        labels[w] = ncomp
                        if w == v:
                            break
                    ncomp += 1
                if path:
                    u = path[-1][0]
                    low[u] = min(low[u], low[v])
    return ncomp, np.array(labels, dtype=np.intp)


@dataclass(frozen=True)
class PropertyReport:
    """Structural properties of a system, as booleans plus witnesses.

    ``finite_target_set`` is a greedy (not necessarily minimal) set of
    generators hit by every row.  ``ta_equals_oa`` records whether the
    Toeplitz algebra coincides with its Cuntz-Krieger quotient; this needs
    every column neighborhood to repeat infinitely often, which is
    impossible over a finite index set, so it is always False here.
    """

    irreducible: bool
    no_zero_column: bool
    finite_target_set: tuple[int, ...]
    energy_gap: float
    ta_equals_oa: bool = False


@dataclass(frozen=True)
class ColumnSpace:
    """The distinct columns of A, in lexicographic order.

    ``points[i]`` is a 0/1 bit-vector of length m; ``column_of[z]`` is the
    index into ``points`` of generator z's column.  ``d`` counts the points:
    the simplex of KMS states above criticality has dimension d - 1.
    """

    points: tuple[tuple[int, ...], ...]
    column_of: tuple[int, ...]
    d: int
    contains_zero: bool

    def members(self, point: int) -> tuple[int, ...]:
        """Generators whose column equals ``points[point]``."""
        return tuple(z for z, c in enumerate(self.column_of) if c == point)

    def bit_matrix(self) -> np.ndarray:
        """(d, m) array: row i is points[i]; entry [i, x] says whether x is in point i.

        Built once and shared, so it is read-only.
        """
        return self._bits

    @cached_property
    def _bits(self) -> np.ndarray:
        bits = np.array(self.points, dtype=float)
        bits.setflags(write=False)
        return bits

    @cached_property
    def _column_of(self) -> np.ndarray:
        """``column_of`` as a read-only index array, built once and shared."""
        index = np.array(self.column_of, dtype=np.intp)
        index.setflags(write=False)
        return index

    def push(self, values) -> np.ndarray:
        """Per-point sums of a per-generator vector: out[c] = sum of values[z] over z with column c.

        Generators are added in index order, the same order as an explicit
        loop, so the sums are bitwise reproducible.
        """
        return np.bincount(self._column_of, weights=values, minlength=self.d)


def build_model(
    matrix: Sequence[Sequence[int]] | np.ndarray,
    energies: Sequence[float] | np.ndarray,
    labels: Sequence[str] | None = None,
) -> SystemModel:
    """Validate and freeze a dynamical-system input.

    Raises :class:`DimensionMismatchError`, :class:`ZeroRowError` or
    :class:`EnergyNotAboveOneError` on bad input.
    """
    a = np.asarray(matrix)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise DimensionMismatchError(f"matrix must be square and nonempty, got shape {a.shape}")
    # Strings, complex numbers and the like are rejected by kind; an object
    # array (a Python int past int64, a None) compares entry by entry.
    if a.dtype.kind not in "biufO" or not ((a == 0) | (a == 1)).all():
        raise DimensionMismatchError("matrix entries must be 0 or 1")
    try:
        n = np.asarray(energies, dtype=float)
    except TypeError:
        raise DimensionMismatchError(f"energies must be numbers, got {energies!r}") from None
    if n.shape != (a.shape[0],):
        raise DimensionMismatchError(
            f"energies must have length {a.shape[0]}, got shape {n.shape}"
        )
    zero_rows = np.flatnonzero(~a.any(axis=1))
    if zero_rows.size:
        raise ZeroRowError(int(zero_rows[0]))
    bad = np.flatnonzero(~(np.isfinite(n) & (n > 1.0)))
    if bad.size:
        raise EnergyNotAboveOneError(int(bad[0]), float(n[bad[0]]))
    if labels is not None:
        if not hasattr(labels, "__len__"):
            raise DimensionMismatchError(f"labels must be a list, got {labels!r}")
        if len(labels) != a.shape[0]:
            raise DimensionMismatchError("labels must match the matrix dimension")
        labels = tuple(str(s) for s in labels)
    return SystemModel(matrix=a.astype(np.int8), energies=n, labels=labels)


def properties(model: SystemModel) -> PropertyReport:
    """Irreducibility, column nonvanishing, a finite target set and the energy gap.

    Computed on first use and cached on the model.
    """
    return model._properties


def column_space(model: SystemModel) -> ColumnSpace:
    """The columns of A deduplicated into canonically ordered points.

    Computed on first use and cached on the model.
    """
    return model._column_space


def a_xyz(model: SystemModel, X: Iterable[int], Y: Iterable[int], z: int) -> int:
    """Product indicator: 1 iff A(x, z) = 1 for all x in X and A(y, z) = 0 for all y in Y.

    Equivalently, 1 iff the column of z has every bit of X set and every bit
    of Y clear.
    """
    a = model.matrix
    out = 1
    for x in X:
        out *= int(a[x, z])
    for y in Y:
        out *= 1 - int(a[y, z])
    return out


def v_xy_points(space: ColumnSpace, X: Iterable[int], Y: Iterable[int]) -> tuple[int, ...]:
    """Indices of column-space points containing every bit of X and no bit of Y."""
    xs, ys = tuple(X), tuple(Y)
    out = []
    for i, c in enumerate(space.points):
        if all(c[x] for x in xs) and not any(c[y] for y in ys):
            out.append(i)
    return tuple(out)
