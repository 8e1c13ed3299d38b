"""Brute-force admissible-word enumeration and direct Dirichlet partial sums.

This module is the independent oracle for every closed form elsewhere in
the package: it never touches linear algebra.  A word mu = (mu_1, ..., mu_n)
is admissible when A(mu_i, mu_{i+1}) = 1 for all consecutive pairs; its
weight is N(mu)^-beta with N(mu) the product of the letter energies.  The
empty word is admissible with weight 1.

Shell sums enumerate a word tree once per length bound: level k holds the
admissible words of length k, each stored as the index of its parent word
of length k - 1 plus its last letter, grouped by last letter in ascending
order.  Replaying the tree at a beta gives each word its own weight, the
left-to-right product w(parent) * N(letter)^-beta; one tree serves any
number of betas and every level up to its depth.  The sum of a shell is
fixed bit for bit: each last-letter group is summed exactly rounded
(``math.fsum``, so the order inside a group does not matter), and the
group sums are combined by one more ``fsum``, as are the shells of a
partial series.  The groups stay because one ``fsum`` over a whole shell
builds a list of every word in it, which measured slower on shells of
millions of words.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from math import fsum, log

import numpy as np

from .errors import LengthTooLargeError
from .model import SystemModel

__all__ = ["AdmissibleWord", "WORD_CAP_DEFAULT", "enumerate_words", "shell_sum", "partial_series"]

WORD_CAP_DEFAULT = 10_000_000


@dataclass(frozen=True)
class AdmissibleWord:
    letters: tuple[int, ...]
    weight_exponent: float  # log N(mu) = sum of log N(letter)

    @property
    def length(self) -> int:
        return len(self.letters)

    def weight(self, beta: float) -> float:
        return float(np.exp(-beta * self.weight_exponent))


def enumerate_words(model: SystemModel, n: int, cap: int = WORD_CAP_DEFAULT) -> list[AdmissibleWord]:
    """All admissible words of length n, in lexicographic order.

    n = 0 yields just the empty word.  Raises LengthTooLargeError if the
    output would exceed ``cap`` words.
    """
    if n < 0:
        raise ValueError("word length must be nonnegative")
    if n == 0:
        return [AdmissibleWord(letters=(), weight_exponent=0.0)]

    succ = [tuple(int(y) for y in model.successors(x)) for x in range(model.m)]
    logn = [log(v) for v in model.energies]
    count = _shell_count(model, n)
    if count > cap:
        raise LengthTooLargeError(count, cap)

    out: list[AdmissibleWord] = []
    # Iterative depth-first extension; only admissible prefixes are kept.
    stack: list[tuple[tuple[int, ...], float]] = [
        ((x,), logn[x]) for x in range(model.m - 1, -1, -1)
    ]
    while stack:
        prefix, w = stack.pop()
        if len(prefix) == n:
            out.append(AdmissibleWord(letters=prefix, weight_exponent=w))
            continue
        last = prefix[-1]
        for y in reversed(succ[last]):
            stack.append((prefix + (y,), w + logn[y]))
    return out


def _shell_counts(model: SystemModel, n: int) -> list[int]:
    """Numbers of admissible words of lengths 0..n (exact, integer path counts)."""
    a = model.matrix.astype(object)  # exact integer arithmetic
    v = np.ones(model.m, dtype=object)
    counts = [1]
    for k in range(1, n + 1):
        if k > 1:
            v = a @ v
        counts.append(int(v.sum()))
    return counts


def _shell_count(model: SystemModel, n: int) -> int:
    """Number of admissible words of length n (exact, integer path count)."""
    return _shell_counts(model, n)[-1]


@dataclass(frozen=True)
class _Level:
    """The admissible words of one length in a word tree.

    Word i extends word ``parents[i]`` of the previous level (``None`` on the
    first level) by the letter ``letters[i]``.  ``groups`` lists, for each
    last letter in ascending order that ends at least one word, the letter
    and the slice (start, stop) of its words.
    """

    parents: np.ndarray | None
    letters: np.ndarray
    groups: tuple[tuple[int, int, int], ...]


def _word_tree(
    model: SystemModel,
    n: int,
    source: int | None = None,
    cap: int = WORD_CAP_DEFAULT,
) -> list[_Level]:
    """Admissible words of lengths 1..n (first letter ``source`` if given).

    Raises LengthTooLargeError before enumerating when shell n holds more
    than ``cap`` words.
    """
    count = _shell_count(model, n)
    if count > cap:
        raise LengthTooLargeError(count, cap)
    first = np.arange(model.m) if source is None else np.array([source])
    tree = [_Level(None, first, tuple((int(x), i, i + 1) for i, x in enumerate(first)))]
    into = model.matrix.T.astype(bool)  # into[y, x] = A(x, y)
    for _ in range(n - 1):
        prev = tree[-1].letters
        parts, groups, start = [], [], 0
        for y in range(model.m):
            parents = np.flatnonzero(into[y][prev])
            if parents.size:
                parts.append(parents)
                groups.append((y, start, start + parents.size))
                start += parents.size
        letters = np.repeat([y for y, _, _ in groups], [stop - lo for _, lo, stop in groups])
        tree.append(_Level(np.concatenate(parts), letters, tuple(groups)))
    return tree


def _shell_sums(
    model: SystemModel,
    tree: list[_Level],
    beta: float,
    first: int = 1,
    target: int | None = None,
) -> list[float]:
    """Shell sums of lengths first..len(tree) at beta, one replay of the tree.

    Each value equals :func:`shell_sum` of that length bit for bit.
    """
    nw = model.weights(beta)
    out = []
    for n, level in enumerate(tree, start=1):
        if level.parents is None:
            w = nw[level.letters]
        else:
            w = w[level.parents]
            w *= nw[level.letters]  # w(parent) * N(letter)^-beta, in place
        if n < first:
            continue
        out.append(fsum(fsum(w[start:stop].tolist())
                        for y, start, stop in level.groups if target is None or y == target))
    return out


def _check_ends(model: SystemModel, source: int | None, target: int | None) -> None:
    for name, x in (("source", source), ("target", target)):
        if x is not None and not 0 <= x < model.m:
            raise ValueError(f"{name} must be a letter in 0..{model.m - 1}, got {x}")


def shell_sum(
    model: SystemModel,
    beta: float,
    n: int,
    source: int | None = None,
    target: int | None = None,
    cap: int = WORD_CAP_DEFAULT,
) -> float:
    """Sum of N(mu)^-beta over admissible words of length n.

    ``source``/``target`` restrict to words with that first/last letter.
    For n = 0 the value is 1 when both constraints are absent (the empty
    word) and 0 otherwise.  Raises ValueError for a source or target
    outside the alphabet.
    """
    if n < 0:
        raise ValueError("shell index must be nonnegative")
    _check_ends(model, source, target)
    if n == 0:
        return 1.0 if source is None and target is None else 0.0
    tree = _word_tree(model, n, source, cap)
    return _shell_sums(model, tree, beta, first=n, target=target)[0]


def partial_series(
    model: SystemModel,
    beta: float,
    L: int,
    source: int | None = None,
    target: int | None = None,
    cap: int = WORD_CAP_DEFAULT,
) -> float:
    """Truncated Dirichlet series: shells n = 0..L summed directly.

    The length-0 term (the empty word, weight 1) belongs only to the
    unconstrained series; the fixed-source/fixed-target series start at n=1.
    Raises ValueError for a source or target outside the alphabet.
    """
    if L < 0:
        raise ValueError("truncation length must be nonnegative")
    _check_ends(model, source, target)
    for total_words in accumulate(_shell_counts(model, L)[1:]):
        if total_words > cap:
            raise LengthTooLargeError(total_words, cap)
    shells = [1.0] if source is None and target is None else []
    if L > 0:
        shells += _shell_sums(model, _word_tree(model, L, source, cap), beta, target=target)
    return fsum(shells)
