"""Brute-force admissible-word enumeration and direct Dirichlet partial sums.

This module is the independent oracle for every closed form elsewhere in
the package: it never touches linear algebra.  A word mu = (mu_1, ..., mu_n)
is admissible when A(mu_i, mu_{i+1}) = 1 for all consecutive pairs; its
weight is N(mu)^-beta with N(mu) the product of the letter energies.  The
empty word is admissible with weight 1.

An enumeration to length n visits the words of every length 1..n, so a
word ``cap`` bounds their running total: :func:`_word_tree` calls
:func:`_shell_counts` once, which stops at the first total above it, before
it builds any level.  :func:`_shell_table` gives the counts and exact sums
of shells 0..L that ``partial_series`` adds up and ``oracle`` prints.

Shell sums enumerate a word tree once per length bound: level k holds the
admissible words of length k grouped by last letter in ascending order,
stored as ``(parents, counts)``: the index of each word's parent of length
k - 1, and the number of words that end in each letter, so that a word's
letter follows from its position.  Replaying the tree at a beta gives each
word its own weight, the left-to-right product w(parent) * N(letter)^-beta; one tree serves any
number of betas and every level up to its depth.  The sum of a shell is
fixed bit for bit: each last-letter group is summed exactly rounded
(``math.fsum``, so the order inside a group does not matter), and the
group sums are combined by one more ``fsum``, as are the shells of a
partial series.  The groups stay because one ``fsum`` over a whole shell
builds a list of every word in it, which measured slower on shells of
millions of words.

Two per-level kernels do all the arithmetic on the weights a replay gives
a level: :func:`_exact` takes the exact sum, and :func:`_enclosure` a
certified bracket of it from a plain ``w.sum()``.  Every value this module
returns is an exact sum.  Plain sums only steer: each probe of the ITP
search in :func:`critical.abscissa_estimate` replays the tree once,
brackets its last two levels, decides on the brackets where they are
disjoint and interpolates on the log ratio of the plain sums; only where
the brackets of a probe and of its neighbours overlap does it take the
exact sums, from the probe's own arrays.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from math import fsum, inf, log

import numpy as np

from .errors import LengthTooLargeError
from .model import SystemModel, check_beta

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
        """N(mu)^-beta = exp(-beta log N(mu)); the empty word weighs 1 at
        every beta.  Raises ValueError for a NaN or -inf beta."""
        check_beta(beta)
        return float(np.exp(-beta * self.weight_exponent)) if self.letters else 1.0


def enumerate_words(model: SystemModel, n: int, cap: int = WORD_CAP_DEFAULT) -> list[AdmissibleWord]:
    """All admissible words of length n, in lexicographic order.

    n = 0 yields just the empty word.  Raises LengthTooLargeError if the
    words of lengths 1..n, every prefix the enumeration visits, exceed
    ``cap``.
    """
    if n < 0:
        raise ValueError("word length must be nonnegative")
    if n == 0:
        return [AdmissibleWord(letters=(), weight_exponent=0.0)]

    _shell_counts(model, n, cap)
    succ = [tuple(int(y) for y in model.successors(x)) for x in range(model.m)]
    logn = [log(v) for v in model.energies]

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


def _shell_counts(model: SystemModel, n: int, cap: int = WORD_CAP_DEFAULT) -> list[int]:
    """Numbers of admissible words of lengths 0..n (exact, integer path counts).

    Raises LengthTooLargeError(total, cap) at the first k whose running
    total of the words of lengths 1..k is above ``cap``, and counts no
    later shell.  The counts take every first letter, whatever ``source``
    the enumeration keeps.
    """
    a = model.matrix.astype(object)  # exact integer arithmetic
    v = np.ones(model.m, dtype=object)
    counts, total = [1], 0
    for k in range(1, n + 1):
        if k > 1:
            v = a @ v
        counts.append(int(v.sum()))
        total += counts[-1]
        if total > cap:
            raise LengthTooLargeError(total, cap)
    return counts


def _word_tree(model: SystemModel, n: int, source: int | None = None,
               cap: int = WORD_CAP_DEFAULT) -> tuple[list[int], list[tuple]]:
    """The :func:`_shell_counts` of lengths 0..n, which apply ``cap`` before
    any level is built, and the admissible words of lengths 1..n (first
    letter ``source`` if given); n = 0 gives no levels.

    Level k is ``(parents, counts)``: ``counts[y]`` words end in letter y,
    grouped in ascending order of y, and word i extends word ``parents[i]``
    of level k - 1 (``parents`` is None on the first level).  Each level is
    one step over the edges x -> y, taken by y and then by x: an edge
    extends the ``counts[x]`` words that end in x.
    """
    shells = _shell_counts(model, n, cap)
    counts = np.bincount(range(model.m) if source is None else [source], minlength=model.m)
    tree = [(None, counts)] if n else []
    _, x = np.nonzero(model.matrix.T)
    for _ in range(n - 1):
        k = counts[x]
        ends = k.cumsum()  # no zero rows, so every letter has an edge
        parents = np.arange(int(ends[-1])) + (counts.cumsum()[x] - ends).repeat(k)
        counts = counts @ model.matrix
        tree.append((parents, counts))
    return shells, tree


def _replay(model: SystemModel, tree: list[tuple], beta: float):
    """Each level of ``tree`` with the weights of its words at beta, level by level."""
    nw = model.weights(beta)
    for level in tree:
        parents, counts = level
        if parents is None:
            w = nw.repeat(counts)
        else:
            w = w[parents]
            w *= nw.repeat(counts)  # w(parent) * N(letter)^-beta, in place
        yield level, w


def _exact(level: tuple, w: np.ndarray, target: int | None = None) -> float:
    """The exact sum of one level's weights ``w``: each nonempty last-letter
    group (only ``target``'s, if given) summed by ``fsum``, and one ``fsum``
    over the group sums."""
    _, counts = level
    if target is not None:
        # an fsum over one group sum is that sum
        stop = int(counts[:target + 1].sum())
        return fsum(w[stop - int(counts[target]):stop].tolist())
    return fsum(fsum(w[stop - count:stop].tolist())
                for count, stop in zip(counts.tolist(), counts.cumsum().tolist()) if count)


def _enclosure(w: np.ndarray) -> tuple[float, float]:
    """Certified [lo, hi] around the :func:`_exact` sum of one level's
    weights ``w``, from a plain ``w.sum()``.

    A plain sum R of n nonnegative terms, in any order, lies within
    gamma_{n-1} T of their real sum T, gamma_k = k u / (1 - k u) with u the
    unit roundoff; additions that underflow are exact, so the bound holds
    there too (Higham, *Accuracy and Stability of Numerical Algorithms*,
    2nd ed., section 4.2).  The fsum of the group fsums lies within
    (2u + u^2) T of T.  So the exact value lies within rel * R of R, rel =
    (gamma + 2u + u^2) / (1 - gamma); 8u more covers the rounding of rel and
    of the two products, whose relative error stays below 2u even where
    R (1 - rel) underflows.  A plain sum that is zero or not finite gets
    [0, inf], which decides no comparison.
    """
    u = 2.0 ** -53
    rough = float(w.sum())
    if not 0.0 < rough < inf:
        return 0.0, inf
    k = (w.size - 1) * u
    gamma = k / (1.0 - k)
    rel = (gamma + 2.0 * u + u * u) / (1.0 - gamma) + 8.0 * u
    return rough * (1.0 - rel), rough * (1.0 + rel)


def _check_args(model: SystemModel, beta: float, source: int | None, target: int | None) -> None:
    check_beta(beta)  # whatever the length
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
    word) and 0 otherwise.  Raises ValueError for a NaN or -inf beta and
    for a source or target outside the alphabet, at every n.
    """
    if n < 0:
        raise ValueError("shell index must be nonnegative")
    _check_args(model, beta, source, target)
    if n == 0:
        return 1.0 if source is None and target is None else 0.0
    level, w = deque(_replay(model, _word_tree(model, n, source, cap)[1], beta), maxlen=1)[0]
    return _exact(level, w, target)


def _shell_table(model: SystemModel, beta: float, L: int, source: int | None,
                 target: int | None, cap: int) -> tuple[list[int], list[float]]:
    """Counts (of words with every first letter) and exact sums of shells
    0..L.  Row 0 is ``shell_sum(n=0)``, which checks beta and the ends
    before the cap; rows 1..L are one replay of the tree, each bit for bit
    its ``shell_sum``."""
    if L < 0:
        raise ValueError("truncation length must be nonnegative")
    sums = [shell_sum(model, beta, 0, source, target)]
    counts, tree = _word_tree(model, L, source, cap)
    sums += [_exact(level, w, target) for level, w in _replay(model, tree, beta)]
    return counts, sums


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
    Raises ValueError for a NaN or -inf beta and for a source or target
    outside the alphabet, at every L.
    """
    return fsum(_shell_table(model, beta, L, source, target, cap)[1])
