"""Product-code construction and its iterative hard-decision decoders.

A product code squares one systematic component code: information bits fill a
k-by-k array, every row is encoded, then every column of the intermediate
array.

``iterate`` is the round loop of both schemes, one call per decode.  A stack's
component words are the rows of one group-major (G, S, R, n) array, so each
bit is held twice, once in each of its two lines.  A flipped bit travels as
one flat index into its group's block, from the verdict rule (``line_flips``)
to the write-back, where the scheme's ``copies`` gives the flat indices of
both its copies.  Each line's syndrome word is kept exact from the bits that
change: only lines with a nonzero word reach BDD, an item stops once all its
words are zero, and a round that changes no bit, a fixed point, skips every
next round that weighs as it does, ending the decode if they reach its last
round.  Weights above the stack's largest channel |LLR| all weigh as inf
(``decisive_weights``), and an observer sees each skipped round replayed,
so it changes no round that runs.  A product
frame's G = 2 groups are its rows and its columns: bit (s, r, c) of the one
is bit (s, c, r) of the other.  The three decoders differ only in the verdict
rule that makes a component word the next binary message:

* ``ibdd_decode``       -- the BDD word itself; failed component words pass
                           through unchanged.
* ``ibdd_sr_decode``    -- scaled reliability: each BDD verdict is weighed
                           against the channel LLR by ``combine_decision``'s
                           rule, followed by a tail of plain iterations.
* ``ideal_ibdd_decode`` -- a genie that corrects up to t errors and never
                           miscorrects (analysis benchmark).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bch import BchCode, _binary, _locate_errors, ideal_decode_matrix
from .channel import harden


@dataclass(frozen=True)
class ProductCode:
    """Symmetric product code: the same component protects rows and columns."""

    component: BchCode

    @property
    def n(self) -> int:
        return self.component.n

    @property
    def k(self) -> int:
        return self.component.k

    @property
    def rate(self) -> float:
        return (self.component.k / self.component.n) ** 2

    def is_codeword(self, arr: np.ndarray) -> bool:
        comp = self.component
        return bool(
            np.all(comp.is_codeword(arr)) and np.all(comp.is_codeword(arr.T))
        )

    def __repr__(self):
        return f"ProductCode(({self.n},{self.k})^2, rate={self.rate:.4f})"


def pc_encode(code: ProductCode, info: np.ndarray) -> np.ndarray:
    """Encode a k-by-k information array into an n-by-n codeword array.

    Rows first, then columns of the row-encoded array; for a linear
    systematic component the checks-on-checks block makes every row and
    every column a component codeword regardless of the encoding order.
    """
    comp = code.component
    info = np.asarray(info)  # the component's encode refuses any entry but 0 and 1
    if info.shape != (comp.k, comp.k):
        raise ValueError(f"expected {comp.k}x{comp.k} information array")
    rows_done = comp.encode(info)  # (k, n)
    full = comp.encode(np.ascontiguousarray(rows_done.T)).T  # (n, n)
    return np.ascontiguousarray(full)


def combine_decision(mu_bar, w, llr) -> np.ndarray:
    """Hard decision B(w*mu_bar + llr), realized as a comparison.

    The BDD verdict wins only when it exists (mu_bar != 0) and its weight
    strictly exceeds the channel magnitude; otherwise -- including the tie
    w == |llr| -- the channel sign decides.  Ties and llr == 0 resolve to
    bit 0, matching B.
    """
    mu = np.asarray(mu_bar)
    llr = np.asarray(llr)
    bdd_wins = (mu != 0) & (np.asarray(w, dtype=float) > np.abs(llr))
    return np.where(bdd_wins, mu < 0, llr < 0).astype(np.uint8)


def check_weights(*arrays) -> None:
    """Raise ValueError unless every combining weight is finite and nonnegative."""
    for w in arrays:
        w = np.asarray(w, dtype=float)
        if not np.all(np.isfinite(w) & (w >= 0)):
            raise ValueError("combining weights must be finite and nonnegative")


@dataclass(frozen=True)
class ScalingSchedule:
    """Per-iteration combining weights for the two component phases.

    ``w_row[l]`` scales the BDD verdicts of the row pass of iteration l+1,
    ``w_col[l]`` those of the column pass.
    """

    w_row: np.ndarray
    w_col: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "w_row", np.asarray(self.w_row, dtype=float))
        object.__setattr__(self, "w_col", np.asarray(self.w_col, dtype=float))
        check_weights(self.w_row, self.w_col)
        if self.w_row.ndim != 1 or self.w_col.shape != self.w_row.shape:
            raise ValueError("w_row and w_col must be 1-D and of one length: "
                             "one weight per iteration")

    @property
    def iterations(self) -> int:
        return len(self.w_row)

    @classmethod
    def constant(cls, w: float, iterations: int) -> "ScalingSchedule":
        return cls(np.full(iterations, float(w)), np.full(iterations, float(w)))


def line_flips(comp, words, synd, act, weight=None, llr=None, hard=None, genie=None):
    """The verdict rule on the lines of items ``act`` (ascending) of one
    group's block ``words`` (S, R, n), whose syndrome words are ``synd``
    (S, R): the flat index into ``words`` of every bit it flips, each once.

    The genie's verdict when ``genie`` (shaped like ``words``) is given, else
    the BDD verdict weighed against ``llr`` as ``combine_decision`` does when
    ``llr`` and its hard decision ``hard`` are given, else the BDD word.
    Only lines with a nonzero syndrome reach BDD, as a clean line is its own
    BDD word; the genie reads every line and never moves a codeword, since
    its transmitted lines are codewords too.

    Scaled reliability visits two sets of bits only, since elsewhere the BDD
    bit, the channel bit ``hard`` and the message agree: the bits B that BDD
    flips, and the bits D whose message differs from ``hard``.  With
    s = weight > |llr| (a tie keeps the channel), ``combine_decision`` flips
    a bit of B outside D iff s, a bit of B inside D always (its BDD bit is its
    channel bit), and a bit of D outside B iff not (its line decoded and s),
    clean lines counting as decoded.  So a bit of B flips iff s, and a bit of
    D iff not (decoded and s): on a bit in both, whose line decoded, exactly
    one of the two holds.
    """
    every = len(act) == len(words)  # else the active items' blocks are gathered
    pick = (lambda a: a) if every else (lambda a: a[act])
    n, size = words.shape[-1], words[0].size
    if genie is None:
        lines = pick(synd).reshape(-1)
        dirty = np.flatnonzero(lines)
        row, pos, ok = _locate_errors(comp, lines[dirty])
        row = dirty[row]
    else:  # ideal_ibdd_decode weighs nothing against the channel
        row, pos, _ = ideal_decode_matrix(comp, pick(words), pick(genie))
    flips = row * n + pos  # B, as flat indices into the (gathered) blocks
    if llr is not None:  # then D
        differ = np.flatnonzero(pick(words) != pick(hard))
        decoded = np.ones(len(lines), dtype=bool)
        decoded[dirty] = ok
        flips = np.concatenate([flips, differ])
    if not every:
        flips += ((act - np.arange(len(act))) * size)[flips // size]
    if llr is None:  # ibdd or the genie: the verdict is the message
        return flips
    # a transposed view's ``flat`` walks its strides per index: gather by coordinates
    s = weight > np.abs(llr.reshape(-1)[flips] if llr.flags.c_contiguous
                        else llr[np.unravel_index(flips, llr.shape)])
    s[len(row):] = ~(s[len(row):] & decoded[differ // n])
    return flips[s]


def iterate(comp, words, synd, copies, iters, lo, hi, weights=None, llr=None, hard=None,
            genie=None, observer=None):
    """The round loop of both schemes: one decode, ``iters`` rounds over lo..hi-1.

    ``words`` (G, S, R, n) holds S items' component words group-major, each bit
    in two lines, and ``synd`` (G, S, R) their syndrome words; both are
    C-contiguous.  A round passes each group g through ``line_flips``, the
    first ``len(weights[0])`` with weight ``weights[g - lo][round]`` and the
    blocks ``llr[g]`` and ``hard[g]``, the rest weight-free, with ``genie[g]``
    if given.  ``copies(lo, g, x)`` turns the flat indices ``x`` of the bits
    flipped in block g into the flat indices into ``words`` of all their
    copies: one XOR flips them, and one more XORs each position's
    ``comp.position_keys`` entry into its line's word.  An item whose groups
    are all codewords at the top of a round is done for the call.

    A round that changes no bit (its syndrome words come back and its writes
    cancel in pairs) is repeated by every next round that weighs as it does,
    so those rounds are skipped, and the call ends if they reach the last
    round.  Weight-free rounds weigh alike, and scaled ones when each group's
    weights are equal: the decoders pass ``decisive_weights``, which reads
    every weight above the stack's largest channel |LLR| as inf, so weights
    that decide every bit alike are equal.  ``observer(g, round)`` follows
    every group that decodes any item, weight-free rounds counted from 0
    again, up to where the call ends: each skipped round is replayed for it,
    the writes of the round that changed nothing redone group by group.
    """
    scaled = 0 if weights is None else len(weights[0])
    if iters < scaled:  # a negative weight-free tail
        raise ValueError(f"iteration count must be nonnegative, got {iters - scaled}")
    # each round's key: every group's weight, or None for a weight-free round
    rounds = [] if weights is None else np.transpose(weights[:hi - lo]).tolist()
    rounds += [None] * (iters - scaled)
    bits, keys = words.reshape(-1, copy=False), synd.reshape(-1, copy=False)

    def write(x):
        bits[x] ^= 1
        line, pos = np.divmod(x, words.shape[-1])
        np.bitwise_xor.at(keys, line, comp.position_keys[pos])

    ell = 0
    while ell < iters:
        # a dropped item gets no flip in this call, so its words stay zero
        act = np.flatnonzero(synd[lo:hi].any(axis=(0, 2)))
        if not len(act):
            return
        free = ell >= scaled  # weight-free
        # rounds ell + 1 .. end - 1 weigh as this one
        end = next((i for i in range(ell + 1, iters) if rounds[i] != rounds[ell]), iters)
        before, written = synd[lo:hi].copy() if end > ell + 1 else None, []
        for g in range(lo, hi):
            weigh = (None,) * 3 if free else (weights[g - lo][ell], llr[g], hard[g])
            x = copies(lo, g, line_flips(comp, words[g], synd[g], act, *weigh,
                                         None if genie is None else genie[g]))
            write(x)
            written.append(x)
            if observer is not None:
                observer(g, ell - scaled if free else ell)
        ell += 1
        if before is not None and np.array_equal(before, synd[lo:hi]):
            x = np.sort(np.concatenate(written))  # each bit written an even number of times
            if np.array_equal(x[::2], x[1::2]):
                if end == iters:
                    return
                if observer is not None:  # the skipped rounds' writes cancel as this one's
                    for r in range(ell, end):
                        for g, x in zip(range(lo, hi), written):
                            write(x)
                            observer(g, r - scaled if free else r)
                ell = end


def decisive_weights(weights, top):
    """A copy of the (groups, rounds) ``weights`` with each weight above
    ``top``, the largest |LLR| of a stack, read as inf, which decides as it
    does: w > |L| holds for every finite L of the stack and for no infinite
    one.  A decoder finds ``top`` once, as ``max(llr.max(initial=0),
    -llr.min(initial=0))``, with no temporary the size of the stack."""
    return np.where(np.greater(weights, top), np.inf, weights)


def _decode(code, hard, observer, iters, weights=None, llr=None, genie=None):
    """Rows, then columns, of one (n, n) array or a (B, n, n) stack, held as
    the groups of (2, B, n, n), in one ``iterate`` call; the result and the
    observer's arrays have the shape given.  The row and column ``weights``
    with the stacked ``llr``, whose hard decision is ``hard``, or the
    transmitted stack ``genie``, select the verdict."""
    psi = np.array(hard, dtype=np.uint8, ndmin=3, copy=None)  # only read: words is a new stack
    if psi.ndim != 3 or psi.shape[1:] != (code.n, code.n):
        raise ValueError(f"expected an ({code.n}, {code.n}) array or a stack of them")
    comp, n = code.component, code.n
    words = np.stack([psi, psi.transpose(0, 2, 1)])
    synd = comp.syndromes(words)
    out = words[0, 0] if np.ndim(hard) == 2 else words[0]

    def copies(lo, g, x):
        """Bit x = (s, r, c) of group g is also bit (s, c, r) of group 1 - g."""
        rc = x % (n * n)
        return np.concatenate([x + g * psi.size, x + (rc % n * n + rc // n - rc)
                               + (1 - g) * psi.size])

    watch = None if observer is None else (
        lambda g, ell: observer(("row", "col")[g], ell + 1, out))
    rows = (llr, None if llr is None else psi, genie)
    iterate(comp, words, synd, copies, iters, 0, 2, weights,
            *(None if a is None else (a, a.transpose(0, 2, 1)) for a in rows), watch)
    return out.copy()


def ibdd_sr_decode(
    code: ProductCode,
    llr: np.ndarray,
    schedule: ScalingSchedule,
    sr_iters: int = 10,
    plain_iters: int = 2,
    observer=None,
) -> np.ndarray:
    """Iterative BDD with scaled-reliability combining against channel LLRs.

    Each scaled iteration BDD-decodes all rows, re-decides every bit by
    ``combine_decision``'s rule with the iteration's row weight, then
    repeats for columns.  After ``sr_iters`` >= 1 such iterations,
    ``plain_iters`` rounds of conventional decoding (which ignore the channel,
    flipping the error-floor mechanism off) finish the job.  A frame stops
    once it is a product codeword.  ``llr`` is one (n, n) frame or a
    (B, n, n) stack.
    ``observer(stage, iteration, psi)`` is called after every half-iteration
    that decodes any frame, when given.
    """
    if sr_iters < 1:  # with no scaled iteration it would silently decode plain
        raise ValueError(f"ibdd_sr needs sr_iters >= 1, got {sr_iters=}")
    if schedule.iterations < sr_iters:
        raise ValueError(
            f"schedule covers {schedule.iterations} iterations, need {sr_iters}"
        )
    llr = np.asarray(llr, dtype=float)
    weights = decisive_weights((schedule.w_row[:sr_iters], schedule.w_col[:sr_iters]),
                               max(llr.max(initial=0), -llr.min(initial=0)))
    return _decode(code, harden(llr), observer, sr_iters + plain_iters, weights,
                   llr.reshape(-1, *llr.shape[-2:]))


def ibdd_decode(
    code: ProductCode, r: np.ndarray, iters: int = 12, observer=None
) -> np.ndarray:
    """Conventional iterative BDD on a hard-decision array or (B, n, n) stack.

    Rows then columns per iteration; decoded component words replace their
    input, failures leave it untouched.  A frame stops once it is a codeword.
    ``r`` must hold only 0 and 1 (else ValueError).
    """
    return _decode(code, _binary(r, "r"), observer, iters)


def ideal_ibdd_decode(
    code: ProductCode,
    r: np.ndarray,
    transmitted: np.ndarray,
    iters: int = 12,
) -> np.ndarray:
    """Iterative genie decoding: components correct within t, never miscorrect.

    The transmitted product codeword(s), shaped like ``r`` (else ValueError),
    are side information for the genie only; the schedule and stopping rule
    match ``ibdd_decode``.  Both must hold only 0 and 1 (else ValueError).
    """
    r, tx = _binary(r, "r"), _binary(transmitted, "transmitted")
    if tx.shape != r.shape:
        raise ValueError(f"transmitted shape {tx.shape} differs from r's {r.shape}")
    return _decode(code, r, None, iters, genie=np.array(tx, np.uint8, ndmin=3, copy=None))
