"""Output checks made apart from the program.

Each check returns a list of problems; an empty list means the output is
correct.  None of them calls the function whose output it checks, and the
component-code check works from the generator polynomial alone, without
``BchCode.syndromes``.
"""

import numpy as np

# Decoding thresholds of the (255,231,3) ensembles as the paper reports them
PAPER_THRESHOLDS_DB = {"gldpc": 4.18, "sc": 4.05}
THRESHOLD_TOL_DB = 0.02
MAX_PROBLEMS = 5  # problems listed per check; the rest are only counted


def _poly_mod2(value: int, g: int) -> int:
    """Remainder of the GF(2) polynomial ``value`` divided by ``g`` (bit masks)."""
    deg_g = g.bit_length() - 1
    while value.bit_length() - 1 >= deg_g:
        value ^= g << (value.bit_length() - 1 - deg_g)
    return value


def _word_poly(bits: np.ndarray) -> int:
    """A word as a polynomial: position p carries x^(n-1-p)."""
    return int("".join("1" if b else "0" for b in bits.tolist()) or "0", 2)


def _cap(problems: list[str]) -> list[str]:
    if len(problems) > MAX_PROBLEMS:
        return problems[:MAX_PROBLEMS] + [f"... {len(problems) - MAX_PROBLEMS} more"]
    return problems


def channel_rows(n: int, rate: float, ebn0_db: float, rows: int, rng) -> np.ndarray:
    """Hard decisions of the all-zero word sent as BPSK over the workload's AWGN channel."""
    sigma = (2.0 * rate * 10.0 ** (ebn0_db / 10.0)) ** -0.5
    received = 1.0 + sigma * rng.standard_normal((rows, n))
    return (received < 0).astype(np.uint8)


def check_component_rows(code, words: np.ndarray, result) -> list[str]:
    """Check ``bdd_decode_matrix(code, words)`` against the code's definition.

    A decoded row must be divisible by the generator polynomial and lie within
    distance t of its input, with the matching +-1 messages; a failed row is
    passed through with all-zero messages; and every row within distance t of
    the sent all-zero word decodes to it.
    """
    ternary, decoded, ok = (np.asarray(a) for a in result)
    if decoded.shape != words.shape or ok.shape != (len(words),):
        return [f"decoder output shapes {decoded.shape}/{ok.shape} for input {words.shape}"]
    problems = []
    for i, (word, dec) in enumerate(zip(words, decoded)):
        moved = int(np.count_nonzero(word != dec))
        if ok[i]:
            if _poly_mod2(_word_poly(dec), code.generator_poly):
                problems.append(f"row {i}: decoded word is not divisible by g(x)")
            if moved > code.t:
                problems.append(f"row {i}: decoded {moved} > t={code.t} positions away")
            if not np.array_equal(ternary[i], 1 - 2 * dec.astype(np.int8)):
                problems.append(f"row {i}: messages do not match the decoded word")
        else:
            if moved:
                problems.append(f"row {i}: failed row was changed")
            if np.any(ternary[i]):
                problems.append(f"row {i}: failed row carries nonzero messages")
        if np.count_nonzero(word) <= code.t and not (ok[i] and not dec.any()):
            problems.append(f"row {i}: within distance t of the sent word but not decoded to it")
    return _cap(problems)


def check_threshold(ensemble: str, value: float) -> list[str]:
    want = PAPER_THRESHOLDS_DB[ensemble]
    if abs(value - want) <= THRESHOLD_TOL_DB:
        return []
    return [f"{ensemble} threshold {value:.4f} dB, paper {want} +- {THRESHOLD_TOL_DB} dB"]


def check_point(point, bits_per_frame: int, budget: int | None, min_errors: int,
                counted_per_stream: int | None) -> list[str]:
    """Accounting of one ``run_point`` result for one mode.

    bits = frames x bits per frame, and the per-frame error counts add up to
    the totals; a fixed budget is met exactly, otherwise the point ran to its
    error target; staircase frames are whole streams of counted blocks.
    """
    problems = []
    per_frame = np.asarray(point.frame_bit_errors, dtype=np.int64)
    if point.frames != len(per_frame):
        problems.append(f"{point.frames} frames but {len(per_frame)} per-frame counts")
    if point.bits_simulated != point.frames * bits_per_frame:
        problems.append(f"bits {point.bits_simulated} != {point.frames} x {bits_per_frame}")
    if point.bit_errors != int(per_frame.sum()):
        problems.append(f"bit errors {point.bit_errors} != per-frame sum {int(per_frame.sum())}")
    if point.frame_errors != int(np.count_nonzero(per_frame)):
        problems.append(f"frame errors {point.frame_errors} do not match per-frame counts")
    if budget is not None and point.frames != budget:
        problems.append(f"{point.frames} frames decoded, budget {budget}")
    if budget is None and point.frame_errors < min_errors:
        problems.append(f"stopped at {point.frame_errors} < {min_errors} frame errors")
    if counted_per_stream is not None and point.frames % counted_per_stream:
        problems.append(f"{point.frames} counted blocks is not whole streams of {counted_per_stream}")
    return problems


def check_ordering(ber: dict) -> list[str]:
    """The paper's ordering BER(ideal) <= BER(ibdd_sr) <= BER(ibdd), on {mode: BER}."""
    if ber["ideal"] <= ber["ibdd_sr"] <= ber["ibdd"]:
        return []
    return [
        "BER ordering violated: "
        f"ideal {ber['ideal']:.3e}, ibdd_sr {ber['ibdd_sr']:.3e}, ibdd {ber['ibdd']:.3e}"
    ]
