"""Instances of patterns with reversal inside finite words.

Words are strings of digits over an alphabet {0, ..., k-1}, k <= 10.  An
instance of a pattern assigns a non-empty word to each variable; a lowercase
slot receives the variable's value, an uppercase slot its reversal.  The
search enumerates (start, |X|, |Y|) triples in ascending order, so returned
witnesses are deterministic: smallest start, then smallest |X|, then
smallest |Y|.

One slot kernel, ``_match_at``, finds the least instance that starts at a
given position; the search runs it at each start in turn, and the prover in
``engine`` runs it at the start of each reversed node word.  Every scan runs
on the pattern's x-led form (``x_led``), the only form ``_plan`` compiles:
renaming keeps where instances start.  The witness is still p's own least
(start, |X|, |Y|): when the renaming swapped two used variables, the kernel
is rerun at the start the scan found with a rising cap on the renamed |Y|,
which is p's |X|.  An only-y pattern's witness carries a y assignment and no
x assignment.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .patterns import iota, parse_pattern, variable_counts


@dataclass(frozen=True)
class InstanceWitness:
    """One occurrence: the factor at ``start`` is the image of the pattern.

    ``x`` (``y``) is present exactly when the pattern uses that variable.
    """

    start: int
    x: str | None
    y: str | None


def parse_word(text: str) -> str:
    """Validate a word: a string of the ASCII digits 0-9."""
    if text.isascii() and text.isdigit():
        return text
    for i, ch in enumerate(text):
        if not "0" <= ch <= "9":
            raise ValueError(f"invalid word letter {ch!r} at position {i}: expected a digit 0-9")
    return text


def apply_morphism(p: str, x: str | None = None, y: str | None = None) -> str:
    """Image of p under x -> X, X -> reversal(X), y -> Y, Y -> reversal(Y).

    Images must be non-empty for every variable the pattern actually uses
    (the morphism is non-erasing).
    """
    a, b = variable_counts(parse_pattern(p))
    if a and not x:
        raise ValueError("pattern uses variable x but no non-empty x image was given")
    if b and not y:
        raise ValueError("pattern uses variable y but no non-empty y image was given")
    images = {
        "x": x or "",
        "X": (x or "")[::-1],
        "y": y or "",
        "Y": (y or "")[::-1],
    }
    return "".join(images[sym] for sym in p)


@lru_cache(maxsize=4096)
def _plan(p: str) -> tuple:
    """Compile p's x-led form for ``_match_at``.

    ``lead`` counts the x slots before the first y slot and ``lead_rest``
    encodes all of them but the first; ``tail`` holds the (is_x, is_forward)
    slots from the first y slot on.  ``cut`` is set when x recurs,
    ``two_sided`` when both x and X occur, and ``pin`` is (length of the
    first y-run, the x-run after it) when such an x-run exists.
    """
    p = x_led(parse_pattern(p))
    a, b = variable_counts(p)
    body = p.lstrip("xX")
    after_y = body.lstrip("yY")
    run_x = after_y[:len(after_y) - len(after_y.lstrip("xX"))]
    lead = len(p) - len(body)
    tail = tuple((sym in "xX", sym in "xy") for sym in body)
    pin = (len(body) - len(after_y), _run(run_x)) if run_x else None
    return a, b, lead, _run(p[1:lead]), tail, a >= 2, "x" in p and "X" in p, pin


def _run(syms: str):
    """A run of x slots: its length when every slot is forward, else the
    slots' orientation flags."""
    return len(syms) if "X" not in syms else tuple(sym == "x" for sym in syms)


def _image(run, fwd: bytes, rev: bytes | None) -> bytes:
    """The bytes a run of x slots holds when X = fwd (rev is its reversal)."""
    if run.__class__ is int:
        return fwd * run
    return b"".join([fwd if f else rev for f in run])


def _pinned(w: bytes, t: bytes, base: int, run_y: int, end: int):
    """|Y| values placing the fixed x-run t right after run_y y slots that
    begin at base, in ascending order."""
    q = w.find(t, base + run_y, end)
    while q >= 0:
        if (q - base) % run_y == 0:
            yield (q - base) // run_y
        q = w.find(t, q + 1, end)


def _match_at(plan: tuple, w: bytes, start: int, max_x: int | None = None,
              max_y: int | None = None) -> tuple[bytes, bytes | None] | None:
    """Least (|X|, |Y|) instance of a planned pattern starting at ``start``.

    Returns the (x, y) values of that instance, y None for x-only patterns,
    or None when no instance within the bounds starts there.  Two prunings
    apply.  If x recurs and the length-lx head (or, two-sided, its reversal)
    occurs nowhere after it, no instance has this or any larger |X|.  Once X
    is known, the x-run after the first y-run is a fixed string, and each
    place it occurs fixes |Y|.
    """
    a, b, lead, lead_rest, tail, cut, two_sided, pin = plan
    room = len(w) - start
    lim_x = (room - b) // a
    if max_x is not None and max_x < lim_x:
        lim_x = max_x
    for lx in range(1, lim_x + 1):
        xf = w[start:start + lx]
        xr = xf[::-1] if two_sided else None
        if cut and w.find(xf, start + lx) < 0 and (
                xr is None or w.find(xr, start + lx) < 0):
            return None
        base = start + lead * lx
        if lead_rest and w[start + lx:base] != _image(lead_rest, xf, xr):
            continue
        if not b:
            return xf, None
        lim_y = (room - a * lx) // b
        if max_y is not None and max_y < lim_y:
            lim_y = max_y
        if pin:
            run_y, run_x = pin
            t = _image(run_x, xf, xr)
            lys = _pinned(w, t, base, run_y, base + run_y * lim_y + len(t))
        else:
            lys = range(1, lim_y + 1)
        for ly in lys:
            y0 = y1 = None
            pos = base
            for is_x, fwd in tail:
                length = lx if is_x else ly
                seg = w[pos:pos + length]
                pos += length
                if is_x:
                    if seg != (xf if fwd else xr):
                        break
                elif y0 is None:
                    y0, y1 = (seg, seg[::-1]) if fwd else (seg[::-1], seg)
                elif seg != (y0 if fwd else y1):
                    break
            else:
                return xf, y0
    return None


def x_led(p: str) -> str:
    """p renamed to start with x: the variables swapped when p starts with y
    or Y, then x and X swapped when the result starts with X.  Renaming keeps
    the starts of instances and maps (|X|, |Y|) to (|Y|, |X|) exactly when
    the variables are swapped."""
    if p[0] in "yY":
        p = iota(2, p)
    return iota(1, p) if p[0] == "X" else p


def _scan(w: str, p: str, max_x: int | None, max_y: int | None):
    """(start, (x, y)) of the first instance of p in w, scanned in p's x-led
    form: x and y are that form's values, least in its (|X|, |Y|) order.
    None when w avoids p within the bounds."""
    if not p:
        raise ValueError("the empty pattern has no instances; classify it directly")
    data = parse_word(w).encode()  # ASCII, so offsets into data are offsets into w
    if p[0] in "yY":
        max_x, max_y = max_y, max_x
    plan = _plan(p)
    for start in range(len(data)):
        found = _match_at(plan, data, start, max_x, max_y)
        if found is not None:
            return start, found
    return None


def _search(w: str, p: str, max_x: int | None, max_y: int | None) -> InstanceWitness | None:
    hit = _scan(w, p, max_x, max_y)
    if hit is None:
        return None
    start, (x, y) = hit
    if p[0] in "yY" and y is not None:
        # p's least (|X|, |Y|) here is the renamed form's least (|Y|, |X|):
        # the first cap on the renamed |Y| that admits an instance is p's
        # |X|, and the kernel picks the least renamed |X| for it
        data, plan, cap = w.encode(), _plan(p), 1
        while (found := _match_at(plan, data, start, max_y, cap)) is None:
            cap += 1
        x, y = found
    if p[0] in "XY":
        x = x[::-1]  # the renamed form's x is the reversal of p's first variable
    if p[0] in "yY":
        x, y = y, x
    return InstanceWitness(start, x and x.decode(), y and y.decode())


def find_instance(w: str, p: str) -> InstanceWitness | None:
    """First instance of p in w, or None when w avoids p."""
    return _search(w, p, None, None)


def find_instance_bounded(w: str, p: str, max_x: int, max_y: int) -> InstanceWitness | None:
    """Like find_instance, restricted to |X| <= max_x and |Y| <= max_y."""
    if max_x < 1 or max_y < 1:
        raise ValueError("variable-length bounds must be at least 1")
    return _search(w, p, max_x, max_y)


def avoids(w: str, p: str) -> bool:
    """True when no factor of w is an instance of p."""
    return _scan(w, p, None, None) is None


def witness_image(p: str, witness: InstanceWitness) -> str:
    """Rebuild the matched factor from a witness's variable assignment."""
    return apply_morphism(p, witness.x, witness.y)
