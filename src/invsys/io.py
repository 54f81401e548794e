"""Text and JSON formats for ideals and limit inverse systems.

Both formats are line-oriented, hand-writable and diff-friendly, and round
trip exactly through the canonical polynomial rendering.
"""

from __future__ import annotations

import itertools
import json

from .errors import InputSyntaxError
from .field import field_from_name
from .groebner import Ideal
from .limitsys import LimitInverseSystem, iter_grid
from .ring import GREVLEX, RingContext, parse_polynomial


def _meaningful_lines(text):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _parse_header(lines):
    """Common `field`/`ring`/`zvars` header; returns (ctx, lines consumed)."""
    field = None
    names = None
    mode = None
    zvars = ()
    consumed = 0
    for lineno, line in lines:
        words = line.split()
        if words[0] == "field":
            if len(words) != 2:
                raise InputSyntaxError("field line needs exactly one descriptor", lineno)
            try:
                field = field_from_name(words[1])
            except InputSyntaxError as exc:
                raise InputSyntaxError(str(exc), lineno) from exc
            consumed += 1
        elif words[0] == "ring":
            if len(words) != 4 or words[2] != "vars" or words[1] not in ("local", "graded"):
                raise InputSyntaxError(
                    "ring line must read 'ring local|graded vars <csv>'", lineno
                )
            mode = words[1]
            names = tuple(n.strip() for n in words[3].split(",") if n.strip())
            consumed += 1
        elif words[0] == "zvars":
            if len(words) != 2:
                raise InputSyntaxError("zvars line needs a comma-separated list", lineno)
            zvars = tuple(n.strip() for n in words[1].split(",") if n.strip())
            consumed += 1
        else:
            break
    if field is None:
        raise InputSyntaxError("missing 'field' line")
    if names is None or mode is None:
        raise InputSyntaxError("missing 'ring' line")
    bad = [z for z in zvars if z not in names]
    if bad:
        raise InputSyntaxError(f"zvars {bad} are not ring variables")
    try:
        ctx = RingContext(field, names, mode, zvars)
    except ValueError as exc:
        raise InputSyntaxError(str(exc)) from exc
    return ctx, consumed


def parse_ideal_file(text, field_override=None):
    """Parse the ideal file grammar into (RingContext, Ideal).

    A field override re-reads the coefficients over the given field.
    """
    lines = list(_meaningful_lines(text))
    ctx, consumed = _parse_header(lines)
    if field_override is not None:
        fld = field_from_name(field_override) if isinstance(field_override, str) else field_override
        ctx = RingContext(fld, ctx.names, ctx.mode, ctx.zvars)
    rest = lines[consumed:]
    if not rest or rest[0][1] != "ideal:":
        where = rest[0][0] if rest else None
        raise InputSyntaxError("expected 'ideal:' block", where)
    gens = []
    for lineno, line in rest[1:]:
        try:
            gens.append(parse_polynomial(ctx, line))
        except InputSyntaxError as exc:
            raise InputSyntaxError(f"bad polynomial: {exc}", lineno) from exc
    return ctx, Ideal(ctx, gens)


def render_ideal_file(ctx, ideal, order=GREVLEX):
    out = [f"field {ctx.field.name}"]
    out.append(f"ring {ctx.mode} vars {','.join(ctx.names)}")
    if ctx.zvars:
        out.append(f"zvars {','.join(ctx.zvars)}")
    out.append("ideal:")
    for g in ideal.gens:
        out.append(g.render(order))
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# limit system files


def render_lis_file(H, order=GREVLEX):
    ctx = H.ring
    out = ["limit-system"]
    out.append(f"field {ctx.field.name}")
    out.append(f"ring {ctx.mode} vars {','.join(ctx.names)}")
    if ctx.zvars:
        out.append(f"zvars {','.join(ctx.zvars)}")
    out.append(f"d {H.d}")
    out.append(f"r {H.r}")
    out.append(f"s {H.s}")
    out.append(f"bound {H.bound}")
    for m in sorted(H.family):
        out.append(f"m {','.join(str(k) for k in m)}:")
        for F in H.family[m]:
            out.append(F.render(order))
    return "\n".join(out) + "\n"


def _check_stages(ctx, d, bound, stages, where=None):
    """Refuse a limit system whose header does not match its stage blocks.

    d must be the number of z-variables and bound at least 1, and the
    stages, a list of (m, line) in input order, must be every multi-index
    of {1..bound}^d exactly once.  where maps 'd' and 'bound' to the lines
    that set them; lines are None where the input has none (JSON).
    """
    where = where or {}
    if d != len(ctx.zvars):
        raise InputSyntaxError(
            f"d = {d} but the ring has {len(ctx.zvars)} z-variables", where.get("d")
        )
    if bound < 1:
        raise InputSyntaxError(f"bound {bound} must be at least 1", where.get("bound"))
    seen = set()
    for m, lineno in stages:
        if len(m) != d:
            raise InputSyntaxError(f"stage index {m} does not match d = {d}", lineno)
        if not all(1 <= k <= bound for k in m):
            raise InputSyntaxError(f"stage index {m} lies outside {{1..{bound}}}^{d}", lineno)
        if m in seen:
            raise InputSyntaxError(f"stage {m} appears twice", lineno)
        seen.add(m)
    if len(seen) < bound**d:
        # every stage is in range and seen once, so the first four missing
        # ones lie among the first len(seen) + 4 of the grid: bound^d, which
        # the header sets, is never enumerated
        missing = itertools.islice((m for m in iter_grid(d, bound) if m not in seen), 4)
        raise InputSyntaxError(f"missing stages {list(missing)}")


def parse_lis_file(text):
    lines = list(_meaningful_lines(text))
    if not lines or lines[0][1] != "limit-system":
        raise InputSyntaxError("missing 'limit-system' header", lines[0][0] if lines else None)
    ctx, consumed = _parse_header(lines[1:])
    rest = lines[1 + consumed :]
    meta = {}
    where = {}
    i = 0
    for key in ("d", "r", "s", "bound"):
        if i >= len(rest):
            raise InputSyntaxError(f"missing '{key}' line")
        lineno, line = rest[i]
        words = line.split()
        if len(words) != 2 or words[0] != key or not words[1].removeprefix("-").isdecimal():
            raise InputSyntaxError(f"expected '{key} <integer>'", lineno)
        meta[key] = int(words[1])
        where[key] = lineno
        i += 1
    dual = ctx.dual
    family = {}
    stages = []
    current = None
    for lineno, line in rest[i:]:
        if line.startswith("m ") or line == "m:":
            head = line[1:].strip()
            if not head.endswith(":"):
                raise InputSyntaxError("stage header must end with ':'", lineno)
            csv = head[:-1].strip()
            try:
                m = tuple(int(k) for k in csv.split(",") if k.strip())
            except ValueError:
                raise InputSyntaxError(f"stage index {csv!r} is not a list of integers", lineno) from None
            stages.append((m, lineno))
            current = m
            family[m] = []
        else:
            if current is None:
                raise InputSyntaxError("polynomial outside any 'm' block", lineno)
            try:
                family[current].append(parse_polynomial(dual, line))
            except InputSyntaxError as exc:
                raise InputSyntaxError(f"bad dual polynomial: {exc}", lineno) from exc
    _check_stages(ctx, meta["d"], meta["bound"], stages, where)
    return LimitInverseSystem(
        ctx, meta["d"], meta["r"], meta["s"], meta["bound"],
        {m: tuple(v) for m, v in family.items()},
    )


def lis_to_json(H, order=GREVLEX):
    ctx = H.ring
    return {
        "format": "limit-system",
        "field": ctx.field.name,
        "ring": {"mode": ctx.mode, "vars": list(ctx.names), "zvars": list(ctx.zvars)},
        "d": H.d,
        "r": H.r,
        "s": H.s,
        "bound": H.bound,
        "family": {
            ",".join(str(k) for k in m): [F.render(order) for F in H.family[m]]
            for m in sorted(H.family)
        },
    }


def lis_from_json(doc):
    try:
        field = field_from_name(doc["field"])
        ring = doc["ring"]
        ctx = RingContext(
            field, tuple(ring["vars"]), ring["mode"], tuple(ring.get("zvars", ()))
        )
        dual = ctx.dual
        d, r, s, bound = (int(doc[k]) for k in ("d", "r", "s", "bound"))
        family = {}
        stages = []
        for key, polys in doc["family"].items():
            m = tuple(int(k) for k in key.split(",") if k.strip()) if key else ()
            stages.append((m, None))
            family[m] = tuple(parse_polynomial(dual, p) for p in polys)
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        # a missing key, a value of the wrong JSON type, or a number that is
        # no integer (Infinity included)
        raise InputSyntaxError(f"malformed limit-system JSON: {exc}") from exc
    _check_stages(ctx, d, bound, stages)
    return LimitInverseSystem(ctx, d, r, s, bound, family)


def _unique_keys(pairs):
    """A JSON object as a dict, refusing a repeated key (such as a stage)."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise InputSyntaxError(f"JSON key {key!r} appears twice")
        doc[key] = value
    return doc


def load_limit_system(text):
    """Sniff JSON vs text and parse accordingly."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            doc = json.loads(text, object_pairs_hook=_unique_keys)
        except json.JSONDecodeError as exc:
            raise InputSyntaxError(f"bad JSON: {exc}") from exc
        if "limit_system" in doc:  # CLI payload envelope
            doc = doc["limit_system"]
        return lis_from_json(doc)
    return parse_lis_file(text)
