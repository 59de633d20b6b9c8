"""Machine-parsable run reports.

A report is a flat mapping with dotted keys forming a tree, rendered as
sorted `key = value` lines. Floats use shortest round-trip repr so two
identical runs render byte-identical deterministic fields; timing keys
(under `timing.`) are the only fields expected to differ between repeats.
"""
from __future__ import annotations

import contextlib
import os


def format_value(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def format_report(fields: dict) -> str:
    lines = [f"{key} = {format_value(fields[key])}" for key in sorted(fields)]
    return "\n".join(lines) + "\n"


def parse_report(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition(" = ")
        out[key] = value
    return out


def strip_volatile(fields: dict) -> dict:
    """Drop keys whose values legitimately vary between identical runs."""
    return {k: v for k, v in fields.items() if not k.startswith("timing.")}


def write_atomic(path, data: bytes) -> None:
    """Write data to a temp file beside path, then replace path with it; the
    temp file is removed when the write or the replace fails."""
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def write_text_atomic(path, text: str) -> None:
    write_atomic(path, text.encode("utf-8"))
