"""Deterministic table and JSON writers.

Byte-identical reruns are a contract: CSV floats are fixed at 17 significant
digits (round-trip exact for doubles), rows end with LF, and JSON is written
sorted with a fixed indent.  Keep every output file on these helpers.
"""

import json
import os

from .errors import ConfigError


def format_value(v):
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return f"{v:.17g}"
    if isinstance(v, str):
        if "," in v or "\n" in v:
            raise ConfigError(f"CSV fields may not contain commas/newlines: {v!r}")
        return v
    raise ConfigError(f"cannot serialize {type(v).__name__} into CSV")


def write_csv(path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_value(v) for v in row))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def write_json(path, obj):
    with open(path, "w", newline="") as fh:
        fh.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def ensure_dir(path):
    os.makedirs(path, exist_ok=True)
    if not os.path.isdir(path):
        raise OSError(f"could not create output directory {path!r}")
