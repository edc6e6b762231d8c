"""Field-level diff of two directories of JSON reports.

    python scripts/golden_diff.py OLD_DIR NEW_DIR

Prints every changed, added or removed field of every `*.json` file, one
line each, with the relative change |new - old| / max(|old|, |new|) for
numbers.  Exits 1 if any field named `verdict` or any field of
`index.json` differs (the audit required before regenerating
`tests/golden/`), and 0 otherwise.  Uses only the standard library.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

MISSING = object()


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _walk(old, new, path: str):
    """Yield (path, old, new) for every leaf that differs; MISSING marks absence."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(set(old) | set(new)):
            yield from _walk(
                old.get(key, MISSING), new.get(key, MISSING), f"{path}.{key}" if path else key
            )
    elif isinstance(old, list) and isinstance(new, list):
        for i in range(max(len(old), len(new))):
            yield from _walk(
                old[i] if i < len(old) else MISSING,
                new[i] if i < len(new) else MISSING,
                f"{path}[{i}]",
            )
    elif old is MISSING or new is MISSING or json.dumps(old) != json.dumps(new):
        # compared as written, so 0 vs 0.0, -0.0 vs 0.0 and 1 vs true differ
        yield path, old, new


def _describe(path: str, old, new) -> str:
    path = path or "<file>"
    if old is MISSING:
        return f"{path}: added {json.dumps(new)}"
    if new is MISSING:
        return f"{path}: removed {json.dumps(old)}"
    line = f"{path}: {json.dumps(old)} -> {json.dumps(new)}"
    if _is_number(old) and _is_number(new):
        scale = max(abs(old), abs(new))
        line += f" (rel {abs(new - old) / scale:.2g})" if scale else ""
    return line


def _load(path: Path):
    return json.loads(path.read_text(encoding="utf-8")) if path.exists() else MISSING


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: golden_diff.py OLD_DIR NEW_DIR", file=sys.stderr)
        return 2
    old_dir, new_dir = Path(args[0]), Path(args[1])
    names = sorted({p.name for d in (old_dir, new_dir) for p in d.glob("*.json")})
    fatal = 0
    for name in names:
        for path, old, new in _walk(_load(old_dir / name), _load(new_dir / name), ""):
            key = path.rsplit(".", 1)[-1]
            critical = name == "index.json" or key == "verdict"
            fatal += critical
            mark = "!! " if critical else ""
            print(f"{mark}{name}: {_describe(path, old, new)}")
    if fatal:
        print(f"{fatal} verdict or index field(s) differ", file=sys.stderr)
    return 1 if fatal else 0


if __name__ == "__main__":
    sys.exit(main())
