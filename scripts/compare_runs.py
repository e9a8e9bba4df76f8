"""Compare the artifact directories of two ``ouperturb`` runs.

Prints each artifact whose bytes differ or that only one directory holds
(``manifest.json`` aside, since its wall times always differ), each manifest
``checks`` row that differs at full precision, and any difference in the
manifest's ``files`` digests, ``blocks`` or ``status``.  Exits 1 on any
difference and 0 otherwise.

    python3 scripts/compare_runs.py out/before out/after
"""

import json
import sys
from pathlib import Path


def _artifacts(d: Path) -> dict:
    return {p.name: p.read_bytes() for p in d.iterdir()
            if p.is_file() and p.name != "manifest.json"}


def _manifest(d: Path) -> dict:
    path = d / "manifest.json"
    return json.loads(path.read_text()) if path.exists() else {}


def compare(a: Path, b: Path) -> list:
    """One line per difference between the runs in ``a`` and ``b``."""
    out = []
    fa, fb = _artifacts(a), _artifacts(b)
    for name in sorted(fa.keys() | fb.keys()):
        if name not in fb or name not in fa:
            out.append(f"{name}: only in {a if name in fa else b}")
        elif fa[name] != fb[name]:
            out.append(f"{name}: bytes differ")
    ma, mb = _manifest(a), _manifest(b)
    if not (ma and mb):
        out.append("manifest.json: missing in " + ", ".join(
            str(d) for d, m in ((a, ma), (b, mb)) if not m))
    # a row as JSON text compares every float at full precision, NaN included
    rows_a, rows_b = ({c["id"]: json.dumps(c) for c in m.get("checks", [])}
                      for m in (ma, mb))
    for cid in [*rows_a, *(c for c in rows_b if c not in rows_a)]:
        if rows_a.get(cid) != rows_b.get(cid):
            out.append(f"check {cid}: {rows_a.get(cid)} -> {rows_b.get(cid)}")
    if list(rows_a) != list(rows_b) and rows_a.keys() == rows_b.keys():
        out.append("checks: same rows in a different order")
    digests_a, digests_b = ({f["name"]: f["sha256"] for f in m.get("files", [])}
                            for m in (ma, mb))
    for name in sorted(digests_a.keys() | digests_b.keys()):
        if digests_a.get(name) != digests_b.get(name):
            out.append(f"manifest files {name}: {digests_a.get(name)} -> "
                       f"{digests_b.get(name)}")
    for key in ("blocks", "status"):
        if ma.get(key) != mb.get(key):
            out.append(f"manifest {key}: {ma.get(key)} -> {mb.get(key)}")
    return out


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: compare_runs.py DIR_A DIR_B", file=sys.stderr)
        return 2
    diffs = compare(Path(args[0]), Path(args[1]))
    print("\n".join(diffs) if diffs else "no differences")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
