"""Rerun the reference runs of tests/corpus and report which values moved.

    python tests/regen_corpus.py              # report only
    python tests/regen_corpus.py --write      # report, then rewrite the corpus

For each case it prints every file whose values changed: how many values
moved, the largest relative change, and the largest few changes, marking those
beyond the file's tolerance in corpus_runs.TOLERANCE. It exits 1 if any change is
beyond tolerance and --write was not given.
"""

import argparse
import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parent
sys.path[:0] = [str(TESTS), str(TESTS.parent / "src")]

from corpus_runs import (  # noqa: E402
    CASES, CORPUS, TOLERANCE, beyond_tolerance, compare, load_case, relative_change, run_case, save_case, within_tolerance,
)

# changes printed per file
_SHOWN = 5


def report(name, moved):
    """Print the changes of one case, file by file."""
    if not moved:
        print(f"{name}: unchanged")
        return
    print(f"{name}:")
    for fname in dict.fromkeys(m[0] for m in moved):
        # those beyond tolerance first, then the largest changes
        changes = sorted((m for m in moved if m[0] == fname), key=lambda m: (within_tolerance(m), -relative_change(m)))
        worst = max(relative_change(m) for m in changes)
        rtol, atol = TOLERANCE.get(fname, (0.0, 0.0))
        print(f"  {fname}: {len(changes)} values moved, largest relative change {worst:.3e}"
              f" (tolerance rtol {rtol:.0e}, atol {atol:.0e})")
        for m in changes[:_SHOWN]:
            flag = "" if within_tolerance(m) else "  BEYOND TOLERANCE"
            print(f"    {m[1]}: {m[2]} -> {m[3]} (relative {relative_change(m):.3e}){flag}")
        if len(changes) > _SHOWN:
            print(f"    ... and {len(changes) - _SHOWN} more")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--write", action="store_true", help="rewrite the corpus with the new outputs")
    args = parser.parse_args(argv)
    failing = False
    with tempfile.TemporaryDirectory() as tmp:
        for name in CASES:
            result = run_case(name, Path(tmp) / name)
            moved = compare(load_case(name), result) if (CORPUS / name / "run.json").exists() else None
            if moved is None:
                print(f"{name}: new case")
            else:
                report(name, moved)
                failing |= bool(beyond_tolerance(moved))
            if args.write:
                save_case(name, result)
    return 1 if failing and not args.write else 0


if __name__ == "__main__":
    sys.exit(main())
