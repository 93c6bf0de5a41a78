"""Every fast path against its brute-force twin on the large fixed cases of
``tests/twins.py``, at sizes beyond what tier-1 draws.

Prints one line per case: the entry, the case, the fast result's summary
and the time both sides took.  A case fails when the two results differ
under the entry's comparison, when its summary does not start with the one
the case expects (a verdict, an exit code), or when either side raises.
Exits 1 if any case fails.

Run from the repository root:  python3 ci/twins.py [ENTRY ...]
(ENTRY names limit the run to those entries, e.g. ``static-walk``.)
"""

import os
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

from twins import TWINS  # noqa: E402


def run(entry, case, expect):
    """(passed?, the line's summary)"""
    try:
        got, want = entry.fast(case), entry.twin(case)
    except Exception:
        return False, traceback.format_exc()
    summary = entry.summary(got)
    if not entry.compare(got, want):
        return False, f"{summary}; the twin gives {entry.summary(want)}, and the results differ"
    if expect is not None and not summary.startswith(expect):
        return False, f"{summary}; expected {expect}"
    return True, summary


def main(names) -> int:
    unknown = set(names) - {entry.name for entry in TWINS}
    if unknown:
        print(f"unknown entries: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    failed = 0
    for entry in TWINS:
        if names and entry.name not in names:
            continue
        for label, case, expect in entry.large:
            start = time.perf_counter()
            passed, summary = run(entry, case, expect)
            failed += not passed
            seconds = time.perf_counter() - start
            shown = "ok  " if passed else "FAIL"
            print(f"{shown} {entry.name}: {label}: {summary} ({seconds:.1f} s)", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
