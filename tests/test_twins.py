"""The small side of every entry in ``twins.TWINS``: on each part's drawn
and pinned cases, the fast path and its twin must agree under the entry's
comparison.  ``ci/twins.py`` runs the large side."""

import pytest
from hypothesis import example, given, settings

from twins import TWINS

PARTS = [(entry, part) for entry in TWINS for part in entry.small]


@pytest.mark.parametrize("entry, part", PARTS, ids=[f"{e.name}-{part}" for e, part in PARTS])
def test_small_cases(entry, part):
    small = entry.small[part]

    def check(case):
        got, want = entry.fast(case), entry.twin(case)
        assert entry.compare(got, want), f"{entry.name} differs from its twin on {case!r}"

    # one example-database key per part, as hypothesis's pytest plugin gives
    # each parametrized case of a test it decorates
    check._hypothesis_internal_add_digest = f"{entry.name}-{part}".encode()
    run = given(small.strategy)(check)
    for case in small.examples:
        run = example(case)(run)
    settings(max_examples=small.max_examples, deadline=None)(run)()
