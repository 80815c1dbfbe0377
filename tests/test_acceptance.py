"""Acceptance suite: every row of the property table in ``aknslab.selftest``
at its stated tolerance.  Each group of the table is one test and prints one
[PASS]/[FAIL] line per row.

Run as  pytest tests/test_acceptance.py -v -s  to see the lines.
"""

from aknslab.selftest import GROUPS, format_row


def _group_test(group):
    def test():
        rows = group()
        for row in rows:
            print(format_row(row))
        assert all(row[4] for row in rows), [row[0] for row in rows if not row[4]]
    return test


# one named test per group, so a failure names its group
for _group in GROUPS:
    globals()[f"test_{_group.__name__}"] = _group_test(_group)
