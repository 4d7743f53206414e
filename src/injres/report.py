"""The report every suite returns, and the error that ends a request with
exit code 2.

The command line and the verification layers both import this module, so a
`reduce` request loads the report type without loading the layers that
build the other reports.
"""


class UsageError(Exception):
    """Bad input: the request prints the message and exits with code 2."""


class CohomologyReport:
    """A titled list of (label, detail, ok) verification lines."""

    def __init__(self, title, data=None):
        self.title = title
        self.lines = []
        self.data = data or {}

    def add(self, label, detail, ok=True):
        self.lines.append((label, str(detail), bool(ok)))

    @property
    def passed(self):
        return all(ok for _, _, ok in self.lines)

    def render(self):
        out = [self.title]
        for label, detail, ok in self.lines:
            mark = "ok" if ok else "FAIL"
            out.append(f"  [{mark}] {label}: {detail}")
        return "\n".join(out)

    def __repr__(self):
        return self.render()
