"""What one round of a workload did, in the form every workload reports."""


class Round:
    """Operations attempted and failed, checks made and not met, and the
    timings of one round, by name."""

    def __init__(self):
        self.attempted = 0
        self.failed = []
        self.checks = 0
        self.wrong = []
        self.times = {}

    def check(self, name, ok, detail=""):
        self.checks += 1
        if not ok:
            self.wrong.append(f"{name}: {detail}")

    def result(self, rss_mb, layers=None, absent=()) -> dict:
        """Plain data, as a worker process returns it; ``layers`` only for
        a traced round."""
        out = {"attempted": self.attempted, "failed": self.failed, "checks": self.checks,
               "wrong": self.wrong, "times": self.times, "rss_mb": rss_mb}
        if layers is not None:
            out["layers"] = layers
            out["absent"] = list(absent)
        return out
