"""Worker process for the in-process workloads.

    PYTHONPATH=src python3 perfbench/worker.py

Reads one request per line on stdin, a JSON list [function, *args] naming
a round function of ``inproc``, runs it and answers with the round's result
as one JSON line on stdout. It ends at the end of its input. Only workers
import oamsim; the benchmark process never does.
"""

import json
import sys

import inproc


def main():
    for line in sys.stdin:
        function, *args = json.loads(line)
        sys.stdout.write(json.dumps(getattr(inproc, function)(*args)) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
