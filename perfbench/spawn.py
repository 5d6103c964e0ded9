"""Start the CLI workload's `qpae` commands from a small process.

A child's peak RSS (`ru_maxrss`) counts the memory of the process it was
forked from, so the benchmark process, which holds numpy, qpae and its
checks, does not start the commands itself. This process imports
nothing heavy; it runs one command per stdin line and answers each with
one stdout line.

    stdin:  {"argv": [...], "stderr": PATH}   (argv item "{spawn_ns}" is
            replaced by time.monotonic_ns() just before the start)
    stdout: {"ms": wall ms, "rc": exit code, "maxrss_kb": peak RSS}
"""

import json
import os
import subprocess
import sys
import time


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stderr"], "ab") as err:
            t0 = time.perf_counter()
            argv = [str(time.monotonic_ns()) if a == "{spawn_ns}" else a
                    for a in request["argv"]]
            proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            ms = 1e3 * (time.perf_counter() - t0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"ms": ms, "rc": proc.returncode,
                          "maxrss_kb": usage.ru_maxrss}), flush=True)


if __name__ == "__main__":
    main()
