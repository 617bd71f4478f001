"""Spawns the benchmark's child processes and reports each one's wall time and peak RSS.

Reads one JSON request per line on standard input,
    {"cmd": [...], "cwd": DIR, "env": {...}, "stdout": FILE, "stderr": FILE},
runs the command to completion, and answers with one JSON line,
    {"exit_code": INT, "wall_s": FLOAT, "peak_rss_mb": FLOAT}.
It exits when standard input closes.

Peak RSS is the child's own ru_maxrss from wait4. On Linux that figure also
takes in the RSS high-water mark of the process that spawned the child, so
the spawner has to stay small: this process imports nothing heavy and parses
no documents, unlike the benchmark runner, which loads 61 MB documents.
"""

import json
import os
import subprocess
import sys
import time


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(request["cmd"], cwd=request["cwd"], env=request["env"],
                                    stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"exit_code": proc.returncode, "wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024.0}
        print(json.dumps(reply), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
