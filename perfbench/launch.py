"""Run one command and report its wall time, CPU time and peak RSS.

    python3 perfbench/launch.py -- COMMAND [ARGS...]

Prints one JSON object: `wall_s`, `cpu_s` (user plus system time of the
command and every descendant it waited for, such as pool workers),
`peak_rss_mb` (largest resident set among them), the exit code and the
command's stdout.

The launcher is a process of its own because Linux carries a process's
peak RSS across fork and exec into the child's usage record.  Started
straight from the harness, which holds the oracle and the JSON schema
library, a pass would read the harness's peak whenever that is larger.
The launcher imports only modules that the CLI imports too, so its own
peak stays below that of any CLI pass.
"""

import json
import os
import sys
import time


def main() -> int:
    argv = sys.argv[1:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    read_end, write_end = os.pipe()
    actions = [(os.POSIX_SPAWN_DUP2, write_end, 1), (os.POSIX_SPAWN_CLOSE, read_end)]
    start = time.perf_counter()
    pid = os.posix_spawnp(argv[0], argv, os.environ, file_actions=actions)
    os.close(write_end)
    chunks = []
    with os.fdopen(read_end, "rb") as pipe:
        for chunk in iter(lambda: pipe.read(65536), b""):
            chunks.append(chunk)
    _pid, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    result = {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "exit": os.waitstatus_to_exitcode(status),
        "output": b"".join(chunks).decode(),
    }
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
