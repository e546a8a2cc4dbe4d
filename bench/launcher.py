"""Runs the benchmark's commands one at a time and measures each.

run.py starts this as a separate small process (standard library only, no
numpy) and sends it one command at a time. The reason is peak memory: Linux
folds the high-water RSS of the process that spawns a child into the child's
own ``ru_maxrss``, so commands spawned by the harness itself would report at
least the harness's memory. This process stays far below any segrent command,
which imports numpy.

Protocol: one JSON request per stdin line,
    {"argv": [...], "stdout": path, "stderr": path, "timeout": seconds}
and one JSON reply per stdout line,
    {"wall_s", "cpu_s", "code", "rss_kb", "timed_out", "launcher_hwm_kb"}.
``launcher_hwm_kb`` is this process's own peak RSS (VmHWM), the floor under
every ``rss_kb``; its ``ru_maxrss`` would not do, being inflated the same way.
Children inherit this process's working directory and environment. The
process exits when its stdin closes.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time


def run_child(argv, stdout_path, stderr_path, timeout) -> dict:
    """Run one command to completion and return its timing and usage."""
    timed_out = threading.Event()

    def kill(pid):
        timed_out.set()
        os.kill(pid, signal.SIGKILL)

    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        killer = threading.Timer(max(timeout, 0.0), kill, (proc.pid,))
        killer.start()
        try:
            # wait without reaping, so the timer can never signal a reused pid
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            t1 = time.perf_counter()
        except BaseException:
            os.kill(proc.pid, signal.SIGKILL)
            raise
        finally:
            killer.cancel()
            killer.join()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": t1 - t0, "cpu_s": usage.ru_utime + usage.ru_stime,
            "code": proc.returncode, "rss_kb": usage.ru_maxrss,
            "timed_out": timed_out.is_set(),
            "launcher_hwm_kb": own_peak_kb()}


def own_peak_kb():
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        reply = run_child(req["argv"], req["stdout"], req["stderr"], req["timeout"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
