"""Run one command and write its own peak resident set size to a file.

    python3 -I -S layerbench/launch.py REPORT -- <argv>

Linux folds the memory high-water mark a process had before ``exec`` into
its ``ru_maxrss``, and ``subprocess`` starts children with ``vfork``, so a
child started straight from the benchmark (which holds parsed CSVs and
samples) would report the benchmark's size as its own peak.  This launcher is
a small interpreter without site packages; the command forked from it
reports its own peak.  The launcher exits with the command's status.
"""

import os
import sys


def main():
    report, sep, *argv = sys.argv[1:]
    if sep != "--" or not argv:
        sys.exit("usage: launch.py REPORT -- <argv>")
    pid = os.fork()
    if pid == 0:
        try:
            os.execvp(argv[0], argv)
        finally:
            os._exit(127)
    _, status, usage = os.wait4(pid, 0)
    with open(report, "w") as fh:
        fh.write(f"{usage.ru_maxrss}\n")
    code = os.waitstatus_to_exitcode(status)
    sys.exit(code if code >= 0 else 128 - code)


if __name__ == "__main__":
    main()
