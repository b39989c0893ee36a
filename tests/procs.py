"""Process states read from /proc, for tests that check no worker is left."""

import os


def running(pid):
    """Whether process ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def children(pid):
    """Pids of the live processes whose parent is ``pid``."""
    found = []
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as fh:
                state, ppid = fh.read().rsplit(")", 1)[1].split()[:2]
        except (FileNotFoundError, ProcessLookupError):
            continue
        if int(ppid) == pid and state != "Z":
            found.append(int(name))
    return found
