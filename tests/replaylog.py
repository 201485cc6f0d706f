"""Replay logs written from canned responses, for tests of ``ReplayScorer``."""

import json

from lanefuse.backends import _log_line


def write_replay_log(path, entries) -> None:
    """Write a replay log from (request, response-dict) pairs, one record each
    as ``RemoteScorer`` logs it."""
    with open(path, "w", encoding="utf-8") as fh:
        for request, response in entries:
            fh.write(_log_line(request, json.dumps(response)))
