"""Patterns the flow passes must accept without findings."""

import json
import random

from ..smt.engine import assert_bound


def close_on_all_paths(path, flag):
    handle = open(path)
    try:
        if flag:
            return 1
        return 0
    finally:
        handle.close()


def with_block(path):
    with open(path) as handle:
        return handle.read()


def seeded(out):
    random.seed(7)
    tag = random.randint(0, 7)
    json.dump({"tag": tag}, out)


def ordered(rows, out):
    names = {row.name for row in rows}
    for name in sorted(names):
        out.write(name)


def exact_flow(session, q):
    return assert_bound(session, q)
