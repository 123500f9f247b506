"""Deliberate leak sanctioned with a pragma (flow honors # sia:)."""


def keep_handle(path):
    # sia: allow(SIA403) -- process-lifetime handle: closed at
    # interpreter exit.
    handle = open(path)
    return None
