"""Resources leaked on some normal or exceptional path."""


def leak_on_early_return(path, flag):
    handle = open(path)
    if flag:
        return 1
    handle.close()
    return 0


def leak_handle(path):
    handle = open(path)
    text = handle.read()
    handle.close()
    return text
