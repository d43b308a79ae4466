"""The module the runner self-test mutates: three sites."""


def scale(x):
    return x * 1
