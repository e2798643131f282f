"""Reference implementations that the tests check the engine against.

Nothing here imports from ``larspath`` except ``larspath.errors``.
"""
