"""The CLI builds its argument parser once per process, not once per call of ``main``."""

from nswfair.cli import build_parser


def test_the_parser_is_built_once():
    assert build_parser() is build_parser()
