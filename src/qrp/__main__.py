"""``python -m qrp``: the command-line interface."""

from .cli import main

main(prog_name="qrp")
