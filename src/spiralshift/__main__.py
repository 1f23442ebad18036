"""`python -m spiralshift` runs the command line."""

from .cli import main_entry

main_entry()
