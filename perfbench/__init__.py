"""The repo benchmark (see README.md); run ``python3 perfbench/run.py --help``."""
