"""Make the program importable for the benchmark's own tests."""

from perfbench import env

env.bootstrap()
