"""Hierarchical two-agent web task runner with a simulated environment.

A global planning agent decomposes an objective into phases; a local
execution agent turns each phase into page actions, checks its own work
and can ask for a global replan.  Everything runs offline against
deterministic site fixtures, with scripted or recorded LLM backends for
testing and an HTTP backend for live runs.

Import the submodules: `tandem.cli` is the command line, `tandem.harness`
runs, replays and reports tasks and suites, `tandem.orchestrator` drives
one run, and each module's `__all__` lists what it offers.
"""
