"""The repository's benchmark: served requests over HTTP -> pool -> engine.

See ``bench/README.md`` for the commands, workloads and metrics.
"""
