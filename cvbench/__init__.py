"""The cvmc benchmark: workloads, tracing and metrics (see README.md)."""
