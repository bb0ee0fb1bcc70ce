"""End-to-end study benchmark with per-layer tracing (see README.md)."""
