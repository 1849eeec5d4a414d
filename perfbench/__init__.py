"""spatula-ray benchmark harness (see README.md)."""
